"""The repo's end-to-end broker benchmark (see ``bench/README.md``)."""
