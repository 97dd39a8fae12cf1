"""The docs tree stays true: links resolve, snippets run.

Convention (documented in ``docs/EXTENDING.md``): every fenced
```` ```python ```` block in ``docs/*.md`` and ``README.md`` is
executable documentation — this test runs each file's blocks top to
bottom in one shared namespace, so a later block may use names an
earlier block defined.  Blocks that are not meant to run are fenced as
``text``, ``bash``, or left untagged.  Relative markdown links must
point at files that exist in the repository.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.matching import base as matching_base

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
_DOC_FILES = sorted(_REPO_ROOT.glob("docs/*.md")) + [_REPO_ROOT / "README.md"]

#: ```python ... ``` fenced blocks (the info string must be exactly
#: "python"; "python no-run" or other tags are skipped deliberately)
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
#: inline markdown links [text](target) — excluding images
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def _doc_id(path: pathlib.Path) -> str:
    return str(path.relative_to(_REPO_ROOT))


@pytest.mark.parametrize("doc", _DOC_FILES, ids=_doc_id)
def test_relative_links_resolve(doc):
    text = doc.read_text()
    missing = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (doc.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, f"{_doc_id(doc)} has dead relative links: {missing}"


@pytest.mark.parametrize("doc", _DOC_FILES, ids=_doc_id)
def test_python_snippets_execute(doc, monkeypatch):
    # a snippet may register a matcher; keep it out of the other tests
    monkeypatch.setattr(matching_base, "_REGISTRY", dict(matching_base._REGISTRY))
    blocks = _PYTHON_BLOCK.findall(doc.read_text())
    if not blocks:
        pytest.skip(f"{_doc_id(doc)} has no python blocks")
    namespace: dict[str, object] = {"__name__": f"docsnippet:{doc.stem}"}
    for index, block in enumerate(blocks):
        code = compile(block, f"{_doc_id(doc)}[block {index}]", "exec")
        try:
            exec(code, namespace)  # noqa: S102 - executing our own docs
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{_doc_id(doc)} block {index} failed: {type(exc).__name__}: {exc}\n"
                f"---\n{block}"
            )


def test_docs_tree_is_complete():
    """The docs tree: architecture, performance, extending,
    concurrency, resilience, durability, workloads."""
    for name in (
        "ARCHITECTURE.md",
        "PERFORMANCE.md",
        "EXTENDING.md",
        "CONCURRENCY.md",
        "RESILIENCE.md",
        "DURABILITY.md",
        "WORKLOADS.md",
    ):
        assert (_REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"
