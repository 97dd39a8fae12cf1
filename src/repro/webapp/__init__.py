"""The demonstration web application (paper §4, Figure 2 left half):
client registration, subscription/publication input, mode switching,
and match inspection over a dependency-free HTTP substrate."""

from repro.webapp.app import JobFinderWebApp
from repro.webapp.forms import optional, optional_int, required, required_choice
from repro.webapp.http import App, Request, Response, escape

__all__ = [
    "JobFinderWebApp",
    "App",
    "Request",
    "Response",
    "escape",
    "required",
    "required_choice",
    "optional",
    "optional_int",
]
