"""A third-party matcher for the suites that pin pluggability.

The paper puts the semantic stages in front of an *unmodified* matcher
(§3.1), so what holds for the shipped ``counting`` and ``naive`` names
must also hold for a matcher the package has never seen: an
unregistered :class:`~repro.matching.base.MatchingAlgorithm` subclass
with nothing but a linear scan — no index, no memo, and the base
class's serial ``match_batch`` fallback.
"""

from __future__ import annotations

from repro.matching.base import MatchingAlgorithm, matcher_names


class ScanMatcher(MatchingAlgorithm):
    """A third-party matcher: a linear scan and the default batch path."""

    name = "scan"

    def _match(self, event):
        return [sub for sub in self.subscriptions() if sub.matches(event)]


#: every shipped matcher name, then the third-party one
MATCHERS = (*matcher_names(), ScanMatcher.name)


def matcher_arg(name: str):
    """The ``matcher=`` argument an engine takes for *name*: a shipped
    name passes through, ``"scan"`` becomes a fresh unregistered
    instance (one per engine — an instance holds one subscription
    table)."""
    return ScanMatcher() if name == ScanMatcher.name else name
