"""Exception hierarchy for the S-ToPSS reproduction.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one type at the boundary.  Subsystems raise the
more specific subclasses below; the class names mirror the package layout
(``model``, ``ontology``, ``matching``, ``core``, ``broker``, ``webapp``,
``workload``).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "InvalidAttributeError",
    "InvalidValueError",
    "IncomparableValuesError",
    "PredicateError",
    "DuplicateAttributeError",
    "ParseError",
    "OntologyError",
    "UnknownConceptError",
    "DuplicateConceptError",
    "TaxonomyCycleError",
    "UnknownDomainError",
    "DamlImportError",
    "MappingRuleError",
    "MatchingError",
    "DuplicateSubscriptionError",
    "UnknownSubscriptionError",
    "SemanticError",
    "ConfigError",
    "BrokerError",
    "UnknownClientError",
    "DuplicateClientError",
    "TransportError",
    "DeliveryError",
    "DurabilityError",
    "SimulatedCrash",
    "StateFormatError",
    "WebAppError",
    "RoutingError",
    "FormValidationError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class ModelError(ReproError):
    """Base class for data-model errors (events, predicates, subscriptions)."""


class InvalidAttributeError(ModelError):
    """An attribute name is empty or contains forbidden characters."""


class InvalidValueError(ModelError):
    """A value has an unsupported Python type or a malformed literal."""


class IncomparableValuesError(ModelError):
    """Two values cannot be ordered (e.g. a string against a number)."""


class PredicateError(ModelError):
    """A predicate was constructed with an operator/operand mismatch."""


class DuplicateAttributeError(ModelError):
    """An event was built with two conflicting values for one attribute."""


class ParseError(ModelError):
    """The textual subscription/event language could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position >= 0:
            return f"{base} (at position {self.position} in {self.text!r})"
        return base


# ---------------------------------------------------------------------------
# ontology
# ---------------------------------------------------------------------------

class OntologyError(ReproError):
    """Base class for knowledge-substrate errors."""


class UnknownConceptError(OntologyError):
    """A term is not present in the taxonomy/thesaurus being queried."""


class DuplicateConceptError(OntologyError):
    """A concept was registered twice with conflicting definitions."""


class TaxonomyCycleError(OntologyError):
    """Adding an is-a edge would create a cycle in the concept hierarchy."""


class UnknownDomainError(OntologyError):
    """A domain name was not found in the knowledge base."""


class DamlImportError(OntologyError):
    """A DAML+OIL/RDFS document could not be translated."""


class MappingRuleError(OntologyError):
    """A mapping-function definition is malformed."""


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

class MatchingError(ReproError):
    """Base class for syntactic matching-engine errors."""


class DuplicateSubscriptionError(MatchingError):
    """A subscription id was inserted twice into one matcher."""


class UnknownSubscriptionError(MatchingError):
    """A subscription id was removed/queried but never inserted."""


# ---------------------------------------------------------------------------
# core (semantic layer)
# ---------------------------------------------------------------------------

class SemanticError(ReproError):
    """Base class for semantic-stage errors."""


class ConfigError(SemanticError):
    """A :class:`~repro.core.config.SemanticConfig` value is out of range."""


# ---------------------------------------------------------------------------
# broker
# ---------------------------------------------------------------------------

class BrokerError(ReproError):
    """Base class for dispatcher/notification errors."""


class UnknownClientError(BrokerError):
    """A client id was not found in the registry."""


class DuplicateClientError(BrokerError):
    """A client id was registered twice."""


class TransportError(BrokerError):
    """A notification transport rejected or failed a send."""


class DeliveryError(BrokerError):
    """The notification engine exhausted retries for a notification."""


class DurabilityError(BrokerError):
    """The write-ahead journal or snapshot store is unusable — e.g. a
    fresh broker was pointed at a directory that already holds durable
    state (use :func:`~repro.broker.durability.recover` instead)."""


class SimulatedCrash(DurabilityError):
    """An injected ``crash`` fault fired: the journal wrote a torn
    record and the broker must be abandoned and recovered.  Raised only
    under a :class:`~repro.broker.supervision.FaultPlan` — never in
    production operation."""


class StateFormatError(DurabilityError):
    """Recovery met durable state in a form this broker never writes: a
    journal record kind or configuration key it does not know, a
    delivery-log row whose id is not ``n<N>``, or a log whose sequences
    are not contiguous.  Refused, never interpreted."""


# ---------------------------------------------------------------------------
# webapp
# ---------------------------------------------------------------------------

class WebAppError(ReproError):
    """Base class for the demonstration web application."""


class RoutingError(WebAppError):
    """No route matches the requested method/path."""


class FormValidationError(WebAppError):
    """Submitted form data failed validation."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------

class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""
