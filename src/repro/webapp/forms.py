"""Form parsing and validation for the demonstration web application.

Everything arriving over HTTP is a string; these helpers convert form
fields into typed values with uniform, field-attributed error messages
(:class:`~repro.errors.FormValidationError` carries the field name so
the UI can highlight it).
"""

from __future__ import annotations

from repro.errors import FormValidationError

__all__ = [
    "required",
    "optional",
    "required_choice",
    "optional_int",
]


def required(form: dict[str, str], field: str) -> str:
    """A non-empty string field."""
    value = form.get(field, "").strip()
    if not value:
        raise FormValidationError(f"field {field!r} is required", field=field)
    return value


def optional(form: dict[str, str], field: str, default: str = "") -> str:
    return form.get(field, default).strip()


def required_choice(form: dict[str, str], field: str, choices: tuple[str, ...]) -> str:
    """A required field constrained to an enumerated set."""
    value = required(form, field).lower()
    if value not in choices:
        raise FormValidationError(
            f"field {field!r} must be one of {', '.join(choices)}", field=field
        )
    return value


def optional_int(
    form: dict[str, str],
    field: str,
    *,
    default: int | None = None,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int | None:
    """An optional integer field with bounds."""
    raw = form.get(field, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise FormValidationError(
            f"field {field!r} must be an integer, got {raw!r}", field=field
        ) from None
    if minimum is not None and value < minimum:
        raise FormValidationError(f"field {field!r} must be >= {minimum}", field=field)
    if maximum is not None and value > maximum:
        raise FormValidationError(f"field {field!r} must be <= {maximum}", field=field)
    return value
