"""Field rules, stated once on the model dataclasses, and the one collector.

A model field declares its default and its allowed values with ``rule``, and
a rule between fields is a model function marked with ``relation``. A model
that derives from ``Checked`` runs ``violations`` in ``__post_init__`` and
raises one DomainError listing every broken rule; ``validate_config`` runs
the same collector on the YAML values, with the YAML path as prefix, and a
library function that takes a model's fields as arguments runs it on them
and ``refuse``s what it finds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field, fields

from .errors import ConfigurationError, DomainError


def rule(default=MISSING, *, lo=None, hi=None, choices=None):
    """A dataclass field whose value must lie in [lo, hi] or be one of choices."""
    return field(default=default, metadata={"lo": lo, "hi": hi, "choices": choices})


def relation(*names):
    """Mark a model function as a rule between its fields ``names``.

    The function takes their values in that order and returns why they break
    the rule, or None; the violation is reported against the first name.
    """
    def mark(check):
        check.relation_fields = names
        return check
    return mark


def _field_violation(meta, value):
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite (got {value})"
    lo, hi, choices = meta.get("lo"), meta.get("hi"), meta.get("choices")
    if (lo is not None or hi is not None) and not isinstance(value, numbers.Real):
        return f"expected a number (got {value!r})"
    if lo is not None and value < lo:
        return f"must be >= {lo} (got {value})"
    if hi is not None and value > hi:
        return f"must be <= {hi} (got {value})"
    if choices is not None and value not in choices:
        return f"must be one of {', '.join(map(str, choices))} (got {value!r})"
    return None


def violations(cls, values, prefix=""):
    """Every rule of dataclass ``cls`` broken by ``values`` (field name -> value).

    Each violation is ``"<prefix><field>: <reason>"``. Fields missing from
    ``values`` are not checked. Float fields must be finite. A ``relation``
    of the class runs when each of its fields is given and keeps its own rule.
    """
    found, passed = [], dict(values)
    for f in fields(cls):
        if f.name in values:
            reason = _field_violation(f.metadata, values[f.name])
            if reason:
                found.append(f"{prefix}{f.name}: {reason}")
                del passed[f.name]
    for check in vars(cls).values():
        names = getattr(check, "relation_fields", ())
        if names and all(name in passed for name in names):
            reason = check(*(passed[name] for name in names))
            if reason:
                found.append(f"{prefix}{names[0]}: {reason}")
    return found


def refuse(found):
    """Raise one ConfigurationError listing the broken rules ``found``, if any."""
    if found:
        raise ConfigurationError("; ".join(found))


class Checked:
    """Mixin for model dataclasses: construction checks every field rule."""

    def __post_init__(self):
        found = violations(type(self), {f.name: getattr(self, f.name) for f in fields(self)})
        if found:
            raise DomainError(f"{type(self).__name__}: " + "; ".join(found))
