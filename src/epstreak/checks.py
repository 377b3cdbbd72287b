"""Field rules, stated once on the model dataclasses, and the one collector.

A model field declares its type with its annotation and its default and
allowed values with ``rule``, and a rule between fields is a model function
marked with ``relation``. A model that derives from ``Checked`` runs
``violations`` in ``__post_init__`` and raises one DomainError listing every
broken rule; ``validate_config`` runs the same collector on the YAML values,
with the YAML path as prefix, and a library function that takes a model's
fields as arguments runs it on them and ``refuse``s what it finds.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import MISSING, field, fields
from functools import cache

import numpy as np

from .errors import ConfigurationError, DomainError, StreamOrderError

# Tags, and the reach of a counter's window, lie strictly between -2^62 and 2^62 ps,
# so a tag plus a reach, or the difference of two tags, stays in int64.
TAG_LIMIT_PS = 2**62

type_hints = cache(typing.get_type_hints)  # per model class; each YAML build walks every class


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


def _field_violation(meta, kind, value):
    if kind is bool:
        if not isinstance(value, bool):
            return f"expected a boolean (got {value!r})"
    elif kind in (int, float) or (kind == (float | None) and value is not None):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return f"expected a number (got {value!r})"
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite (got {value})"
    lo, hi, choices = meta.get("lo"), meta.get("hi"), meta.get("choices")
    if lo is not None and value < lo:
        return f"must be >= {lo} (got {value})"
    if hi is not None and value > hi:
        return f"must be <= {hi} (got {value})"
    if kind is int and not isinstance(value, numbers.Integral):
        return f"expected an integer (got {value!r})"
    if choices is not None and value not in choices:
        return f"must be one of {', '.join(map(str, choices))} (got {value!r})"
    return None


def violations(cls, values, prefix=""):
    """Every rule of dataclass ``cls`` broken by ``values`` (field name -> value).

    Each violation is ``"<prefix><field>: <reason>"``. Fields missing from
    ``values`` are not checked. A value must have its field's annotated type:
    a bool, or a real number that is not a bool (an integral one for an int
    field); float fields must be finite. A ``relation`` of the class runs
    when each of its fields is given and keeps its own rule.
    """
    found, passed, hints = [], dict(values), type_hints(cls)
    for f in fields(cls):
        if f.name in values:
            reason = _field_violation(f.metadata, hints[f.name], values[f.name])
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


def sorted_tags(**arrays):
    """The named arrays of time tags as int64, refusing any that breaks the tag contract.

    A tag array is 1-D with integer values (else a ConfigurationError names it), each
    strictly between -TAG_LIMIT_PS and TAG_LIMIT_PS (else a ConfigurationError names it
    and its first tag out of range), and sorted (else a StreamOrderError names it and
    its first tag out of order).
    """
    tags = []
    for name, values in arrays.items():
        a = np.asarray(values)
        if a.ndim != 1 or a.size and a.dtype.kind not in "iu":
            raise ConfigurationError(f"{name}: must be a 1-D array of integer tags "
                                     f"(got {a.ndim}-D {a.dtype})")
        far = np.flatnonzero((a >= TAG_LIMIT_PS) | (a <= -TAG_LIMIT_PS))
        if len(far):
            raise ConfigurationError(f"{name}: tags must lie strictly between -2^62 and 2^62 "
                                     f"ps (tag {far[0]} is {a[far[0]]})")
        a = a.astype(np.int64, copy=False)
        back = np.flatnonzero(a[1:] < a[:-1])
        if len(back):
            raise StreamOrderError(f"{name}: tags must be sorted (tag {back[0] + 1} is below "
                                   "the one before it)")
        tags.append(a)
    return tags


class Checked:
    """Mixin for model dataclasses: construction checks every field rule."""

    def __post_init__(self):
        found = violations(type(self), {f.name: getattr(self, f.name) for f in fields(self)})
        if found:
            raise DomainError(f"{type(self).__name__}: " + "; ".join(found))
