"""Experiment configuration: YAML with explicit units in every key name.

The YAML tree is the model tree: each YAML path is the attribute path of the
value it sets on ExperimentConfig (``source.grid.step_nm`` is
``cfg.source.grid.step_nm``, ``sample.species[0]`` an EmitterSpecies). The
one key that is not a field is ``detectors.<herald|signal>.preset``, the
DetectorModel that the section's other keys override. Types, defaults,
ranges and choice sets are stated once, on the model fields (see
``checks``); float fields must be finite.

One generic builder walks ExperimentConfig: it rejects unknown keys,
converts the YAML spellings of numbers to their fields' types and runs the
models' own rule collector with the YAML path as prefix.
The only rules stated here span sections: the topology against the sample
and TWINS sections, the Nyquist spacing of the TWINS scan for the sample's
shortest emission wavelength, and the run's wedge position inside the scan
range. ``validate_config`` returns either a fully-defaulted ExperimentConfig
or the complete list of violations, and never raises. ``override`` sets YAML
paths of a built config, as the command-line flags and the presets' derived
seeds and durations do.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import reduce
from pathlib import Path

import yaml

from .checks import type_hints, violations
from .errors import ConfigurationError
from .events import DETECTOR_PRESETS, TOPOLOGIES, DetectorModel, RunConfig, topology_violations
from .experiment import ExperimentConfig
from .twins import nyquist_violation

DEFAULT_DETECTOR_PRESET = "mpd"


def _coerce(value, kind):
    """``value`` in the type of a ``kind`` field where YAML spells it otherwise.

    A numeric string becomes a number (YAML 1.1 reads "5.0e5" as a string),
    an int a float for a float field (inf beyond the float range) and a whole
    float an int for an int field. Any other value is returned unchanged, for
    the models' rule collector to judge.
    """
    if kind not in (int, float, float | None) or isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return value
    if kind is int:
        return int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(value, int):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            return math.inf if value > 0 else -math.inf
    return value


def merge(base, update):
    """The YAML mapping ``base`` with ``update`` merged over it, section by section."""
    merged = dict(base)
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = merge(merged[key], value)
        merged[key] = value
    return merged


def _detector_preset(raw, path, errors):
    """The detector mapping without its ``preset`` key, and that preset's field values."""
    preset = raw.get("preset", DEFAULT_DETECTOR_PRESET)
    if not isinstance(preset, str) or preset not in DETECTOR_PRESETS:
        errors.append(f"{path}.preset: unknown preset {preset!r} "
                      f"(available: {sorted(DETECTOR_PRESETS)})")
        preset = DEFAULT_DETECTOR_PRESET  # so the other fields are still checked
    return {k: v for k, v in raw.items() if k != "preset"}, vars(DETECTOR_PRESETS[preset])


def _values(cls, raw, path, errors, base=None):
    """The fields of ``cls`` that build from the YAML mapping ``raw``, by name.

    Keys are the field names of ``cls``; a key left out takes its value from
    ``base`` (field name -> value), else the field's default. A dataclass
    field is built from its sub-mapping, an ``X | None`` one is None when
    left out, and a tuple of dataclasses comes from a nonempty list. A field
    marked ``yaml=False`` is not a key. Violations are appended to
    ``errors`` and their fields left out; None when ``raw`` is no mapping.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping")
        return None
    base = base or {}
    if cls is DetectorModel:
        raw, base = _detector_preset(raw, path, errors)
    prefix = f"{path}." if path else ""
    hints = type_hints(cls)
    keys = [f.name for f in fields(cls) if f.metadata.get("yaml", True)]
    found = [f"{prefix}{key}: unknown key" for key in raw if key not in keys]
    values = {}
    for f in fields(cls):
        kind, where, n_found = hints[f.name], prefix + f.name, len(found)
        args, value = typing.get_args(kind), raw.get(f.name)
        if is_dataclass(kind):
            value = _build(kind, value, where, found)
        elif typing.get_origin(kind) is tuple:
            if isinstance(value, list) and value:
                value = tuple(_build(args[0], item, f"{where}[{i}]", found)
                              for i, item in enumerate(value))
            else:
                found.append(f"{where}: expected a nonempty list")
        elif args and is_dataclass(args[0]):  # an optional section
            value = None if value is None else _build(args[0], value, where, found)
        elif f.name in raw and f.name in keys:
            value = _coerce(value, kind)
        else:
            value = base.get(f.name, f.default)
        if value is not MISSING and len(found) == n_found:
            values[f.name] = value
    found += violations(cls, values, prefix)
    errors += found
    return values


def _build(cls, raw, path, errors):
    """``cls`` from the YAML mapping ``raw``, or None after appending its violations."""
    n_errors = len(errors)
    values = _values(cls, raw, path, errors)
    return None if len(errors) > n_errors else cls(**values)


def validate_config(text_or_dict):
    """Parse and validate YAML text or a parsed mapping; never raises.

    Returns (ExperimentConfig, []) or (None, every violation, sorted).
    """
    if isinstance(text_or_dict, dict):
        data = text_or_dict
    else:
        try:
            data = yaml.safe_load(text_or_dict) or {}
        except yaml.YAMLError as exc:
            return None, [f"<file>: YAML parse error: {exc}"]
        if not isinstance(data, dict):
            return None, ["<file>: top level must be a mapping"]

    errors = []
    sections = _values(ExperimentConfig, data, "", errors, {"raw": data})
    # the cross-section rules, on every section that built
    sample, twins, run = (sections.get(name) for name in ("sample", "twins", "run"))
    run_raw = data.get("run") if isinstance(data.get("run"), dict) else {}
    topology = run_raw.get("topology", RunConfig.topology)
    if topology in TOPOLOGIES:
        errors += topology_violations(topology, data.get("sample") is not None,
                                      data.get("twins") is not None)
    if twins is not None and sample is not None:
        spacing = (twins.position_max_um - twins.position_min_um) / (twins.n_positions - 1)
        reason = nyquist_violation(spacing, sample.min_emission_nm(), twins)
        if reason:
            errors.append(f"twins.n_positions: {reason}")
    if twins is not None and run is not None and run.twins_position_um is not None:
        x, lo, hi = run.twins_position_um, twins.position_min_um, twins.position_max_um
        if not lo <= x <= hi:
            errors.append(f"run.twins_position_um: must lie in the scan range "
                          f"[{lo:g}, {hi:g}] um of the twins section (got {x:g})")

    if errors:
        return None, sorted(set(errors))
    return ExperimentConfig(**sections), []


def load_config(path=None) -> ExperimentConfig:
    """Load a YAML config file, or the defaults when ``path`` is None.

    Raises ConfigurationError on any violation.
    """
    if path is None:
        return validate_config({})[0]
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: "
                                 f"{getattr(exc, 'strerror', None) or exc}") from None
    cfg, found = validate_config(text)
    if found:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(found))
    return cfg


def override(cfg, values):
    """``cfg`` with ``values`` (dotted YAML path -> value; None sets nothing) merged into its echo.

    The merged echo ``cfg.raw`` is built again, so the echo of the config
    returned reproduces its run without the overrides. A value the models
    reject raises ConfigurationError naming its YAML path.
    """
    update = {}
    for path, value in values.items():
        if value is not None:
            *parents, key = path.split(".")
            reduce(lambda node, part: node.setdefault(part, {}), parents, update)[key] = value
    if not update:
        return cfg
    cfg, found = validate_config(merge(cfg.raw, update))
    if found:
        raise ConfigurationError("command-line override: " + "; ".join(found))
    return cfg
