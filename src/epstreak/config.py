"""Experiment configuration: YAML with explicit units in every key name.

Each YAML section maps onto the model dataclass that owns it, and its leaf
keys are that dataclass's field names: ``source.pump`` is a PumpSpec,
``detectors.signal`` a DetectorModel on top of its preset, ``run`` a
RunConfig, ``analysis.histogram`` a HistogramOptions, and so on. Defaults,
ranges and choice sets are stated once, on those fields (see ``checks``);
float fields must be finite.

This module parses YAML, rejects unknown keys and coerces types, then runs
the models' own rule collector with the YAML path as prefix. The only rules
it states itself span sections: the topology against the sample and TWINS
sections, the Nyquist spacing of the TWINS scan for the sample's shortest
emission wavelength, and the run's wedge position inside the TWINS scan
range. ``validate_config`` returns either a fully-defaulted
ExperimentConfig or the complete list of violations, and never raises.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import yaml

from .checks import violations
from .errors import ConfigurationError
from .events import (DETECTOR_PRESETS, TOPOLOGIES, DetectorModel, EmitterSpecies,
                     RunConfig, SampleModel, topology_violations)
from .experiment import AnalysisOptions, ExperimentConfig
from .spdc import SourceModel
from .twins import TwinsSpec, nyquist_violation

SECTIONS = ("source", "sample", "detectors", "twins", "run", "analysis")
DEFAULT_DETECTOR_PRESET = "mpd"


def _number(value, path, errors, integer=False):
    """value as an int or float, or None after appending why it is not one."""
    if isinstance(value, str):
        try:
            value = float(value)  # YAML 1.1 reads "5.0e5" as a string
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{path}: expected a number")
    elif integer and isinstance(value, float) and not value.is_integer():
        errors.append(f"{path}: expected an integer")
    else:
        try:
            return int(value) if integer else float(value)
        except OverflowError:  # an integer beyond the float range
            errors.append(f"{path}: must be finite")
    return None


def _coerce(value, kind, path, errors):
    if kind is bool:
        if not isinstance(value, bool):
            errors.append(f"{path}: expected a boolean")
        return value
    if kind is int:
        return _number(value, path, errors, integer=True)
    if kind is float or (kind == (float | None) and value is not None):
        return _number(value, path, errors)
    return value  # a string or None: the model's choices judge it


def _build(cls, raw, path, errors, base=None):
    """``cls`` from the YAML mapping ``raw``, or None after appending its violations.

    Keys are the field names of ``cls``. A key left out takes its value from
    ``base`` (field name -> value), else the field's default; a field typed
    as a dataclass is built from its own sub-mapping.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping")
        return None
    base = base or {}
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    found = [f"{path}.{key}: unknown key" for key in raw if key not in names]
    values = {}
    for f in fields(cls):
        kind, where, n_found = hints[f.name], f"{path}.{f.name}", len(found)
        if is_dataclass(kind):
            value = _build(kind, raw.get(f.name), where, found)
        elif f.name in raw:
            value = _coerce(raw[f.name], kind, where, found)
        else:
            value = base.get(f.name, f.default)
        if value is not MISSING and len(found) == n_found:
            values[f.name] = value
    found += violations(cls, values, f"{path}.")
    errors += found
    return None if found or len(values) < len(names) else cls(**values)


def _source(raw, errors):
    """SourceModel from the source section; its grid mapping holds the grid_* fields."""
    if isinstance(raw, dict):
        grid = {} if raw.get("grid") is None else raw["grid"]
        if not isinstance(grid, dict):
            errors.append("source.grid: expected a mapping")
            return None
        errors += [f"source.{key}: unknown key" for key in raw if str(key).startswith("grid_")]
        raw = {**{k: v for k, v in raw.items() if k != "grid"},
               **{f"grid_{k}": v for k, v in grid.items()}}
    found = []
    source = _build(SourceModel, raw, "source", found)
    errors += [e.replace("source.grid_", "source.grid.") for e in found]
    return source


def _sample(raw, errors):
    if not isinstance(raw, dict):
        errors.append("sample: expected a mapping")
        return None
    species_raw = raw.get("species")
    base = {}
    if not isinstance(species_raw, list) or not species_raw:
        errors.append("sample.species: expected a nonempty list")
    else:
        found = []
        species = tuple(_build(EmitterSpecies, sp, f"sample.species[{i}]", found)
                        for i, sp in enumerate(species_raw))
        errors += found
        if not found:
            base["species"] = species
    return _build(SampleModel, {k: v for k, v in raw.items() if k != "species"},
                  "sample", errors, base)


def _detector(raw, path, errors):
    """DetectorModel: the named preset, with any of its fields overridden."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping")
        return None
    preset = raw.get("preset", DEFAULT_DETECTOR_PRESET)
    if not isinstance(preset, str) or preset not in DETECTOR_PRESETS:
        errors.append(f"{path}.preset: unknown preset {preset!r} "
                      f"(available: {sorted(DETECTOR_PRESETS)})")
        preset = DEFAULT_DETECTOR_PRESET  # so the other fields are still checked
    return _build(DetectorModel, {k: v for k, v in raw.items() if k != "preset"}, path,
                  errors, vars(DETECTOR_PRESETS[preset]))


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

    errors = [f"{key}: unknown key" for key in data if key not in SECTIONS]
    source = _source(data.get("source"), errors)
    sample = _sample(data["sample"], errors) if data.get("sample") is not None else None

    detectors = data.get("detectors") or {}
    if not isinstance(detectors, dict):
        errors.append("detectors: expected a mapping")
        detectors = {}
    errors += [f"detectors.{key}: unknown key" for key in detectors
               if key not in ("herald", "signal")]
    herald_det = _detector(detectors.get("herald"), "detectors.herald", errors)
    signal_det = _detector(detectors.get("signal"), "detectors.signal", errors)

    twins, n_positions = None, ExperimentConfig.n_twins_positions
    if data.get("twins") is not None:
        raw = data["twins"]
        if isinstance(raw, dict) and "n_positions" in raw:  # the scan's, not TwinsSpec's
            found = []
            n_positions = _number(raw["n_positions"], "twins.n_positions", found, integer=True)
            found = found or violations(ExperimentConfig, {"n_twins_positions": n_positions},
                                        "twins.")
            errors += [e.replace("n_twins_positions", "n_positions") for e in found]
            n_positions = None if found else n_positions
            raw = {k: v for k, v in raw.items() if k != "n_positions"}
        twins = _build(TwinsSpec, raw, "twins", errors)

    run = _build(RunConfig, data.get("run"), "run", errors)
    analysis = _build(AnalysisOptions, data.get("analysis"), "analysis", errors)

    run_raw = data.get("run") if isinstance(data.get("run"), dict) else {}
    topology = run_raw.get("topology", RunConfig.topology)
    if topology in TOPOLOGIES:
        errors += topology_violations(topology, data.get("sample") is not None,
                                      data.get("twins") is not None)
    if twins is not None and sample is not None and n_positions is not None:
        spacing = (twins.position_max_um - twins.position_min_um) / (n_positions - 1)
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
    return ExperimentConfig(source=source, sample=sample, herald_det=herald_det,
                            signal_det=signal_det, twins=twins, run=run,
                            analysis=analysis, n_twins_positions=n_positions,
                            raw=data), []


def load_config(path) -> ExperimentConfig:
    """Load a YAML config file, raising ConfigurationError on any violation."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: "
                                 f"{getattr(exc, 'strerror', None) or exc}") from None
    cfg, found = validate_config(text)
    if found:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(found))
    return cfg
