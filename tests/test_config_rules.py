"""Field rules stated once on the models, checked alike by construction and by YAML."""

import dataclasses
import hashlib
import json
import math
import re
import tomllib
import typing
from fnmatch import fnmatch
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st

from epstreak import cli
from epstreak.checks import Checked
from epstreak.config import load_config, validate_config
from epstreak.errors import ConfigurationError, DomainError
from epstreak.events import DetectorModel, EmitterSpecies, RunConfig, SampleModel
from epstreak.fitting import FitOptions
from epstreak.presets import CONFIGS, PRESETS
from epstreak.spdc import CrystalSpec, FilterSpec, GridSpec, PumpSpec
from epstreak.tcspc import G2Options, Histogram, HistogramOptions
from epstreak.twins import FTOptions, TwinsSpec

from conftest import HBT_YAML, TWO_DYE_MAP_YAML


# every section and every detector and species field set to a non-default value
FULL_CFG = """
source:
  pump: {wavelength_nm: 414.46, pair_rate_hz: 3.0e5}
  crystal: {poling_period_um: 3.7, length_mm: 0.3, temperature_C: 60.0, sellmeier_id: ktp-z}
  herald_filter: {center_nm: 858.0, fwhm_nm: 12.0, shape: tophat}
  grid: {min_nm: 720.0, max_nm: 980.0, step_nm: 0.1}
sample:
  absorption_prob: 0.8
  species:
    - {weight: 2.0, lifetime_ns: 1.3, emission_center_nm: 820.0, emission_fwhm_nm: 35.0, quantum_yield: 0.9}
    - {weight: 0.5, lifetime_ns: 0.6, emission_center_nm: 905.0, emission_fwhm_nm: 30.0, quantum_yield: 0.7}
detectors:
  herald: {preset: excelitas, efficiency: 0.5, jitter_fwhm_ps: 300.0, dead_time_ns: 30.0, dark_rate_hz: 1000.0}
  signal: {preset: ideal, efficiency: 0.7, jitter_fwhm_ps: 150.0, dead_time_ns: 10.0, dark_rate_hz: 200.0}
twins:
  delay_per_um_fs: 0.8
  position_min_um: 10.0
  position_max_um: 300.0
  n_positions: 200
  visibility: 0.85
  insertion_loss: 0.6
  x_zero_um: 150.0
run:
  duration_s: 0.05
  seed: 5
  topology: fluorescence
  twins_position_um: 123.4
analysis:
  histogram: {bin_width_ps: 8, window_ps: 16000, t0_ps: -1000, mode: all}
  g2: {coincidence_window_ps: 500, delay_min_ps: -20000, delay_max_ps: 20000, delay_step_ps: 500}
  fit: {n_components: 2, fit_shift: true}
  ft: {apodization: none, dc_removal: false}
"""


def _artifact_digest(out, skip=()):
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    artifacts = {name: digest for name, digest in artifacts.items() if name not in skip}
    return hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest()


def test_ft_map_bytes_pinned(tmp_path):
    # sha256 over the manifest's artifact hashes (256 cube positions, cube
    # manifest, map.csv). map.csv dates from refining the calibrated delay
    # slope by golden-section search, which moved the slope by ~4e-9 relative
    # and so the 4th decimal of some wavelengths; the cube digest dates from
    # the cube manifest recording the histogram mode.
    text = TWO_DYE_MAP_YAML
    assert "duration_s: 0.5 " in text
    cfg = tmp_path / "short.yaml"
    cfg.write_text(text.replace("duration_s: 0.5 ", "duration_s: 0.02"))
    out = tmp_path / "ft"
    assert cli.main(["ft-map", "--out", str(out), "--config", str(cfg)]) == 0
    assert (_artifact_digest(out, skip=("map.csv",))
            == "b163a6ea9837b0dc5592474bcb73fab8a58e8401267c072ed1b7f6a59001a93d")
    assert (hashlib.sha256((out / "map.csv").read_bytes()).hexdigest()
            == "2995841d9ca36d82568b4d1b89cc4c20c82287333ec0e0b273ccee9e244a14cd")
    assert (_artifact_digest(out)
            == "1af5c15bdaf43eef972767e57d6751a32b75a631150fa654257d4dcafbaf36df")
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["delay_per_um_fs"] == pytest.approx(1.0, abs=1e-3)


def test_simulate_every_field_set_bytes_pinned(tmp_path):
    # the sidecar's digest dates from the config echo losing analysis.fit.seed
    cfg = tmp_path / "full.yaml"
    cfg.write_text(FULL_CFG)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--out", str(out), "--config", str(cfg)]) == 0
    assert (hashlib.sha256((out / "events.bin").read_bytes()).hexdigest()
            == "aee06b7998194fc07241523cb67e39d6d10f0d60998c54885dc23a1e5bcaec5f")
    assert (hashlib.sha256((out / "events.bin.meta.json").read_bytes()).hexdigest()
            == "2948e3ebc6b021464ef552bfc38226fa5e4427a855cff17ead21f43d421ddc80")


def _leaves(node, path=""):
    """{dotted path: value} of every leaf of a config (not its YAML echo) or a YAML tree."""
    if dataclasses.is_dataclass(node):
        node = {f.name: getattr(node, f.name) for f in dataclasses.fields(node) if f.name != "raw"}
    if isinstance(node, (list, tuple)):
        items = [(f"{path}[{i}]", child) for i, child in enumerate(node)]
    elif isinstance(node, dict):
        items = [(f"{path}.{key}" if path else key, child) for key, child in node.items()]
    else:
        return {path: node}
    return {k: v for where, child in items for k, v in _leaves(child, where).items()}


def _model_lines(cfg):
    """'path type repr' for every leaf value of a config, so types are pinned too."""
    return [f"{path} {type(value).__name__} {value!r}" for path, value in _leaves(cfg).items()]


# (name, config text or None for the inline fixture, digest of its model lines)
PINNED_MODELS = [
    ("defaults", "", "917d5b8812392492e4628e3b43b58d6b4b4fb888ab31cedf22825029f5cbef76"),
    ("hbt.yaml", None, "299829cbf8b15822efde4d6589e641a58bdae932d6b51efe3218a0a3460ce85b"),
    ("two_dye_map.yaml", None,
     "4b47fa45180cfd26470d2d726e24ca79faefcb30dd686d993f5f8fa55e742bb1"),
    ("full", FULL_CFG, "96e0ca5a4c7be65582c04acdc6236f427dc37d29b2a115589020ea70ecee95be"),
]


@pytest.mark.parametrize("name,text,digest", PINNED_MODELS, ids=[c[0] for c in PINNED_MODELS])
def test_configs_build_pinned_models(name, text, digest):
    # digests of the sorted model lines, taken from the hand-written validation
    # (its flat analysis fields renamed to the nested sections, and its
    # grid_*, herald_det, signal_det and n_twins_positions fields to the
    # source.grid, detectors and twins.n_positions paths of the YAML), then
    # retaken when the analysis.fit.seed line went with the fit's seed
    inline = {"hbt.yaml": HBT_YAML, "two_dye_map.yaml": TWO_DYE_MAP_YAML}
    cfg, found = validate_config(inline[name] if text is None else text)
    assert found == []
    lines = "\n".join(sorted(_model_lines(cfg)))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest, lines


def test_model_tree_is_the_yaml_tree():
    # every YAML path of FULL_CFG is the attribute path of the model value it
    # sets, and every model leaf has its YAML key; the detector preset is
    # the one key that is not a field
    cfg, found = validate_config(FULL_CFG)
    assert found == []
    model = _leaves(cfg)
    yaml_tree = {path: value for path, value in _leaves(yaml.safe_load(FULL_CFG)).items()
                 if not re.fullmatch(r"detectors\.\w+\.preset", path)}
    assert set(model) == set(yaml_tree)
    for path, value in yaml_tree.items():
        if isinstance(value, str) and isinstance(model[path], float):
            value = float(value)  # YAML 1.1 reads "3.0e5" as a string
        assert model[path] == value, path


def test_every_shipped_config_is_valid():
    shipped = sorted(CONFIGS.glob("*.yaml"))
    assert shipped
    for path in shipped:
        cfg, found = validate_config(path.read_text())
        assert found == [], path.name
        # every number reads back with its field's type (YAML 1.1 reads "2.0e5" as a
        # string), so a preset's config echo holds the types of the model values
        model = _leaves(cfg)
        for where, value in _leaves(cfg.raw).items():
            if not re.fullmatch(r"detectors\.\w+\.preset", where):
                assert type(value) is type(model[where]), (path.name, where, value)


def test_shipped_configs_are_package_data_and_each_is_run_by_a_preset():
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["epstreak"]
    shipped = {path.name for path in CONFIGS.glob("*.yaml")}
    assert all(any(fnmatch(f"configs/{name}", p) for p in patterns) for name in shipped)
    named = {f"{file}.yaml" for _, files in PRESETS.values() for file in files}
    assert named == shipped  # every named file exists and no shipped file is unused


# YAML section of each model; a model missing here fails every test below
SECTION = {
    PumpSpec: "source.pump", CrystalSpec: "source.crystal",
    FilterSpec: "source.herald_filter", GridSpec: "source.grid",
    EmitterSpecies: "sample.species[0]", SampleModel: "sample",
    DetectorModel: "detectors.signal", TwinsSpec: "twins", RunConfig: "run",
    HistogramOptions: "analysis.histogram", G2Options: "analysis.g2",
    FitOptions: "analysis.fit", FTOptions: "analysis.ft",
}


def _valid_kwargs(cls):
    return {SampleModel: dict(species=(EmitterSpecies(),))}.get(cls, {})


def _bad_values():
    """(model, field, value) for one value past every bound and choice set, for
    NaN and +-inf in every float field, and for one value of the wrong type in
    every scalar field: 1.5 for an int, "no" for a bool, True and "x" for a number."""
    cases = []
    for cls in SECTION:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            meta, kind = f.metadata, hints[f.name]
            if meta.get("lo") is not None:
                cases.append((cls, f.name, meta["lo"] - 1))
            if meta.get("hi") is not None:
                cases.append((cls, f.name, meta["hi"] + 1))
            if meta.get("choices") is not None:
                cases.append((cls, f.name, "bogus"))
            if kind in (float, float | None):
                cases += [(cls, f.name, v) for v in (math.nan, math.inf, -math.inf)]
            wrong = {bool: ("no",), int: (1.5, True, "x"), float: (True, "x"),
                     float | None: (True, "x")}.get(kind, ())
            cases += [(cls, f.name, v) for v in wrong]
    return cases


def _yaml_with(section, key, value):
    if section == "sample.species[0]":
        return {"sample": {"species": [{key: value}]}}
    data = node = {}
    *parents, last = section.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = {key: value}
    return data


def test_every_checked_model_has_a_section():
    # but Histogram, which is data rather than configuration; its rules are
    # pinned by test_tcspc.py::test_histogram_refuses_bad_fields
    def subclasses(cls):
        return {c for s in cls.__subclasses__() for c in {s} | subclasses(s)}
    assert subclasses(Checked) == set(SECTION) | {Histogram}


def test_every_checked_field_has_a_checked_type():
    # the collector checks the type of a bool, int, float or float | None
    # field, a str field holds one of its choices, and a nested model or a
    # tuple of models checks itself; a field of any other type goes unchecked
    for cls in SECTION:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = hints[f.name]
            assert (kind in (bool, int, float, float | None)
                    or (kind is str and f.metadata.get("choices") is not None)
                    or dataclasses.is_dataclass(kind)
                    or (typing.get_origin(kind) is tuple
                        and dataclasses.is_dataclass(typing.get_args(kind)[0]))
                    ), f"{cls.__name__}.{f.name}: {kind}"


@pytest.mark.parametrize("cls,name,value", _bad_values(),
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_bound_rejected_by_model_and_by_yaml(cls, name, value):
    with pytest.raises(DomainError, match=f"{name}: "):
        cls(**{**_valid_kwargs(cls), name: value})
    path = f"{SECTION[cls]}.{name}"
    cfg, found = validate_config(_yaml_with(SECTION[cls], name, value))
    assert cfg is None
    assert any(v.startswith(f"{path}: ") for v in found), found


@pytest.mark.parametrize("data,path,build", [
    ({"source": {"crystal": {"temperature_C": 500.0}}}, "source.crystal.temperature_C",
     lambda: CrystalSpec(temperature_C=500.0)),
    ({"source": {"grid": {"min_nm": 900.0, "max_nm": 800.0}}}, "source.grid.max_nm",
     lambda: GridSpec(900.0, 800.0)),
    ({"twins": {"delay_per_um_fs": 0.0}}, "twins.delay_per_um_fs",
     lambda: TwinsSpec(delay_per_um_fs=0.0)),
    ({"twins": {"position_min_um": 5.0, "position_max_um": 5.0}}, "twins.position_max_um",
     lambda: TwinsSpec(position_min_um=5.0, position_max_um=5.0)),
    ({"sample": {"species": [{"weight": 0.0}]}}, "sample.species",
     lambda: SampleModel((EmitterSpecies(weight=0.0),))),
    ({"analysis": {"histogram": {"bin_width_ps": 3, "window_ps": 100}}},
     "analysis.histogram.window_ps", lambda: HistogramOptions(bin_width_ps=3, window_ps=100)),
    ({"analysis": {"histogram": {"t0_ps": 2**63 - 1}}}, "analysis.histogram.t0_ps",
     lambda: HistogramOptions(t0_ps=2**63 - 1)),
])
def test_relation_rejected_by_model_and_by_yaml(data, path, build):
    with pytest.raises(DomainError, match=path.rsplit(".", 1)[-1]):
        build()
    cfg, found = validate_config(data)
    assert cfg is None
    assert any(v.startswith(f"{path}: ") for v in found), found


@pytest.mark.parametrize("data,paths", [
    ({"detectors": {"signal": {"preset": "bogus", "efficiency": 2.0}}},
     ["detectors.signal.efficiency", "detectors.signal.preset"]),
    ({"source": {"pump": {"wavelength_nm": 0.0}, "grid": {"min_nm": 900.0, "max_nm": 800.0}}},
     ["source.grid.max_nm", "source.pump.wavelength_nm"]),
    ({"twins": {"visibility": 2.0, "position_min_um": 5.0, "position_max_um": 5.0}},
     ["twins.position_max_um", "twins.visibility", "twins"]),  # twins needs fluorescence
])
def test_every_violation_reported_together(data, paths):
    cfg, found = validate_config(data)
    assert cfg is None
    assert [v.split(": ")[0] for v in found] == paths, found


def test_relation_checked_beside_a_broken_field():
    with pytest.raises(DomainError, match="visibility: .*position_max_um: "):
        TwinsSpec(visibility=2.0, position_min_um=5.0, position_max_um=5.0)


NON_FINITE = [
    ("run: {duration_s: .nan}", "run.duration_s"),
    ("source: {pump: {pair_rate_hz: .inf}}", "source.pump.pair_rate_hz"),
    ("detectors: {signal: {efficiency: .nan}}", "detectors.signal.efficiency"),
]


@pytest.mark.parametrize("text,path", NON_FINITE)
def test_non_finite_value_is_a_violation(text, path):
    cfg, found = validate_config(text)
    assert cfg is None
    assert found == [f"{path}: must be finite (got {'inf' if 'inf' in text else 'nan'})"]


@pytest.mark.parametrize("text,path", NON_FINITE)
def test_non_finite_value_exits_2(tmp_path, capsys, text, path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text + "\n")
    assert cli.main(["simulate", "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
    assert path in capsys.readouterr().err


def test_missing_config_file_named(tmp_path, capsys):
    missing = tmp_path / "no_such_file.yaml"
    with pytest.raises(ConfigurationError, match="No such file"):
        load_config(missing)
    assert cli.main(["simulate", "--out", str(tmp_path / "o"),
                     "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "No such file" in err
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"run:\n  seed: \xff\n")
    assert cli.main(["simulate", "--out", str(tmp_path / "o"), "--config", str(binary)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config file {binary}" in err and "can't decode" in err


def test_load_config_takes_a_path_not_text():
    text = "run:\n  seed: 3\n" + "# padding\n" * 500  # over 4 KB
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        load_config(text)
    cfg, found = validate_config(text)
    assert found == [] and cfg.run.seed == 3


_KEYS = sorted({"source", "sample", "detectors", "twins", "run", "analysis", "pump",
                "crystal", "herald_filter", "grid", "species", "herald", "signal",
                "preset", "histogram", "g2", "fit", "ft", "n_positions", "min_nm"}
               | {f.name for cls in SECTION for f in dataclasses.fields(cls)})
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30), st.floats(),
                    st.sampled_from(["", "5.0e5", "nan", "ktp-z", "mpd", "hann", "irf",
                                     "fluorescence", "bogus"]))
_TREES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(_KEYS), inner, max_size=5)),
    max_leaves=20)


@given(st.dictionaries(st.sampled_from(_KEYS), _TREES, max_size=6))
def test_validate_config_never_raises(data):
    cfg, found = validate_config(data)
    assert (cfg is None) == bool(found)


@pytest.mark.parametrize("flag,value,field", [("--duration", "nan", "duration_s"),
                                              ("--seed", "-3", "seed")])
def test_bad_override_flag_exits_2(tmp_path, capsys, flag, value, field):
    assert cli.main(["simulate", "--out", str(tmp_path / "o"), flag, value]) == 2
    err = capsys.readouterr().err
    assert "command-line override" in err and field in err
