"""Field rules stated once on the models, checked alike by construction and by YAML."""

import dataclasses
import hashlib
import json
import math
import re
import typing
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st

from epstreak import cli
from epstreak.checks import Checked
from epstreak.config import load_config, validate_config
from epstreak.errors import ConfigurationError, DomainError
from epstreak.events import DetectorModel, EmitterSpecies, RunConfig, SampleModel
from epstreak.experiment import FTOptions, G2Options, HistogramOptions
from epstreak.fitting import FitOptions
from epstreak.spdc import CrystalSpec, FilterSpec, GridSpec, PumpSpec
from epstreak.twins import TwinsSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
  fit: {n_components: 2, seed: 3, fit_shift: true}
  ft: {apodization: none, dc_removal: false}
"""


def _artifact_digest(out, skip=()):
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    artifacts = {name: digest for name, digest in artifacts.items() if name not in skip}
    return hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest()


def test_ft_map_bytes_pinned(tmp_path):
    # sha256 over the manifest's artifact hashes (256 cube positions, cube
    # manifest, map.csv). The cube digest dates from the hand-written config
    # validation; map.csv and the full digest from calibrating against the
    # reference scan instead of the nominal delay slope.
    text = (CONFIGS / "two_dye_map.yaml").read_text()
    assert "duration_s: 0.5 " in text
    cfg = tmp_path / "short.yaml"
    cfg.write_text(text.replace("duration_s: 0.5 ", "duration_s: 0.02"))
    out = tmp_path / "ft"
    assert cli.main(["ft-map", "--out", str(out), "--config", str(cfg)]) == 0
    assert (_artifact_digest(out, skip=("map.csv",))
            == "2c150c318c62f1c34e8ca707dce9052f6b955d38b260ba357632ca62d4b1d6b8")
    assert (hashlib.sha256((out / "map.csv").read_bytes()).hexdigest()
            == "3a45d57cd91146364fff72dcc90118875ea3af06324e751849b859eef3d1a8aa")
    assert (_artifact_digest(out)
            == "3e4fc77c63964829d916539b4c96ae29f5b774c9e0f829681f737c7d1bc7372a")
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["delay_per_um_fs"] == pytest.approx(1.0, abs=1e-3)


def test_simulate_every_field_set_bytes_pinned(tmp_path):
    cfg = tmp_path / "full.yaml"
    cfg.write_text(FULL_CFG)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--out", str(out), "--config", str(cfg)]) == 0
    assert (hashlib.sha256((out / "events.bin").read_bytes()).hexdigest()
            == "aee06b7998194fc07241523cb67e39d6d10f0d60998c54885dc23a1e5bcaec5f")
    assert (hashlib.sha256((out / "events.bin.meta.json").read_bytes()).hexdigest()
            == "8e844cdac50687504cace1825434291cba1b8932aea8cd84352e4a5f6a40f956")


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


@pytest.mark.parametrize("name,text,digest", [
    ("defaults", "", "5bc53941e2a1702c5bfb828902ecd61e1c604474e528d1ba39ffb931222a0164"),
    ("hbt.yaml", None, "2e02b6ce1963040f8a08db3e48ad060ac50210d4841a2314d4beb1f925e74358"),
    ("two_dye_map.yaml", None,
     "ac7d2c419a02ce7da6c27e0fdd5c7a09014605eac6793927cee2e455a9cec523"),
    ("full", FULL_CFG, "742323b009ca61cd17b93983196ae81b35bb5ff5f9a3fe2d2e7bd391e964cb25"),
])
def test_configs_build_pinned_models(name, text, digest):
    # digests of the sorted model lines, taken from the hand-written validation
    # (its flat analysis fields renamed to the nested sections, and its
    # grid_*, herald_det, signal_det and n_twins_positions fields to the
    # source.grid, detectors and twins.n_positions paths of the YAML)
    cfg, found = validate_config((CONFIGS / name).read_text() if text is None else text)
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
        assert validate_config(path.read_text())[1] == [], path.name


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
    """(model, field, value) for one value past every bound and choice set, and
    for NaN and +-inf in every float field."""
    cases = []
    for cls in SECTION:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            meta = f.metadata
            if meta.get("lo") is not None:
                cases.append((cls, f.name, meta["lo"] - 1))
            if meta.get("hi") is not None:
                cases.append((cls, f.name, meta["hi"] + 1))
            if meta.get("choices") is not None:
                cases.append((cls, f.name, "bogus"))
            if hints[f.name] in (float, float | None):
                cases += [(cls, f.name, v) for v in (math.nan, math.inf, -math.inf)]
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
    def subclasses(cls):
        return {c for s in cls.__subclasses__() for c in {s} | subclasses(s)}
    assert subclasses(Checked) == set(SECTION)


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
