import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from epstreak import cli, eventfile
from epstreak.config import load_config, validate_config
from epstreak.errors import ConfigurationError
from epstreak.events import stream_warnings
from epstreak.eventfile import open_event_file, sidecar_path, write_events
from epstreak.fitting import DecayModel, convolve_model
from epstreak.tcspc import Histogram, read_histogram_csv, write_histogram_csv
from epstreak.units import FWHM_PER_SIGMA

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

HBT_CFG = """
run:
  topology: hbt
  duration_s: 0.05
  seed: 9
"""

FLUOR_CFG = """
run:
  topology: fluorescence
  duration_s: 0.05
  seed: 4
sample:
  species:
    - {weight: 1.0, lifetime_ns: 1.0, emission_center_nm: 850.0, emission_fwhm_nm: 40.0}
"""


def test_empty_config_gives_defaults():
    cfg, violations = validate_config("")
    assert violations == []
    assert cfg.source.pump.wavelength_nm == 413.0
    assert cfg.source.crystal.temperature_C == 56.0
    assert cfg.source.herald_filter.center_nm == 860.0
    assert cfg.sample is None
    assert cfg.detectors.herald.jitter_fwhm_ps == 184.0  # mpd preset
    assert cfg.run.topology == "irf"


def test_efficiency_bound_violation():
    _, violations = validate_config(
        "detectors:\n  signal:\n    efficiency: 1.2\n")
    assert any("detectors.signal.efficiency" in v and "bound [0,1]" in v.replace("0.0", "0").replace("1.0", "1")
               or "detectors.signal.efficiency" in v and "1" in v
               for v in violations)
    assert len(violations) == 1


def test_nyquist_violation_cites_required_spacing():
    text = FLUOR_CFG + """
twins:
  n_positions: 41
"""
    _, violations = validate_config(text)
    assert any("Nyquist" in v and "required spacing" in v for v in violations)


def test_g2_delay_range_must_not_fall(tmp_path, capsys):
    text = HBT_CFG + "analysis:\n  g2: {delay_min_ps: 1000, delay_max_ps: -1000}\n"
    _, violations = validate_config(text)
    assert violations == ["analysis.g2.delay_min_ps: must not exceed delay_max_ps"]
    cfg = _write_cfg(tmp_path, text)
    assert cli.main(["g2", "--out", str(tmp_path / "o"), "--config", cfg]) == 2
    assert "analysis.g2.delay_min_ps" in capsys.readouterr().err


@pytest.mark.parametrize("x", [-1.0, 320.5])
def test_twins_position_outside_scan_range(tmp_path, capsys, x):
    text = FLUOR_CFG.replace("  seed: 4\n", f"  seed: 4\n  twins_position_um: {x}\n") + (
        "twins: {position_min_um: 0.0, position_max_um: 320.0, n_positions: 256}\n")
    _, violations = validate_config(text)
    assert violations == [f"run.twins_position_um: must lie in the scan range [0, 320] um "
                          f"of the twins section (got {x:g})"]
    assert validate_config(text.replace(f"{x}", "320.0"))[1] == []
    cfg = _write_cfg(tmp_path, text)
    assert cli.main(["histogram", "--out", str(tmp_path / "o"), "--config", cfg]) == 2
    assert "run.twins_position_um" in capsys.readouterr().err


def test_all_violations_collected():
    text = """
run:
  duration_s: -1
  topology: bogus
detectors:
  signal:
    efficiency: 2.0
source:
  crystal:
    temperature_C: 500.0
"""
    _, violations = validate_config(text)
    assert len(violations) >= 4


def test_unknown_keys_rejected():
    _, violations = validate_config("run:\n  speed: 11\n")
    assert any("run.speed" in v and "unknown" in v for v in violations)
    _, violations = validate_config("flux_capacitor: 1\n")
    assert any("flux_capacitor" in v for v in violations)
    # ExperimentConfig.raw holds the YAML echo; it is a field but no key
    assert validate_config({"raw": {}}) == (None, ["raw: unknown key"])


def test_load_config_raises_with_all_violations(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("run:\n  duration_s: -1\n  seed: banana\n")
    with pytest.raises(ConfigurationError, match="duration_s"):
        load_config(p)


def _write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write_cfg(tmp_path, "run:\n  duration_s: -1\n", "bad.yaml")
    assert cli.main(["simulate", "--out", str(tmp_path / "o1"),
                     "--config", bad]) == 2
    # g2 demands the beam-splitter topology
    irf_cfg = _write_cfg(tmp_path, "run:\n  topology: irf\n  duration_s: 0.01\n")
    assert cli.main(["g2", "--out", str(tmp_path / "o2"),
                     "--config", irf_cfg]) == 2
    assert cli.main(["preset", "no-such-preset", "--out", str(tmp_path / "o3")]) == 2
    # runtime failure inside a module: fitting an all-zero histogram
    zeros = Histogram(4, 0, np.zeros(600, dtype=np.int64), 0)
    hp, ip = tmp_path / "zeros.csv", tmp_path / "irf.csv"
    write_histogram_csv(hp, zeros)
    irf = _gaussian_irf_hist()
    write_histogram_csv(ip, irf)
    assert cli.main(["fit", "--out", str(tmp_path / "o4"), "--hist", str(hp),
                     "--irf", str(ip), "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert "FitError" in err and "epstreak" in err


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, HBT_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--out", str(a), "--config", cfg]) == 0
    assert cli.main(["simulate", "--out", str(b), "--config", cfg]) == 0
    assert (a / "events.bin").read_bytes() == (b / "events.bin").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("timestamps"), mb.pop("timestamps")
    assert ma == mb


def test_histogram_rerun_and_manifest_tamper_detection(tmp_path):
    cfg = _write_cfg(tmp_path, FLUOR_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["histogram", "--out", str(a), "--config", cfg]) == 0
    assert cli.main(["histogram", "--out", str(b), "--config", cfg]) == 0
    assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    recorded = manifest["artifacts"]["histogram.csv"]
    on_disk = hashlib.sha256((a / "histogram.csv").read_bytes()).hexdigest()
    assert recorded == on_disk
    with open(a / "histogram.csv", "a") as fh:
        fh.write("999,999\n")
    tampered = hashlib.sha256((a / "histogram.csv").read_bytes()).hexdigest()
    assert tampered != recorded


def test_histogram_from_saved_events_matches_direct(tmp_path):
    cfg = _write_cfg(tmp_path, FLUOR_CFG)
    sim, direct, via = tmp_path / "sim", tmp_path / "direct", tmp_path / "via"
    assert cli.main(["simulate", "--out", str(sim), "--config", cfg]) == 0
    assert cli.main(["histogram", "--out", str(direct), "--config", cfg]) == 0
    assert cli.main(["histogram", "--out", str(via), "--config", cfg,
                     "--events", str(sim / "events.bin")]) == 0
    assert ((direct / "histogram.csv").read_bytes()
            == (via / "histogram.csv").read_bytes())


def test_g2_cli_bytes_pinned(tmp_path):
    # sha256 from the merged-stream g2 path; the per-channel path must
    # reproduce its g2.csv byte for byte
    cfg = Path(__file__).resolve().parent.parent / "configs" / "hbt.yaml"
    out = tmp_path / "g2"
    assert cli.main(["g2", "--out", str(out), "--config", str(cfg),
                     "--duration", "0.3"]) == 0
    assert (hashlib.sha256((out / "g2.csv").read_bytes()).hexdigest()
            == "64b1133f587d8af7eaec239adc639a4d9175c6fab7885eaa9ff28f7e12e683a7")


def test_histogram_truncated_event_file_exits_2(tmp_path, capsys):
    records = (np.array([0, 1, 0], dtype=np.uint8), np.array([10, 20, 30], dtype=np.int64))
    path = tmp_path / "events.bin"
    list(write_events(path, [records], {"n_channels": 2}))
    path.write_bytes(path.read_bytes()[:-4])
    assert cli.main(["histogram", "--out", str(tmp_path / "o"),
                     "--events", str(path)]) == 2
    assert "truncated event file" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda raw: b"NOPE" + raw[4:], "not an EPPS event file"),
    (lambda raw: raw[:4] + b"\x63" + raw[5:], "unsupported event-file version 99"),
    (lambda raw: raw[:6], "truncated event-file header"),
    (lambda raw: raw[:-4], "truncated event file: 23 record bytes"),
], ids=["magic", "version", "header", "records"])
def test_histogram_bad_event_file_stops_before_counting(tmp_path, capsys, monkeypatch,
                                                        edit, message):
    def counted(*args, **kwargs):
        raise AssertionError("counted a file that failed its checks")

    monkeypatch.setattr(cli.experiment, "histogram", counted)
    records = (np.array([0, 1, 0], dtype=np.uint8), np.array([10, 20, 30], dtype=np.int64))
    path = tmp_path / "events.bin"
    list(write_events(path, [records], {"n_channels": 2}))
    path.write_bytes(edit(path.read_bytes()))
    assert cli.main(["histogram", "--out", str(tmp_path / "o"),
                     "--events", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_histogram_missing_event_file_exits_2(tmp_path, capsys):
    path = tmp_path / "absent.bin"
    assert cli.main(["histogram", "--out", str(tmp_path / "o"), "--events", str(path)]) == 2
    assert f"cannot read event file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("channel, t_ps, n_channels, read_block, message", [
    ([0, 1, 0], [10, 30, 20], 2, None, "record 2: timestamp 20 ps is lower than the 30 ps"),
    ([0, 1, 0, 1, 0], [10, 20, 15, 40, 50], 2, 2,  # the step back opens the second block
     "record 2: timestamp 15 ps is lower than the 20 ps"),
    ([0, 7, 1], [10, 20, 30], 2, None, "record 1: channel 7 is not below the header's 2"),
    ([0, 1, 0], [10, 20, 2**63], 2, None,
     "record 2: timestamp 9223372036854775808 ps is 2^63 ps or more"),
    ([0, 0], [10, 20], 1, None, "1 channel(s), but a histogram needs channels 0 and 1"),
], ids=["backwards", "backwards-across-blocks", "channel", "overflow", "one-channel"])
def test_histogram_malformed_event_file_exits_2(tmp_path, capsys, monkeypatch, channel,
                                                t_ps, n_channels, read_block, message):
    if read_block:
        monkeypatch.setattr(eventfile, "READ_BLOCK", read_block)
    records = (np.array(channel, dtype=np.uint8),
               np.array(t_ps, dtype=np.uint64).view(np.int64))
    path = tmp_path / "events.bin"
    list(write_events(path, [records], {"n_channels": n_channels}))
    assert cli.main(["histogram", "--out", str(tmp_path / "o"),
                     "--events", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err, err


def test_simulate_empty_stream(tmp_path):
    cfg_path = _write_cfg(tmp_path, """
source: {pump: {pair_rate_hz: 0.0}}
detectors: {herald: {preset: ideal}, signal: {preset: ideal}}
run: {topology: hbt, duration_s: 0.01, seed: 3}
""")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--out", str(out), "--config", cfg_path]) == 0
    warning = "empty-stream: zero pair rate and zero dark rates"
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary == {"n_events": 0, "warnings": [warning]}
    cfg = load_config(cfg_path)
    dets = cfg.detectors
    assert stream_warnings(cfg.source, dets.herald, dets.signal, cfg.run) == [warning]
    n_channels, n_records, blocks = open_event_file(out / "events.bin")
    assert (n_channels, n_records, list(blocks)) == (3, 0, [])
    meta = json.loads(sidecar_path(out / "events.bin").read_text())
    assert meta == {"config": cfg.raw, "duration_s": 0.01, "n_channels": 3, "seed": 3,
                    "topology": "hbt", "warnings": [warning]}


def test_fit_header_only_histogram_exits_2(tmp_path, capsys):
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    hp.write_text("bin_left_ps,counts\n")
    write_histogram_csv(ip, _gaussian_irf_hist())
    assert cli.main(["fit", "--out", str(tmp_path / "o"), "--hist", str(hp),
                     "--irf", str(ip), "--n", "1"]) == 2
    assert "histogram has no bins" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["8,3,1", "8,many", "8,nan", "8,inf", "8,-3",
                                     "4,3", "2,3"])
def test_fit_malformed_histogram_row_exits_2(tmp_path, capsys, bad_row):
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    hp.write_text(f"bin_left_ps,counts\n0,5\n4,7\n{bad_row}\n12,2\n")
    write_histogram_csv(ip, _gaussian_irf_hist())
    assert cli.main(["fit", "--out", str(tmp_path / "o"), "--hist", str(hp),
                     "--irf", str(ip), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{hp}: line 4" in err and bad_row in err


@pytest.mark.parametrize("lefts", [(8, 4, 0), (0, 0, 0)])
def test_fit_bins_that_do_not_rise_exit_2(tmp_path, capsys, lefts):
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    hp.write_text("bin_left_ps,counts\n" + "".join(f"{left},5\n" for left in lefts))
    write_histogram_csv(ip, _gaussian_irf_hist())
    assert cli.main(["fit", "--out", str(tmp_path / "o"), "--hist", str(hp),
                     "--irf", str(ip), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{hp}: line 3" in err, err
    assert "bin_left_ps must rise" in err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read histogram file"),
    ("directory", "cannot read histogram file"),
    (b"bin_left_ps,counts\n0,5\n4,\xff\n", "cannot read histogram file"),
    (b"0,5\n4,6\n8,7\n12,8\n", "line 1: expected the header 'bin_left_ps,counts'"),
], ids=["missing", "directory", "not-utf8", "no-header"])
@pytest.mark.parametrize("flag", ["--hist", "--irf"])
def test_fit_unreadable_histogram_exits_2(tmp_path, capsys, flag, content, message):
    paths = {"--hist": tmp_path / "h.csv", "--irf": tmp_path / "irf.csv"}
    for path in paths.values():
        write_histogram_csv(path, _gaussian_irf_hist())
    bad = paths[flag]
    bad.unlink()
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    assert cli.main(["fit", "--out", str(tmp_path / "o"), "--hist", str(paths["--hist"]),
                     "--irf", str(paths["--irf"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err and str(bad) in err, err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_fit_bad_component_count_exits_2(tmp_path, capsys, n):
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    write_histogram_csv(hp, _gaussian_irf_hist())
    write_histogram_csv(ip, _gaussian_irf_hist())
    assert cli.main(["fit", "--out", str(tmp_path / "o"), "--hist", str(hp),
                     "--irf", str(ip), "--n", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: command-line override:"), err
    assert "n_components: must be >= 1" in err


def test_fit_malformed_irf_row_exits_2(tmp_path, capsys):
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    write_histogram_csv(hp, _gaussian_irf_hist())
    ip.write_text("bin_left_ps,counts\n0,5\n4,-inf\n8,7\n")
    assert cli.main(["fit", "--out", str(tmp_path / "o"), "--hist", str(hp),
                     "--irf", str(ip), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{ip}: line 3" in err, err
    assert "counts must be finite and >= 0" in err


def _gaussian_irf_hist(fwhm_ps=260.0, bin_width_ps=4, t0_ps=-1000, n_bins=3000):
    sigma = fwhm_ps / FWHM_PER_SIGMA
    t = t0_ps + (np.arange(n_bins) + 0.5) * bin_width_ps
    w = np.exp(-0.5 * (t / sigma) ** 2)
    counts = 1e6 * w / w.sum()
    return Histogram(bin_width_ps, t0_ps, counts, n_starts=1_000_000)


def test_fit_subcommand_recovers_generator(tmp_path, capsys):
    irf = _gaussian_irf_hist()
    mu = convolve_model(DecayModel([(40.0, 1.13)]), irf)
    hist = Histogram(4, irf.t0_ps, 2e6 * mu / mu.sum(), n_starts=2_000_000)
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    write_histogram_csv(hp, hist)
    write_histogram_csv(ip, irf)
    out = tmp_path / "fit"
    assert cli.main(["fit", "--out", str(out), "--hist", str(hp),
                     "--irf", str(ip), "--n", "1"]) == 0
    report = (out / "fit_report.txt").read_text()
    assert report == capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    (tau,) = manifest["summary"]["lifetimes_ns"]
    assert tau == pytest.approx(1.13, abs=1e-3)


def test_fit_manifest_records_diagnostics(tmp_path):
    irf = _gaussian_irf_hist()
    mu = convolve_model(DecayModel([(40.0, 1.13)]), irf)
    hist = Histogram(4, irf.t0_ps, 2e6 * mu / mu.sum(), n_starts=2_000_000)
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    write_histogram_csv(hp, hist)
    write_histogram_csv(ip, irf)
    runs = []
    for name in ("a", "b"):
        assert cli.main(["fit", "--out", str(tmp_path / name), "--hist", str(hp),
                         "--irf", str(ip), "--n", "1"]) == 0
        runs.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    diag = runs[0]["diagnostics"]
    assert set(runs[0]["summary"]) == {"lifetimes_ns", "reduced_chi2"}
    assert diag["converged"] is True
    assert 0 < diag["model_evaluations"] <= 140
    assert diag["fisher_condition"] >= 1.0
    assert diag["merged_from_components"] is None
    assert runs[1]["diagnostics"] == diag


def test_fit_seed_flag_sets_fit_seed(tmp_path):
    # a noisy two-component fit, so that the multistart seed can matter
    rng = np.random.default_rng(5)
    irf = _gaussian_irf_hist()
    mu = convolve_model(DecayModel([(30.0, 0.8), (10.0, 1.6)]), irf)
    hist = Histogram(4, irf.t0_ps, rng.poisson(2e4 * mu / mu.sum()), n_starts=20_000)
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    write_histogram_csv(hp, hist)
    write_histogram_csv(ip, irf)
    for seed in (5, 9):
        flag, by_config = tmp_path / f"flag{seed}", tmp_path / f"config{seed}"
        cfg = _write_cfg(tmp_path, f"analysis:\n  fit: {{seed: {seed}}}\n", f"fit{seed}.yaml")
        assert cli.main(["fit", "--out", str(flag), "--hist", str(hp), "--irf", str(ip),
                         "--n", "2", "--seed", str(seed)]) == 0
        assert cli.main(["fit", "--out", str(by_config), "--hist", str(hp), "--irf", str(ip),
                         "--n", "2", "--config", cfg]) == 0
        assert json.loads((flag / "manifest.json").read_text())["seed"] == seed
        assert ((flag / "fit_report.txt").read_text()
                == (by_config / "fit_report.txt").read_text())


def test_fit_negative_seed_flag_exits_2(tmp_path, capsys):
    hp = tmp_path / "irf.csv"
    write_histogram_csv(hp, _gaussian_irf_hist())
    assert cli.main(["fit", "--out", str(tmp_path / "o"), "--hist", str(hp), "--irf", str(hp),
                     "--seed", "-3"]) == 2
    assert "command-line override" in capsys.readouterr().err


def test_preset_manifest_echoes_configs(tmp_path):
    out = tmp_path / "p"
    assert cli.main(["preset", "fig2b-tuning", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"preset": "fig2b-tuning", "configs": {"tuning": {}},
                                  "seeds": {}}
    assert "configs" not in manifest["summary"] and "seeds" not in manifest["summary"]


def test_irf_subcommand_reports_fwhm(tmp_path):
    cfg = _write_cfg(tmp_path, "run:\n  duration_s: 1.0\n  seed: 3\n")
    out = tmp_path / "irf"
    assert cli.main(["irf", "--out", str(out), "--config", cfg]) == 0
    hist = read_histogram_csv(out / "irf.csv")
    # mpd/mpd pairing: two 184 ps responses in quadrature
    assert hist.fwhm_ps() == pytest.approx(np.hypot(184.0, 184.0), rel=0.05)
    assert "fwhm_ps" in (out / "irf_report.txt").read_text()


def test_irf_subcommand_on_twins_config(tmp_path):
    # the response is measured without the sample and without the interferometer
    cfg = Path(__file__).resolve().parent.parent / "configs" / "two_dye_map.yaml"
    out = tmp_path / "irf"
    assert cli.main(["irf", "--out", str(out), "--config", str(cfg),
                     "--duration", "0.01"]) == 0
    assert read_histogram_csv(out / "irf.csv").counts.sum() > 0


def test_ft_map_reference_scan_needs_nyquist_at_its_line(tmp_path, capsys):
    # 1.52 um spacing resolves a sample down to 960 nm but not the 850 nm
    # reference line the calibration scans
    cfg = _write_cfg(tmp_path, """
run: {topology: fluorescence, duration_s: 0.01}
sample:
  species: [{lifetime_ns: 1.0, emission_center_nm: 1000.0, emission_fwhm_nm: 40.0}]
twins: {position_min_um: 0.0, position_max_um: 320.0, n_positions: 211}
""")
    assert cli.main(["ft-map", "--out", str(tmp_path / "o"), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "violates Nyquist" in err and "849.5 nm" in err


@pytest.mark.parametrize("name,seed", [("fig2c-g2", "-1"), ("fig2b-tuning", "-5")])
def test_negative_preset_seed_exits_2(tmp_path, capsys, name, seed):
    out = tmp_path / "p"
    assert cli.main(["preset", name, "--out", str(out), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"got {seed}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate"], ["histogram"], ["g2"], ["irf"], ["ft-map"], ["tuning-curve"],
    ["fit", "--hist", "h.csv", "--irf", "irf.csv"], ["preset", "fig2c-g2"],
], ids=lambda argv: argv[0])
def test_out_not_a_directory_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: --out {out}: {blocker} is not a directory\n"


def test_tuning_curve_subcommand(tmp_path):
    out = tmp_path / "tc"
    assert cli.main(["tuning-curve", "--out", str(out), "--tmin", "40",
                     "--tmax", "200", "--step", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["coverage_min_nm"] <= 685
    assert manifest["summary"]["coverage_max_nm"] >= 1085
    rows = (out / "tuning_curve.csv").read_text().strip().splitlines()
    assert rows[0].startswith("temperature_C")
    assert len(rows) == 34


@pytest.mark.parametrize("flags", ["--step 0", "--step -2", "--step nan", "--step inf",
                                   "--tmin nan", "--tmax inf", "--tmin 300 --tmax 400",
                                   "--tmin -300", "--tmax 400"])
def test_tuning_curve_bad_flags_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "tc"
    assert cli.main(["tuning-curve", "--out", str(out), *flags.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: command-line override:"), err
    assert flags.split()[0] in err
    assert not (out / "tuning_curve.csv").exists()


def test_seed_override_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path, HBT_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--out", str(a), "--config", cfg,
                     "--seed", "1"]) == 0
    assert cli.main(["simulate", "--out", str(b), "--config", cfg,
                     "--seed", "2"]) == 0
    assert (a / "events.bin").read_bytes() != (b / "events.bin").read_bytes()


def test_ft_map_bad_epps_threads_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EPPS_THREADS", "abc")
    cfg = Path(__file__).resolve().parent.parent / "configs" / "two_dye_map.yaml"
    assert cli.main(["ft-map", "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2
    assert "EPPS_THREADS" in capsys.readouterr().err


SMALL_MAP_CFG = """
run: {topology: fluorescence, duration_s: 0.005, seed: 11}
sample:
  species: [{lifetime_ns: 1.0, emission_center_nm: 880.0, emission_fwhm_nm: 30.0}]
detectors: {herald: {preset: ideal}, signal: {preset: ideal}}
twins: {position_min_um: 0.0, position_max_um: 80.0, n_positions: 64, x_zero_um: 40.0}
analysis: {histogram: {bin_width_ps: 16, window_ps: 6400, t0_ps: 0}}
"""


def _fit_inputs(tmp_path):
    """A noisy two-component decay and its response, as --hist and --irf arguments."""
    irf = _gaussian_irf_hist()
    mu = convolve_model(DecayModel([(30.0, 0.8), (10.0, 1.6)]), irf)
    hist = Histogram(4, irf.t0_ps, np.random.default_rng(5).poisson(2e4 * mu / mu.sum()),
                     n_starts=20_000)
    hp, ip = tmp_path / "h.csv", tmp_path / "irf.csv"
    write_histogram_csv(hp, hist)
    write_histogram_csv(ip, irf)
    return ["--hist", str(hp), "--irf", str(ip)]


# (subcommand, config, override flags) for every subcommand that takes a flag
ECHO_CASES = [
    ("simulate", HBT_CFG, ["--seed", "2", "--duration", "0.01"]),
    ("histogram", FLUOR_CFG, ["--seed", "7", "--duration", "0.02"]),
    ("g2", (CONFIGS / "hbt.yaml").read_text(), ["--seed", "5", "--duration", "0.3"]),
    ("irf", None, ["--duration", "0.01", "--seed", "3"]),
    ("ft-map", SMALL_MAP_CFG, ["--seed", "4"]),
    ("fit", None, ["--n", "2", "--seed", "9"]),
    ("tuning-curve", None, ["--seed", "3"]),
]


@pytest.mark.parametrize("command,config,flags", ECHO_CASES, ids=[c[0] for c in ECHO_CASES])
def test_manifest_echo_reruns_without_the_flags(tmp_path, command, config, flags):
    args = [command]
    if command == "fit":
        args += _fit_inputs(tmp_path)
    if command == "tuning-curve":
        args += ["--tmin", "40", "--tmax", "60", "--step", "10"]
    given = [] if config is None else ["--config", _write_cfg(tmp_path, config)]
    flagged, echoed = tmp_path / "flagged", tmp_path / "echoed"
    assert cli.main([*args, *given, *flags, "--out", str(flagged)]) == 0
    first = json.loads((flagged / "manifest.json").read_text())
    echo = _write_cfg(tmp_path, json.dumps(first["config"]), "echo.yaml")
    assert cli.main([*args, "--config", echo, "--out", str(echoed)]) == 0
    second = json.loads((echoed / "manifest.json").read_text())
    assert second["artifacts"] == first["artifacts"]
    assert (second["config"], second["seed"]) == (first["config"], first["seed"])


def test_manifest_echo_without_flags_is_the_file(tmp_path):
    out = tmp_path / "irf"
    assert cli.main(["irf", "--out", str(out), "--config",
                     _write_cfg(tmp_path, "run: {duration_s: 0.01}\n")]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"] == {
        "run": {"duration_s": 0.01}}


@pytest.mark.parametrize("analysis,path", [
    ({"histogram": {"bin_width_ps": 1, "window_ps": 2**24 + 1}}, "analysis.histogram.window_ps"),
    ({"histogram": {"bin_width_ps": 4, "window_ps": 4 * (2**24 + 1)}},
     "analysis.histogram.window_ps"),
    ({"g2": {"delay_min_ps": 0, "delay_max_ps": 2**20, "delay_step_ps": 1}},
     "analysis.g2.delay_step_ps"),
    ({"g2": {"delay_min_ps": -10**12, "delay_max_ps": 10**12, "delay_step_ps": 1}},
     "analysis.g2.delay_step_ps"),
])
def test_array_size_bound_exits_2_before_allocating(tmp_path, capsys, analysis, path):
    command = "g2" if "g2" in analysis else "histogram"
    text = HBT_CFG + "analysis: " + json.dumps(analysis) + "\n"
    _, violations = validate_config(text)
    assert [v.split(": ")[0] for v in violations] == [path]
    out = tmp_path / "o"
    assert cli.main([command, "--out", str(out), "--config", _write_cfg(tmp_path, text)]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()  # rejected while loading the config


@pytest.mark.parametrize("analysis", [
    {"histogram": {"bin_width_ps": 1, "window_ps": 2**24}},
    {"g2": {"delay_min_ps": 0, "delay_max_ps": 2**20 - 1, "delay_step_ps": 1}},
])
def test_array_size_bound_itself_is_valid(analysis):
    assert validate_config({"analysis": analysis})[1] == []


def test_tuning_curve_temperature_count_bound_exits_2(tmp_path, capsys):
    # 2^16 + 1 temperatures: 16 degrees in steps of 2^-12
    out = tmp_path / "tc"
    assert cli.main(["tuning-curve", "--out", str(out), "--tmin", "40", "--tmax", "56",
                     "--step", str(2.0**-12)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: command-line override: --step: "), err
    assert "at most 65536 temperatures" in err
    assert not (out / "tuning_curve.csv").exists()
    assert cli.main(["tuning-curve", "--out", str(out), "--step", "1e-300"]) == 2
    assert "--step: " in capsys.readouterr().err
