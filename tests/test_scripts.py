"""The scripts in scripts/ still run against the package's preset API."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_tuning_scan_writes_its_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_tuning_scan.py", "--out", str(tmp_path)])
    _script("run_tuning_scan").main()
    assert (tmp_path / "tuning_curve.csv").read_text().startswith("temperature_C")
    assert "peak_nm" in (tmp_path / "conditioned_spectrum.txt").read_text()
    assert "phase-matched" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["run_all_presets", "run_integration_sweep"])
def test_script_help(monkeypatch, capsys, name):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--help"])
    with pytest.raises(SystemExit) as stop:
        _script(name).main()
    assert stop.value.code == 0
    assert "--out" in capsys.readouterr().out
