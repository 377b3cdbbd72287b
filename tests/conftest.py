import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from epstreak.config import load_config, merge, override, validate_config
from epstreak.presets import CONFIGS

settings.register_profile(
    "default", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")

# Two hand-written configs whose model lines, g2 bytes and ft-map bytes are
# pinned by digest; the presets run their own files (epstreak/configs).
HBT_YAML = """\
# Heralded Hanbury Brown-Twiss run: the signal arm is split onto two
# detectors and correlated against the herald.
run:
  topology: hbt
  duration_s: 10.0
  seed: 7

source:
  pump:
    pair_rate_hz: 1.0e6

detectors:
  herald: {preset: ideal}
  signal: {preset: ideal}

analysis:
  g2:
    coincidence_window_ps: 1000
    delay_min_ps: -50000
    delay_max_ps: 50000
    delay_step_ps: 2000
"""

TWO_DYE_MAP_YAML = """\
# Two-dye mixture measured through the scanning interferometer; the ft-map
# subcommand acquires one histogram per wedge position and reconstructs the
# wavelength-time map.
run:
  topology: fluorescence
  duration_s: 0.5        # per wedge position
  seed: 11

sample:
  species:
    - {weight: 1.0, lifetime_ns: 1.51, emission_center_nm: 810.0, emission_fwhm_nm: 40.0}
    - {weight: 1.0, lifetime_ns: 0.79, emission_center_nm: 900.0, emission_fwhm_nm: 40.0}

detectors:
  herald: {preset: ideal}
  signal: {preset: ideal}

twins:
  delay_per_um_fs: 1.0
  position_min_um: 0.0
  position_max_um: 320.0
  n_positions: 256
  x_zero_um: 160.0
  visibility: 0.9
  insertion_loss: 0.5

analysis:
  histogram:
    bin_width_ps: 16
    window_ps: 12800
    t0_ps: 0
"""


def shipped(name, values=None):
    """The shipped config file ``name`` with ``values`` (YAML path -> value) overridden."""
    return override(load_config(CONFIGS / f"{name}.yaml"), values or {})


def heralded_config(*mappings):
    """A config on the counting presets' source (fig2d-irf's) with ``mappings`` merged over it."""
    data = {"source": shipped("fig2d-irf-mpd_mpd").raw["source"]}
    for mapping in mappings:
        data = merge(data, mapping)
    cfg, found = validate_config(data)
    assert found == [], found
    return cfg


def heralded_source(pair_rate_hz=2.0e5, filter_center_nm=860.0):
    """The counting presets' source at another pair rate or herald filter centre."""
    return heralded_config({"source": {"pump": {"pair_rate_hz": pair_rate_hz},
                                       "herald_filter": {"center_nm": filter_center_nm}}}).source


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(name="heralded_source")
def heralded_source_fixture():
    return heralded_source()


@pytest.fixture
def mpd():
    from epstreak.events import DETECTOR_PRESETS
    return DETECTOR_PRESETS["mpd"]


@pytest.fixture
def ideal():
    from epstreak.events import DETECTOR_PRESETS
    return DETECTOR_PRESETS["ideal"]
