"""One experiment as data: the models of the chain plus the analysis options.

``config.validate_config`` builds an ExperimentConfig from YAML; each
analysis section below has the fields of the YAML section of the same name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import Checked, relation, rule, rule_of
from .errors import ConfigurationError
from .events import DetectorModel, RunConfig, SampleModel
from .fitting import FitOptions
from .spdc import SourceModel
from .tcspc import DEFAULT_BIN_WIDTH_PS, DEFAULT_WINDOW_PS, HISTOGRAM_MODES, window_violation
from .twins import APODIZATIONS, TwinsSpec


@dataclass(frozen=True)
class HistogramOptions(Checked):
    bin_width_ps: int = rule(DEFAULT_BIN_WIDTH_PS, lo=1)
    window_ps: int = rule(DEFAULT_WINDOW_PS, lo=1)
    t0_ps: int = -5_000
    mode: str = rule(HISTOGRAM_MODES[0], choices=HISTOGRAM_MODES)

    @relation("window_ps", "bin_width_ps")
    def _window_whole_bins(window_ps, bin_width_ps):
        return window_violation(window_ps, bin_width_ps)


@dataclass(frozen=True)
class G2Options(Checked):
    coincidence_window_ps: int = rule(1000, lo=1)
    delay_min_ps: int = -50_000
    delay_max_ps: int = 50_000
    delay_step_ps: int = rule(1000, lo=1)

    def delay_axis_ps(self):
        return np.arange(self.delay_min_ps, self.delay_max_ps + 1, self.delay_step_ps,
                         dtype=float)


@dataclass(frozen=True)
class FitSettings(Checked):
    n_components: int = rule(1, lo=1)
    seed: int = rule_of(FitOptions, "seed")
    fit_shift: bool = rule_of(FitOptions, "fit_shift")


@dataclass(frozen=True)
class FTOptions(Checked):
    apodization: str = rule("hann", choices=APODIZATIONS)
    dc_removal: bool = True


@dataclass(frozen=True)
class AnalysisOptions:
    histogram: HistogramOptions
    g2: G2Options
    fit: FitSettings
    ft: FTOptions


@dataclass
class ExperimentConfig(Checked):
    source: SourceModel
    sample: SampleModel | None
    herald_det: DetectorModel
    signal_det: DetectorModel
    twins: TwinsSpec | None
    run: RunConfig
    analysis: AnalysisOptions
    n_twins_positions: int = rule(256, lo=2)
    raw: dict = field(default_factory=dict)

    def twins_positions_um(self):
        if self.twins is None:
            raise ConfigurationError("no TWINS configured")
        return np.linspace(self.twins.position_min_um, self.twins.position_max_um,
                           self.n_twins_positions)
