"""Photon-level simulation and analysis of entangled-photon
time- and frequency-resolved fluorescence spectroscopy."""

from .errors import (CalibrationError, ConfigurationError, DomainError,
                     EmptySupportError, EpstreakError, FitError,
                     UndefinedG2Error, ValidityError)
from .events import (DETECTOR_PRESETS, DetectorModel, EmitterSpecies, RunConfig,
                     SampleModel, simulate_channels)
from .fitting import DecayModel, FitOptions, FitResult, convolve_model, fit_decay
from .sellmeier import refractive_index
from .spdc import (CrystalSpec, FilterSpec, JointSpectralDensity, PumpSpec,
                   SourceModel, conjugate_wavelength, joint_spectral_density,
                   tuning_curve)
from .tcspc import G2Curve, Histogram, rebin, start_stop_histogram, tag_g2
from .twins import (InterferogramCube, TimeFrequencyMap, TwinsSpec, calibrate_delay,
                    reconstruct_map)

__version__ = "0.1.0"
