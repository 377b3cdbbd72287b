"""Exception types shared across the package."""


class EpstreakError(Exception):
    """Base class for all package-specific errors."""


class ValidityError(EpstreakError):
    """Input outside the declared validity window of a data table."""


class DomainError(EpstreakError):
    """Physically impossible argument (e.g. signal wavelength below pump)."""


class EmptySupportError(EpstreakError):
    """A spectral density has no support on the requested grid."""


class ConfigurationError(EpstreakError):
    """Inconsistent or invalid run configuration."""


class CalibrationError(EpstreakError):
    """Interferometer calibration could not be performed."""


class UndefinedG2Error(EpstreakError):
    """g2 normalization is undefined because a channel pair has no coincidences."""


class FitError(EpstreakError):
    """Lifetime fit failed; carries best-so-far diagnostics when available."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class StreamOrderError(EpstreakError):
    """A simulated detection would fall before tags already passed on to consumers."""
