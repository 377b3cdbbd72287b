"""Physical constants in the unit system used throughout the package.

Lengths are nm/um, times are ps/fs/ns depending on context; every
quantity-carrying variable name spells out its unit.
"""

# speed of light
C_NM_PER_FS = 299.792458

PS_PER_NS = 1000.0
PS_PER_S = 1e12

# Gaussian FWHM = 2*sqrt(2*ln2) * sigma
FWHM_PER_SIGMA = 2.3548200450309493
