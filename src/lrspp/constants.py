"""Physical constants (SI units)."""

C_LIGHT = 299792458.0        # speed of light, m/s
