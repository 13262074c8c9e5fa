"""What the numpy-free layers share with the numerical modules.

The catalog's table and parameter constraints and the CLI's argument checks
run before numpy loads, so that an invocation that computes nothing never
pays for it; the definitions they have in common with specfun, numutil and
dynamics live here, on the standard library alone.
"""

import math

# every float the package writes, CSV and JSON alike: 17 significant digits,
# enough to read the same double back
E16 = "%.16e"

# the smallest tolerance a solve accepts
MIN_TOL = 1e-13


def is_nonpositive_integer(z: complex, tol: float = 1e-14) -> bool:
    """Whether z is 0, -1, -2, ... to a relative tol: a pole of Gamma, and
    of a series whose lower parameter it is."""
    z = complex(z)
    if abs(z.imag) > tol or not math.isfinite(z.real):
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol * max(1.0, abs(z.real))
