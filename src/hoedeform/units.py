"""Unit conventions and the single conversion layer.

Everything in this package uses one fixed set of units:

* positions, distances, surface coordinates: millimeters (mm)
* wavevectors and grating vectors: rad/micrometer (rad/um)
* wavelength input: nanometers (nm)

Any mm <-> um <-> nm conversion happens through the helpers below; other
modules never carry their own conversion factors.
"""

import math

UM_PER_MM = 1000.0
NM_PER_UM = 1000.0


def wavelength_nm_to_um(lambda_nm: float) -> float:
    return lambda_nm / NM_PER_UM


def wavenumber_rad_per_um(lambda_nm: float) -> float:
    """Vacuum wavenumber 2*pi/lambda in rad/um for a wavelength given in nm."""
    return 2.0 * math.pi / wavelength_nm_to_um(lambda_nm)


def path_mm_to_um(d_mm: float) -> float:
    """Convert a geometric path length from mm to um (for phase accumulation)."""
    return d_mm * UM_PER_MM
