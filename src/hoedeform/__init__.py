"""hoedeform: grating-vector-field models of holographic optical elements.

The package models an HOE as a surface carrying a sampled grating vector
field, simulates what happens to its optics when the recorded film is bent
onto a curved surface, solves the matching precompensation problem, and
traces probe waves through either field with k-vector diffraction closures.
"""

from .errors import (
    ConfigError,
    DegenerateFrame,
    DomainError,
    EmptyBundle,
    HoedeformError,
    NoIntersection,
    NoMinimumInRange,
    NonPositiveFactor,
    NoPreimage,
    NotOnSurface,
    PointNotOnEllipsoid,
    SingularPoint,
    WavelengthMismatch,
)
from .geometry import Vec3
from .surfaces import Projection, SurfaceProfile
from .waves import Wave, WaveKind, Wavelength, interference_intensity, local_amplitude, local_wavevector
from .recording import (
    BraggIsosurfaceSpec,
    CartesianGrid,
    GratingSample,
    GratingVectorField,
    IsosurfaceReport,
    PolarGrid,
    check_isosurface,
    record,
)
from .deformation import induce_forward, induce_inverse, resample_field, rescale
from .diffraction import DiffractionResult, DiffractionStatus
from .fieldio import field_from_dict, field_to_dict, load_field, save_field
from .scene import (
    FocalScanResult,
    PlaneHits,
    Ray,
    RayBundle,
    SpotReport,
    Trace,
    TraceRecord,
    focal_scan,
    intersect_plane,
    read_rays_csv,
    trace_field,
)
from .pipeline import run_scene

__version__ = "0.1.0"
