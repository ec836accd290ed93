"""Heat kernels on flat tori and Klein bottles.

Certified lattice-sum evaluation (spectral and Gaussian-image routes with
rigorous tail bounds), planar lattice reduction and Voronoi geometry,
eigenmode enumeration, geodesic monotonicity scans with violation witnesses,
closed-form counterexample constructions, a critical-point census, and a
finite-difference oracle for cross-checking the analytic evaluators.
"""

__version__ = "0.1.0"

from .errors import (CertificationFailed, DegenerateBasis, DegenerateCritical,
                     FlatHeatError, InvalidParameter, ModeSurfaceMismatch,
                     NonPositiveTime, NotSimple, ToleranceUnreachable,
                     UnstableStep, WrongLatticeClass)
from .lattice import (DualBasis, LatticeClass, LatticeTag, RawBasis,
                      ReducedLattice, VoronoiCell, classify, covering_radius,
                      cut_distance, dual, reduce, torus_distance, voronoi)
from .surfaces import (Geodesic, KleinBottle, Torus, glide, klein_bottle,
                       minimal_geodesic, orbit_representatives,
                       surface_descriptor, surface_distance, torus)
from .kernels import (DiagonalScan, KernelGradient, KernelQuery, KernelValue,
                      SpectralMode, eigenbasis_gradients, eigenbasis_values,
                      enumerate_modes, fundamental_domain_grid,
                      gradient_sum_check, heat_kernel, heat_kernel_gradient,
                      principal_eigenvalue, projection_diagonal_scan,
                      projection_gradient, projection_kernel)
from .monotonicity import (AsymptoticViolation, CensusResult,
                           CounterexampleRecord, Heat, MonotonicityReport,
                           Projection, ScanConfig, Verdict, ViolationWitness,
                           asymptotic_violation, counterexample_generic,
                           counterexample_isosceles, counterexample_klein,
                           critical_point_census, radial_curve, revalidate,
                           scan, worker_count)
from .pde import (GridSolution, evolve, gaussian_state, laplacian_coefficients,
                  radial_derivative_field, stable_step)

__all__ = [
    "__version__",
    "FlatHeatError", "DegenerateBasis", "NonPositiveTime",
    "ToleranceUnreachable", "ModeSurfaceMismatch", "WrongLatticeClass",
    "InvalidParameter", "NotSimple", "DegenerateCritical", "UnstableStep",
    "CertificationFailed",
    "RawBasis", "ReducedLattice", "LatticeTag", "LatticeClass", "DualBasis",
    "VoronoiCell", "reduce", "classify", "dual", "voronoi", "cut_distance",
    "torus_distance", "covering_radius",
    "Torus", "KleinBottle", "Geodesic", "torus", "klein_bottle", "glide",
    "orbit_representatives", "surface_distance", "minimal_geodesic",
    "surface_descriptor",
    "KernelQuery", "KernelValue", "KernelGradient", "SpectralMode",
    "DiagonalScan", "heat_kernel", "heat_kernel_gradient", "enumerate_modes",
    "principal_eigenvalue", "projection_kernel", "projection_gradient",
    "eigenbasis_values", "eigenbasis_gradients", "fundamental_domain_grid",
    "projection_diagonal_scan", "gradient_sum_check",
    "ScanConfig", "Heat", "Projection", "ViolationWitness", "Verdict",
    "MonotonicityReport", "CounterexampleRecord", "AsymptoticViolation",
    "CensusResult", "scan", "revalidate", "radial_curve",
    "counterexample_generic", "counterexample_isosceles",
    "counterexample_klein", "asymptotic_violation", "critical_point_census",
    "worker_count",
    "GridSolution", "laplacian_coefficients", "stable_step", "gaussian_state",
    "evolve", "radial_derivative_field",
]
