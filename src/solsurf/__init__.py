"""solsurf: surfaces from holomorphic Weierstrass data.

Constructs constant-mean-curvature surfaces in hyperbolic space and
minimal surfaces in Euclidean space from a pair of holomorphic functions,
by integrating a 2x2 linear spectral problem along paths and applying
Sym-type immersion formulas, with a verification suite for the geometric
invariants (conformality, curvature, compatibility residuals) and a bridge
to scalar second-order ODEs.
"""

from .specfun import (SeriesResult, PoleInParameter, erf_series, erf_c,
                      kummer_series, kummer_c, gamma_half, hermite_h)
from .expr import (Expr, ExprSyntaxError, UnknownFunction, UnknownIdentifier,
                   UnboundParameter, PoleOrOverflow, parse, evaluate,
                   derivative, simplify, subst_params)
from ._quad import QuadratureFailure, adaptive_gl
from .geom import (DomainError, StencilOutOfDomain, WeierstrassData,
                   SurfaceFields, weierstrass_solution,
                   fields_from_weierstrass, wirtinger_dz, wirtinger_dzbar,
                   mixed_dzdzbar, gmc_residual, build_UV,
                   zero_curvature_residual)
from .lsp import (PathSpec, Wavefunction, PoleClearanceViolated,
                  StepUnderflow, IncompatibleSystem, BranchAmbiguity,
                  propagate, integrate_reduced, integrate_full,
                  picard_series, gauge_matrix, gauge_equivalence_residual)
from .immersion import (DomainRect, SurfacePatch, FrameSample, FrameSweep,
                        LambdaZero, DegenerateFrame, sym_immersion,
                        shifted_immersion, enneper_weierstrass, loop_period,
                        sample_surface, frame_sweep, frame_and_curvature)
from .odebridge import (OdeSpec, NonIntegrableForm, AntiderivativeNode,
                        ode_coefficients, standard_potential,
                        weierstrass_from_ode, erf_example_data,
                        erf_example_surface, kummer_crosscheck)
from .checks import battery
from .cli import main, write_obj, write_ply

__version__ = "0.1.0"
