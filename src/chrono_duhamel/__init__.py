"""Chronological transport of analytic functionals of dispersive Cauchy data.

The package is organised around five layers:

``series``
    One-variable majorant calculus: power series with nonnegative
    coefficients, their flows ``e^{tX}(z)``, the flow times
    ``int dz/X(z)``, comparison constants and the guaranteed transport
    window.
``symfun``
    Symmetric multilinear algebra on a finite-dimensional state space:
    homogeneous polynomial maps, polarization, the coefficient-l1 tensor
    norm, truncated formal series.
``propagator``
    Exact spectral solutions of the linear equation on a periodic 1-D
    grid: Cauchy data, free solutions, Green lifts, discrete Sobolev
    norms.
``dynamics``
    The nonlinear layer: the map onto free solutions, the
    Lagrange-Duhamel vector field, the reference integrator and
    Duhamel-residual diagnostics.
``chrono``
    The time-ordered exponential acting on functionals, its Feynman-tree
    expansion, the invariance diagnostic and the certified convergence
    window.
"""

from .series import (
    FlowResult,
    MajorantSeries,
    apply_majorant_operator,
    derivative,
    eval_series,
    flow,
    flow_time,
    gamma_constant,
    guaranteed_time,
)
from .symfun import SymFunctional, SymTensor, VectorNorm
from .propagator import (
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    energy,
    green_apply,
    make_free_solution,
    propagate,
    sample_at,
    sobolev_norm,
)
from .dynamics import (
    EvolutionState,
    NonlinearitySpec,
    duhamel_residual,
    evolve,
    lagrange_duhamel_V,
    strang_evolve,
    theta,
)
from .chrono import (
    ChartMap,
    FeynmanTree,
    certify_window,
    chrono_exp_evolve,
    invariance_scan,
    point_eval_functional,
    tree_expand,
    vdot,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
