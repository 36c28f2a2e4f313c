"""Chronological transport of analytic functionals of dispersive Cauchy data.

The package is organised around five layers:

``series``
    One-variable majorant calculus: power series with nonnegative
    coefficients, the flow times ``int dz/X(z)`` of their fields and the
    radii those flows reach, and comparison constants.
``symfun``
    Symmetric multilinear algebra on a finite-dimensional state space:
    homogeneous polynomial maps, the coefficient-l1 tensor norm,
    truncated formal series, the operator's composition kernel.
``propagator``
    Exact spectral solutions of the linear equation on a periodic 1-D
    grid: Cauchy data, free solutions, discrete Sobolev norms and
    energies.
``dynamics``
    The nonlinear layer: the Lagrange-Duhamel vector field, its RK4
    integrator and Duhamel-residual diagnostics.
``chrono``
    The time-ordered exponential acting on functionals, its Feynman-tree
    expansion, the invariance diagnostic, and the window certificate built
    from the field ``X`` and the functional's majorant.
"""

__version__ = "0.1.0"
