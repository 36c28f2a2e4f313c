"""Time-ordered transport of functionals of Cauchy data.

Functionals live over *normalized chart coordinates*: the Cauchy-data
chart at reference time 0, expressed in the weighted real-Fourier basis
in which the discrete Cauchy norm is the plain sum of the two block
Euclidean norms.  This makes the coefficient-l1 tensor norms compatible
with the norm the majorant calculus bounds.

The first-order operator action is

    (V.f)^(m) = sym[ sum_p p f^(p) o (V^(q) (x) id^{p-1}) ],  q = m - p + 1,

with each vertex ``V_t^(k) = lam_k sum_x B_t[:, x] (x) A_t[x]^{(x) k}`` kept
as its factors, the sampling rows ``A_t`` and Green-lift columns ``B_t``.
Both are fixed matrices times per-time diagonals, ``A_t = A_0 diag(a_t)``
and ``B_t = diag(b_t) B_0``, so the vertex monomials are
``monomials(A_0, k)`` scaled per time by the degree-k products of ``a_t``.
One kernel, ``_applied``, applies the operator ``V_t . G_l = delta G_l (V_t)``
to a stored sweep at every node ``t_l`` of a panel at once and contracts the
nodes with a weight matrix, without forming any vertex tensor.  The
time-ordered exponential solves dF/dt = V_t . F in coefficient space as its
Dyson series: ``T_0 = f``, ``T_j = int_{t1}^t V . T_{j-1}``, ``F = sum_j T_j``
(Agrachev-Gamkrelidze, Math. USSR-Sb. 35, 1979), each integral taken on one
Chebyshev-Lobatto panel (Greengard, SIAM J. Numer. Anal. 28, 1991;
Dutt-Greengard-Rokhlin, BIT 40, 2000), so each term is one call of the
kernel with the panel's integration matrix as weights.  One cap rule,
``_kept``, says which nonlinearity degrees a stored degree composes with;
``_dropped`` lists once per transport the degree pairs it leaves out at every node.
Under the degree cap the operator is graded nilpotent when every
nonlinearity degree is at least 2: ``floor((cap - p_min) / (k_min - 1))``
sweeps compose anything, the last one included, and that one count both
sizes the panel and ends the stored terms.  Time needs only spectral
accuracy, and a stored term keeps only the degrees up to the feeding cap
``cap - k_min + 1``.  Otherwise the terms run until they are small.  Every
caller applies the last sweep itself: ``chrono_exp_evolve`` weights it with
the panel's last row only; ``invariance_scan`` evaluates it at the trajectory
coordinates only, as the stored sweep's derivative along the field, without
its top-degree tensors.
The rooted-tree expansion keeps the explicit simplex-quadrature semantics
as an independent check of the same object: each tree is one Gauss-Legendre
product rule over the nested time simplex, evaluated on all points at once.
``tree_expand`` enumerates the trees from the monomial nonlinearity alone;
``evaluate_trees``, the one tree evaluator, returns each tree's value for a
linear functional and builds what the trees of one order share once for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .dynamics import EvolutionState, NonlinearitySpec
from .propagator import (
    KLEIN_GORDON,
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    _bracket,
    _fft,
    _field,
    _ifft,
    _modes,
    _wave_factors,
    _weight_powers,
)
from .series import (
    DEFAULT_FLOOR,
    MajorantSeries,
    _flow_radius,
    eval_series as series_eval,
    flow_time,
)
from .symfun import (
    SymFunctional,
    SymTensor,
    _compose_factored,
    _open_polarized,
    _products,
    monomials,
    num_canonical,
)

__all__ = [
    "ChartMap",
    "FeynmanTree",
    "CertificationRecord",
    "point_eval_functional",
    "chrono_exp_evolve",
    "tree_expand",
    "evaluate_trees",
    "invariance_scan",
    "transport_majorant",
    "certify_window",
]

DEFAULT_DEGREE_CAP = 5

# Dyson terms of an operator that is not nilpotent under the cap (a degree-0 or degree-1
# nonlinearity term) stop once a term's largest coefficient is at most PICARD_RTOL times the
# largest of their sum; PICARD_MAX_SWEEPS terms that do not get there raise FloatingPointError.
PICARD_RTOL = 1e-13
PICARD_MAX_SWEEPS = 40

# A batched sweep takes its panel nodes in chunks whose products hold at most this many
# floats (2 MB), and at least one node each, so a chunk's arrays stay within what a single
# node needs when composed alone (3.2e6 floats for the cubic's degree-5 sweep at M=16)
_CHUNK_FLOATS = 1 << 18

# Gauss-Legendre nodes per simplex dimension of a tree's nested time integral
_QUAD_ORDER = 8


# ---------------------------------------------------------------------------
# chart coordinates
# ---------------------------------------------------------------------------


def _orthonormal_real_dft(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real Fourier basis (rows: constant, cos k and sin k for each k, Nyquist) and each row's |k|."""
    j, k = np.arange(M), np.arange(1, M // 2)[:, None]
    rows = np.full((M, M), 1.0 / math.sqrt(M))
    rows[1:-1:2] = np.sqrt(2.0 / M) * np.cos(2 * np.pi * k * j / M)
    rows[2:-1:2] = np.sqrt(2.0 / M) * np.sin(2 * np.pi * k * j / M)
    rows[-1] = np.cos(np.pi * j) / math.sqrt(M)  # Nyquist
    return rows, (j + 1) // 2


class ChartMap:
    """Normalized coordinates on the Cauchy-data chart of free solutions.

    Restricted to the real second-order kind: the chart space is
    R^{2M} = (field trace, velocity trace) at the reference time, and the
    coordinate transform makes the discrete Cauchy norm equal to
    ``||psi-block||_2 + ||chi-block||_2``.

    The free propagator is diagonal on each real-Fourier row: per mode it
    is the pair ``(cos(eps t), sin(eps t)/eps)``, so every per-time block
    is a fixed matrix times a per-time diagonal.  The sampling rows are
    ``A_t = A_0 diag(a_t)`` with ``A_0 = [W^-1_psi | W^-1_chi]`` and the
    Green-lift columns ``B_t = diag(b_t) B_0`` with ``B_0 = [W_psi; W_chi]``;
    ``_factors`` gives ``a_t = (c_t, snc_t)`` and ``b_t = (-snc_t, c_t)``
    for a whole vector of times.  ``_blocks = (A_0, B_0)`` is the chart's
    only copy of the weighted bases, built in ``__init__``; the vertex
    monomials ``monomials(A_0, k)`` are built once, on first use.
    """

    def __init__(self, grid: Grid, disp: DispersionRelation, s: float = 0.0, m_ref: float = 1.0):
        if disp.kind != KLEIN_GORDON:
            raise NotImplementedError("functional transport is wired to the second-order kind")
        self.grid = grid
        self.disp = disp
        self.s = float(s)
        M = grid.M
        self.dim = 2 * M
        O, freq_idx = _orthonormal_real_dft(M)
        xi_abs = 2 * np.pi * freq_idx / grid.Lx
        self._w, self._eps = _bracket(xi_abs, m_ref), disp.eps(xi_abs)
        sq = math.sqrt(grid.dx)
        r = disp.r_order
        w_psi, w_chi, winv_psi, winv_chi = _weight_powers(self._w, s, s - r, -s, r - s)
        self._blocks = (
            np.hstack([O.T * winv_psi[None, :] / sq, O.T * winv_chi[None, :] / sq]),
            np.vstack([sq * w_psi[:, None] * O, sq * w_chi[:, None] * O]),
        )
        self._monomials: dict[int, np.ndarray] = {}

    # -- coordinate maps ----------------------------------------------------

    def from_coords(self, vec: np.ndarray) -> CauchyData:
        M, A0 = self.grid.M, self._blocks[0]
        return CauchyData(self.grid, A0[:, :M] @ vec[:M], A0[:, M:] @ vec[M:], 0.0)

    def coords_of(self, phi: FreeSolution) -> np.ndarray:
        (psi,), (chi,) = self._traces([phi])
        M, B0 = self.grid.M, self._blocks[1]
        return np.concatenate([B0[:M] @ psi, B0[M:] @ chi])

    def _traces(self, solutions: list[FreeSolution]) -> tuple[np.ndarray, np.ndarray]:
        """The field and velocity traces of the chart data of ``solutions``, ``(n, M)`` real arrays each.

        The chart is real: ``ValueError`` is raised on a trace with a non-zero imaginary part.
        """
        psi = np.array([phi.chart_data.psi for phi in solutions])
        chi = np.array([phi.chart_data.chi for phi in solutions])
        if np.iscomplexobj(psi) or np.iscomplexobj(chi):
            if np.any(psi.imag) or np.any(chi.imag):
                raise ValueError("the chart takes real Klein-Gordon data, not a trace with an imaginary part")
            psi, chi = psi.real.copy(), chi.real.copy()
        return psi, chi

    # -- per-time linear blocks ----------------------------------------------

    def _factors(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(a, b)``, each ``(len(times), dim)``: the scales of ``A_0``'s columns and ``B_0``'s rows."""
        c, snc = _wave_factors(self._eps, np.asarray(times, dtype=float)[:, None])
        return np.hstack([c, snc]), np.hstack([-snc, c])

    def _vertex_monomials(self, k: int) -> np.ndarray:
        """``monomials(A_0, k)``: the degree-k vertex monomials before their time factors."""
        if k not in self._monomials:
            self._monomials[k] = monomials(self._blocks[0], k)
        return self._monomials[k]

    def rows_and_columns(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The blocks at time t: ``A_0 diag(a_t)`` and ``diag(b_t) B_0``.

        The sampling rows ``(M, dim)`` take normalized coords to the field
        trace values at t; the Green-lift columns ``(dim, M)`` take a source
        field on the slice t to the coords of its Green lift (the chart of
        the lift of ``(0, e_x)`` at t is ``psi0 = -S e_x``, ``chi0 = C e_x``).
        """
        (a,), (b,) = self._factors([t])
        A0, B0 = self._blocks
        return A0 * a, b[:, None] * B0

    def _block_norm_sups(self, t_max: float) -> tuple[float, float]:
        """Sups of the 2-norms of both ``rows_and_columns(t)`` blocks over ``|t| <= t_max``.

        Per mode the squared row norm is ``w^{-2s} g / dx`` and the squared
        column norm ``w^{2(s-r)} g dx``, with ``g = c^2 + w^{2r} snc^2 =
        1 + (w^{2r} - eps^2) snc^2`` and ``|snc| <= min(t_max, 1/eps)``.
        """
        w, s, r, dx = self._w, self.s, self.disp.r_order, self.grid.dx
        with np.errstate(over="ignore", divide="ignore"):
            # min(t_max, 1/eps)^2 with no t_max^2 to overflow, and 1/eps where eps t_max does
            et = self._eps * t_max
            sigma2 = np.where(np.isinf(et), 1.0 / self._eps, t_max / np.maximum(1.0, et)) ** 2
        w_rows, w_columns = _weight_powers(w, -2 * s, 2 * (s - r))
        g = 1.0 + sigma2 * np.maximum(w ** (2 * r) - self._eps**2, 0.0)
        rows = math.sqrt(float(np.max(w_rows * g)) / dx)
        columns = math.sqrt(float(np.max(w_columns * g)) * dx)
        return rows, columns


def point_eval_functional(chart: ChartMap, t_point: float = 0.0, x_index: int = 0) -> SymFunctional:
    """Linear functional phi -> phi(t_point, x_{x_index}) in chart coordinates.

    The value of a free solution at a space-time point is the pairing of
    its chart data with one sampling row (the discrete counterpart of the
    Green-propagated delta pairing).
    """
    row = chart.rows_and_columns(t_point)[0][x_index]
    return SymFunctional([SymTensor(1, chart.dim, row)])


# ---------------------------------------------------------------------------
# the first-order operator and its exponential
# ---------------------------------------------------------------------------


def _check_disp(disp: DispersionRelation, chart: ChartMap) -> None:
    if disp != chart.disp:
        raise ValueError(f"dispersion {disp} differs from the chart's {chart.disp}")


def _check_functional(f: SymFunctional, chart: ChartMap) -> None:
    if f.terms and f.dim != chart.dim:
        raise ValueError("functional dimension does not match the chart")
    if f.codomain_dim != 1:
        raise ValueError("composition expects a scalar-valued functional")


def _applied(
    G: dict[int, np.ndarray],
    times: np.ndarray,
    weights: np.ndarray,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    cap: int,
) -> dict[int, np.ndarray]:
    """``sum_l weights[:, l] V_{t_l} . G_l`` over the nodes ``t_l = times[l]``.

    The operator ``V_t . G = delta G (V_t)`` collects, in output degree
    ``m``, ``p G^(p) o (V_t^(m-p+1) (x) id^(p-1))`` over the stored degrees
    ``p`` and the nonlinearity degrees ``_kept`` under ``cap``; ``_dropped``
    lists the degree pairs the cap leaves out.  ``G`` maps each
    stored degree to its per-node coefficients ``(len(times), n_p)``; the
    result maps each output degree to ``(len(weights), n_m)`` coefficients.
    With ``A_t = A_0 diag(a_t)``, ``B_t = diag(b_t) B_0`` and
    ``monomials(A_t, k) = monomials(A_0, k) o pi_k(a_t)``, ``pi_k`` the raw degree-k products of the factors, a pair ``(p, k)``
    composes ``((open-slot o p lam_k b_t) @ B_0 @ monomials(A_0, k)) o pi_k(a_t)``
    (``symfun._compose_factored``).  The nodes go in chunks of at most
    ``_CHUNK_FLOATS`` floats of products.  Each node's output sums its pairs
    and waits for the contraction with the weights only while the waiting
    outputs are no larger than the result: a panel's integration matrix
    takes every node's output in one product, its last row takes each
    chunk's as the chunk ends.
    """
    d, n = chart.dim, len(times)
    pairs = [(p, k) for p in sorted(G) for k in _kept(p, nonlin, cap)]
    out: dict[int, np.ndarray] = {}
    if not pairs:
        return out
    B0 = chart._blocks[1]
    size = max(num_canonical(d, p - 1) * num_canonical(d, k) for p, k in pairs)
    step = max(1, _CHUNK_FLOATS // size)
    # node outputs wait for one contraction with their weights in blocks of at most as many
    # nodes as the result has rows, so they never take more room than the result
    held = max(step, len(weights))
    for lo in range(0, n, held):
        block = slice(lo, min(lo + held, n))
        K: dict[int, np.ndarray] = {}
        for start in range(block.start, block.stop, step):
            sl = slice(start, min(start + step, block.stop))
            a, b = chart._factors(times[sl])
            pi = {k: _products(a, k) for k in {k for _, k in pairs}}
            for p, k in pairs:
                comp = _compose_factored(
                    G[p][sl], p, (p * nonlin.coeffs[k]) * b, B0, chart._vertex_monomials(k), pi[k], k
                )
                m = p + k - 1
                if m not in K:
                    K[m] = np.zeros((block.stop - lo, comp.shape[1]))
                K[m][sl.start - lo : sl.stop - lo] += comp
        for m, c in K.items():
            part = weights[:, block] @ c
            out[m] = out[m] + part if m in out else part
    return out


def _kept(p: int, nonlin: NonlinearitySpec, cap: int) -> list[int]:
    """The cap rule: the nonlinearity degrees ``k`` with ``p + k - 1 <= cap``, none for ``p < 1``."""
    return [k for k in nonlin.degrees if p > 0 and p + k - 1 <= cap]


def _picard_sweeps(f: SymFunctional, nonlin: NonlinearitySpec, cap: int) -> int | None:
    """The Picard sweeps of the capped transport of ``f`` that compose anything, the last one included.

    Each application of the operator raises a degree by ``k - 1`` for a
    nonlinearity degree ``k``, so when every ``k >= 2`` the terms of ``s``
    nested applications start at degree ``p_min + s (k_min - 1)``, and the
    ``s``-th sweep composes a pair under ``cap`` exactly while ``s <=
    floor((cap - p_min) / (k_min - 1))``.  ``None`` when a degree-0 or
    degree-1 term keeps the operator from being nilpotent.  The count sizes
    ``_picard_nodes``'s panel and ends ``_picard``'s stored terms.
    """
    positive = [t.degree for t in f.terms if t.degree > 0]
    if nonlin.is_zero or not positive:
        return 0
    k_min = min(nonlin.coeffs)
    if k_min < 2:
        return None
    return max((cap - min(positive)) // (k_min - 1), 0)


def _picard_nodes(
    t1: float,
    t2: float,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    substeps: int,
    sweeps: int | None,
) -> np.ndarray:
    """Chebyshev-Lobatto nodes of a transport over [t1, t2] in ``sweeps`` sweeps, t1 first.

    The panel has ``n = ceil(substeps * s * (k_max + 1) * eps_max * |t2 - t1| / 2) + 8``
    nodes.  ``s`` is the sweep count of ``_picard_sweeps``, ``k_max`` the
    top nonlinearity degree and ``eps_max`` the chart's largest frequency;
    a degree-k vertex carries ``k + 1`` factors oscillating at most at
    ``eps_max``, so ``s (k_max + 1) eps_max`` bounds the angular frequency
    of the last sweep's integrand.  ``substeps`` is the node density over
    that oscillation.  ``s`` is 2 for one sweep, as for ``None``: the ``+ 8``
    alone leaves a one-sweep tensor 1.6e-11 of its size off at M=16.  The
    transport applies the operator at these times and nowhere else.
    ``OverflowError`` is raised when the panel's ``(n, n)`` float64
    integration matrix is too large for any NumPy array.
    """
    s = 2 if sweeps in (None, 1) else sweeps
    eps_max = float(np.max(chart.disp.eps(chart.grid.xi)))
    k_max = max(nonlin.coeffs, default=0)
    n = math.ceil(substeps * s * (k_max + 1) * eps_max * abs(t2 - t1) / 2) + 8
    if 8 * n * n > np.iinfo(np.intp).max:
        raise OverflowError(
            f"a Picard panel of {n:.6g} nodes over [{t1}, {t2}] needs an integration matrix"
            " beyond NumPy's array size limit"
        )
    times = t1 + (t2 - t1) * (_lobatto(n) + 1) / 2
    times[-1] = t2
    return times


def _lobatto(n: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [-1, 1], from -1 up."""
    return -np.cos(np.pi * np.arange(n) / (n - 1))


def _lobatto_solve(n: int, basis: np.ndarray) -> np.ndarray:
    """``basis . V^{-1}`` with ``V = chebvander(_lobatto(n), n - 1)``.

    ``V`` takes the Chebyshev coefficients of a polynomial of degree below
    ``n`` to its values at the Lobatto points, so a map ``basis`` that reads
    coefficients becomes the same map acting on those values.
    """
    return np.linalg.solve(cheb.chebvander(_lobatto(n), n - 1).T, basis.T).T


@lru_cache(maxsize=16)
def _integration_matrix(n: int) -> np.ndarray:
    """``S[i, l]``: weights of ``int_{-1}^{x_i} p`` on the values of ``p`` at the Lobatto points.

    Exact for polynomials of degree below ``n``.  Built once per ``n`` and read-only.
    """
    S = _lobatto_solve(n, cheb.chebvander(_lobatto(n), n) @ cheb.chebint(np.eye(n), lbnd=-1))
    S[0] = 0.0  # the integral from t1 to t1
    S.setflags(write=False)
    return S


def _interpolation_matrix(n: int, x: np.ndarray) -> np.ndarray:
    """Polynomial interpolation from the n Lobatto points to the points ``x``."""
    return _lobatto_solve(n, cheb.chebvander(x, n - 1))


def _sweep_at(G: dict[int, np.ndarray], l: int, dim: int) -> SymFunctional:
    """The functional a stored sweep ``G`` (degree -> per-node coefficients) holds at node ``l``."""
    return SymFunctional(SymTensor(p, dim, c[l]) for p, c in G.items())


def _picard(
    f: SymFunctional,
    t1: float,
    t2: float,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    substeps: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Dyson terms ``T_0 = f``, ``T_j = S . [V_{t_l} . T_{j-1}(t_l)]`` on one panel over [t1, t2].

    Returns ``(times, S, G)``: the nodes of ``_picard_nodes``, the
    integration matrix scaled to the panel (negative for a backward span)
    and the stored sweep ``G = sum_j T_j``, degree -> ``(len(times), n_p)``
    coefficients, ``f``'s own degrees included.  Each term is one batched
    composition over every node, ``T_j = _applied(T_{j-1}, times, S, ...)``.
    The last, highest-degree sweep is left to callers, which apply it to
    what they need of it: the transported functional at node ``i`` is
    ``f + sum_l S[i, l] V_{t_l} . G_l``.

    The terms keep the feeding cap ``cap - max(k_min - 1, 0)``, above which
    a degree composes into nothing the last sweep keeps; it is ``cap`` when
    a degree-0 or degree-1 term keeps the operator from being nilpotent.
    A nilpotent operator keeps every term, however small, before the last
    of its ``_picard_sweeps`` sweeps: ``T_j`` starts at degree
    ``p_min + j (k_min - 1)``, which composes under the feeding cap exactly
    while ``j <= sweeps - 2``.  Other operators' terms stop once the largest
    coefficient of ``T_j`` is at most ``PICARD_RTOL`` times the largest of
    ``G``.  ``FloatingPointError`` is raised on non-finite coefficients and
    when ``PICARD_MAX_SWEEPS`` terms do not stop, which bounds nilpotent
    operators too: only at caps above about 40, where one degree-41 term
    over a dimension of 8 holds C(48, 41), about 7.4e7, coefficients per node.
    """
    _check_functional(f, chart)
    sweeps = _picard_sweeps(f, nonlin, cap)
    times = _picard_nodes(t1, t2, nonlin, chart, substeps, sweeps)
    S = _integration_matrix(times.size) * (0.5 * (t2 - t1))
    feed = cap - max(min(nonlin.degrees, default=2) - 1, 0)
    T = {t.degree: np.broadcast_to(t.coeffs, (times.size, t.coeffs.shape[1])) for t in f.terms}
    G = dict(T)
    for j in range(PICARD_MAX_SWEEPS):
        if sweeps is not None and j + 1 >= sweeps:
            return times, S, G
        T = _applied(T, times, S, nonlin, chart, feed)
        for m, c in T.items():
            G[m] = G[m] + c if m in G else c
        size, scale = _largest(T), _largest(G)
        if not np.isfinite(size + scale):
            raise FloatingPointError(f"Picard sweep diverged on [{t1}, {t2}]")
        if sweeps is None and size <= PICARD_RTOL * scale:
            return times, S, G
    raise FloatingPointError(
        f"Picard sweeps did not settle within {PICARD_MAX_SWEEPS} on [{t1}, {t2}]"
    )


def _largest(G: dict[int, np.ndarray]) -> float:
    """Largest coefficient magnitude of a sweep, 0 for none; ``np.max``, unlike ``max``, keeps nan."""
    return np.max([np.max(np.abs(c)) for c in G.values()], initial=0.0)


def _dropped(stored: Iterable[int], nonlin: NonlinearitySpec, cap: int) -> list[tuple[int, int]]:
    """What the cap drops at every node: the ``(p, p + k - 1)`` of each nonlinearity degree ``k`` that
    ``_kept`` leaves out of a degree ``p > 0`` of the stored sweep or of what the last sweep composes."""
    degrees = set(stored)
    degrees |= {p + k - 1 for p in degrees for k in _kept(p, nonlin, cap)}
    pairs = [(p, k) for p in sorted(degrees) for k in nonlin.degrees if p > 0]
    return [(p, p + k - 1) for p, k in pairs if k not in _kept(p, nonlin, cap)]


# an overflowing transport is reported by its finiteness checks, not by NumPy's warnings
@np.errstate(over="ignore", invalid="ignore")
def chrono_exp_evolve(
    f: SymFunctional,
    t1: float,
    t2: float,
    steps: int,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    cap: int = DEFAULT_DEGREE_CAP,
) -> tuple[SymFunctional, list[tuple[int, int]]]:
    """Transport ``f`` from t1 to t2: dF/dt = V_t . F, F(t1) = f, by Chebyshev-Picard sweeps.

    Returns ``(F, dropped)``.  ``F = f + sum_l S[-1, l] V_{t_l} . G_l``: ``_picard``'s stored
    sweep at density 1 under its last sweep, one batched composition with the panel's last
    row of weights, so none of the last sweep's coefficients is stored at any node.
    ``dropped`` is ``_dropped``'s list of the degree pairs the cap leaves out, [] when
    ``t1 == t2``.  ``steps`` must be at least 1 when ``t1 != t2`` but no longer sets the
    accuracy.  ``disp`` must be the chart's.
    """
    _check_disp(disp, chart)
    if t1 == t2:
        return f, []
    if steps < 1:
        raise ValueError("chrono_exp_evolve needs steps >= 1 when t1 != t2")
    times, S, G = _picard(f, t1, t2, nonlin, chart, 1, cap)
    top = {t.degree: t.coeffs for t in f.terms}
    for m, c in _applied(G, times, S[-1:], nonlin, chart, cap).items():
        top[m] = top.get(m, 0.0) + c
    if not np.isfinite(_largest(top)):
        raise FloatingPointError(f"Picard sweep diverged on [{t1}, {t2}]")
    return _sweep_at(top, -1, chart.dim), _dropped(G, nonlin, cap)


# ---------------------------------------------------------------------------
# rooted-tree expansion (the explicit-quadrature semantics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeynmanTree:
    """A rooted interaction tree.

    Vertices are numbered by application order 1..order; ``parents[a-1]``
    is the parent of vertex ``a`` (0 denotes the root pairing with the
    linear functional).  Time variables increase along root-to-leaf paths,
    matching the nested integration domain.  ``multiplicity`` counts the
    leg-choice sequences realising this shape.  ``trees.csv`` writes
    ``parents[a-1]`` as ``parent_a``, and -1 for ``a > order``.
    """

    parents: tuple[int, ...]
    multiplicity: int
    vertex_degree: int

    @property
    def order(self) -> int:
        return len(self.parents)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.order + 1)]
        for a, par in enumerate(self.parents, start=1):
            out[par].append(a)
        return out

    def legs(self) -> list[int]:
        ch = self.children()
        return [self.vertex_degree - len(ch[a]) for a in range(1, self.order + 1)]


def tree_expand(nonlin: NonlinearitySpec, max_order: int) -> list[FeynmanTree]:
    """The interaction trees of the monomial ``lam u^k`` up to ``max_order`` vertices.

    Each vertex has ``k`` legs; ``evaluate_trees`` takes each tree's value.
    """
    if len(nonlin.coeffs) != 1:
        raise ValueError("tree expansion requires a single-monomial nonlinearity")
    (k,) = nonlin.coeffs
    if k < 1:
        raise ValueError("the monomial degree must be >= 1")

    # each vertex has k legs and the root one; a tree of order j + 1 hangs
    # vertex j + 1 on a free leg of a tree of order j, and every parents
    # tuple arises once, in lexicographic order
    trees: list[FeynmanTree] = [FeynmanTree((), 1, k)]
    frontier: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for _ in range(max_order):
        new_frontier: list[tuple[tuple[int, ...], int]] = []
        for parents, mult in frontier:
            free_legs = [1] + [k] * len(parents)
            for par in parents:
                free_legs[par] -= 1
            for v, free in enumerate(free_legs):
                if free > 0:
                    new_frontier.append((parents + (v,), mult * free))
        frontier = new_frontier
        trees.extend(FeynmanTree(parents, mult, k) for parents, mult in frontier)
    return trees


def evaluate_trees(
    trees: list[FeynmanTree],
    f_linear: SymFunctional,
    u: FreeSolution,
    t1: float,
    t2: float,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
) -> list[float]:
    """The contribution of each tree applied to the free solution ``u``, in the order of ``trees``.

    A tree of order j is one Gauss-Legendre product rule (Stroud, 1971): ``tau_j``
    over [t1, t2], each ``tau_a`` over [t1, tau_{a+1}], ``_QUAD_ORDER`` nodes per
    level and weights the products of ``w half``.  What the trees of one order share
    is built once for that order: its ``8^j`` points, the traces of ``u`` there and
    their powers per (vertex, legs), the Green-shift factors per (vertex, child) and
    the root's ``b_t``.  The Green shifts are FFTs along the point axis, and the root
    pairs ``f`` with ``b_t o (B_0 field)``, so ``f`` must be linear.
    """
    if f_linear.degrees != (1,):
        raise ValueError("tree expansion starts from a linear functional")
    (lam,) = nonlin.coeffs.values()
    grid, M = chart.grid, chart.grid.M
    eps = chart.disp.eps(grid.xi)
    (psi,), (chi,) = chart._traces([u])
    ph, ch = _modes(grid, psi), _modes(grid, chi)
    f_row = f_linear.term(1).coeffs[0]
    B0 = chart._blocks[1]
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    values = [0.0] * len(trees)
    for order in sorted({tree.order for tree in trees}):
        group = [i for i, tree in enumerate(trees) if tree.order == order]
        if order == 0:
            for i in group:
                values[i] = float(f_row @ chart.coords_of(u))
            continue
        # columns tau_a, ..., tau_j, t2: each level prepends its nodes on [t1, tau_{a+1}]
        taus, W = np.array([[t2]]), np.ones(1)
        for _ in range(order):
            half = 0.5 * (taus[:, :1] - t1)
            level = 0.5 * (taus[:, :1] + t1) + half * nodes
            taus = np.hstack([level.reshape(-1, 1), np.repeat(taus, _QUAD_ORDER, axis=0)])
            W = (W[:, None] * (weights * half)).ravel()
        c, snc = _wave_factors(eps, taus[:, :-1].reshape(-1, 1))
        # a real copy, and no phases kept: at order 5 the complex transform behind _field's
        # real view (21 MB) and the phases (10 MB each) would stay alive while the trees run
        traces = np.ascontiguousarray(_field(grid, c * ph + snc * ch, real=True)).reshape(len(W), order, M)
        del c, snc
        b = chart._factors(taus[:, 0])[1]
        powers: dict[tuple[int, int], np.ndarray] = {}
        shifts: dict[tuple[int, int], np.ndarray] = {}
        for i in group:
            children, legs, fields = trees[i].children(), trees[i].legs(), {}
            for a in range(order, 0, -1):
                key = (a, legs[a - 1])
                if key not in powers:
                    # ``**`` (np.power), not the N program's products: the quadrature is an
                    # independent check of the transport, and shares no power rule with it
                    powers[key] = traces[:, a - 1] ** legs[a - 1]
                F = powers[key]
                for child in children[a]:
                    # convolution with the Green kernel: per-mode sin(eps dt)/eps
                    if (a, child) not in shifts:
                        dt = (taus[:, a - 1] - taus[:, child - 1])[:, None]
                        shifts[a, child] = _wave_factors(eps, dt)[1]
                    F = F * _ifft(shifts[a, child] * _fft(fields.pop(child)), 1 / M).real
                fields[a] = lam * F
            # pair the root: f applied to the Green lift of the order-1 field
            values[i] = trees[i].multiplicity * float(W @ ((b * (fields[1] @ B0.T)) @ f_row))
    return values


# ---------------------------------------------------------------------------
# invariance diagnostic
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def invariance_scan(
    f: SymFunctional,
    traj: list[EvolutionState],
    chart: ChartMap,
    *,
    substeps: int = 1,
    cap: int = DEFAULT_DEGREE_CAP,
):
    """Transported value ``(U_{t1}^{t} f)(Theta_t u)`` at each node of the whole trajectory.

    The transport runs over the trajectory's own span, ``t1 = traj[0].time`` to ``t2 =
    traj[-1].time``.  Under exact arithmetic the sequence is constant, equal to
    ``f(Theta_{t1} u)``.  Returns (times, values, drift, events): ``events[i]`` is the number
    of ``_dropped`` degree pairs times the panel nodes before ``times[i + 1]`` in the
    direction of travel, times all of them at the last row, and 0 when ``t1 == t2``.

    One Chebyshev-Picard panel over [t1, t2] (``_picard`` at node density
    ``substeps``, without its last sweep) carries ``f``; its values reach
    the trajectory times by polynomial interpolation ``L`` through the
    panel's Chebyshev coefficients.  With ``W = L . S`` the value at node ``i`` is
    ``f(c_i) + sum_l W[i, l] K_l(c_i)`` on the trajectory coordinates
    ``c_i``.  The last sweep ``K_l = V_{t_l} . G_l`` is only needed at the
    ``c_i``, where it is the derivative of the stored sweep along the field,

        K_l(c) = sum_{p, k: p + k - 1 <= cap} p <grad G_l^(p)(c), V_{t_l}^(k)(c)>,

    with ``V^(k)(c) = lam_k B (A c)^k`` from the sampling rows ``A`` and
    Green-lift columns ``B`` at ``t_l`` and ``grad G^(p)(c)`` the degree
    ``p - 1`` monomials of ``c`` times ``G^(p)`` with its first slot open
    (``symfun._open_polarized``).  Every panel node is taken at once from the chart's
    factors, ``A c = A_0 (a_l o c)`` and ``B v = b_l o (B_0 v)``, in chunks
    of at most ``_CHUNK_FLOATS`` floats.  ``lam_k (A c)^k`` is the N program's
    term of degree k, ``NonlinearitySpec({k: lam_k}).apply``, whose float
    powers are products, not ``np.power``.  No tensor of the last sweep's
    degrees is built.  The trajectory's dispersion must be the chart's.
    """
    _check_disp(traj[0].disp, chart)
    times = np.array([st.time for st in traj])
    t1, t2, nonlin = traj[0].time, traj[-1].time, traj[0].nonlin
    psi, chi = chart._traces([st.current for st in traj])
    (A0, B0), M = chart._blocks, chart.grid.M
    coords = np.hstack([psi @ B0[:M].T, chi @ B0[M:].T])
    powers: dict[int, np.ndarray] = {}

    def monomials_of(degree: int) -> np.ndarray:
        if degree not in powers:
            powers[degree] = monomials(coords, degree)
        return powers[degree]

    values = sum((monomials_of(t.degree) @ t.coeffs[0] for t in f.terms), np.zeros(len(traj)))
    events = np.zeros(len(traj), dtype=int)
    if t1 != t2:
        pn, S, G = _picard(f, t1, t2, nonlin, chart, substeps, cap)
        W = _interpolation_matrix(pn.size, 2 * (times - t1) / (t2 - t1) - 1) @ S
        # the nonlinearity degrees the operator composes with each stored degree
        pairs = {p: _kept(p, nonlin, cap) for p in G}
        pairs = {p: ks for p, ks in pairs.items() if ks}
        terms = {k: NonlinearitySpec({k: lam}) for k, lam in nonlin.coeffs.items()}
        d = chart.dim
        size = max([len(traj) * d] + [num_canonical(d, p - 1) * d for p in pairs])
        step = max(1, _CHUNK_FLOATS // size)
        for lo in range(0, pn.size, step):
            sl = slice(lo, lo + step)
            a, b = chart._factors(pn[sl])
            U = (coords * a[:, None, :]) @ A0.T  # (nodes, path, M): A_t c
            fields = {k: (term.apply(U) @ B0.T) * b[:, None, :] for k, term in terms.items()}
            for p, ks in pairs.items():
                grad = monomials_of(p - 1) @ _open_polarized(G[p][sl], d, p)
                rate = np.einsum("lij,lij->li", grad, sum(fields[k] for k in ks))
                values += p * np.einsum("il,li->i", W[:, sl], rate)
        sign = 1.0 if t2 > t1 else -1.0
        before = np.searchsorted(sign * pn, sign * times[1:], side="left")
        events = len(_dropped(G, nonlin, cap)) * np.append(before, pn.size)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"transported values diverged on [{t1}, {t2}]")
    drift = float(np.max(np.abs(values - values[0])))
    return times, values, drift, events


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificationRecord:
    certified_radius: float
    window_ok: bool
    f_majorant_at_R: float
    measured_window: float | None = None
    uf_majorant_at_radius: float | None = None
    transport_ok: bool | None = None


def transport_majorant(
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    times: np.ndarray,
) -> MajorantSeries:
    """Majorant of the vertices at every time ``|t| <= max |times|``, in closed form.

    ``V_t^(k)(c_1, ..., c_k) = lam_k B (A c_1 o ... o A c_k)`` with ``A`` the
    sampling rows, ``B`` the Green-lift columns and ``o`` the product over
    grid nodes.  The chart norm lies between the Euclidean norm and
    ``sqrt(2)`` times it, so ``X_k = |lam_k| sqrt(2) ||B||_2 ||A||_2^k`` bounds
    the multilinear norm of ``V_t^(k)``, with the two operator norms taken
    as their sups over the window.  ``FloatingPointError`` names an ``X_k``
    that overflows.
    """
    if nonlin.is_zero:
        return MajorantSeries([])
    a, b = chart._block_norm_sups(float(np.max(np.abs(times))))
    out = np.zeros(max(nonlin.coeffs) + 1)
    for k, lam in nonlin.coeffs.items():
        try:
            out[k] = abs(lam) * math.sqrt(2.0) * b * a**k
        except OverflowError:
            out[k] = math.inf
        if not math.isfinite(out[k]):
            raise FloatingPointError(
                f"vertex majorant coefficient X_{k} overflows: sup ||A_t||_2 = {a!r}"
            )
    return MajorantSeries(out)


def certify_window(
    f_majorant: MajorantSeries,
    X: MajorantSeries,
    R: float,
    T: float,
    uf_majorant: MajorantSeries | None = None,
) -> CertificationRecord:
    """Transport-window certificate: radii before/after the backward flow.

    The window holds when the backward flow from ``R`` stays above the fixed
    floor ``series.DEFAULT_FLOOR = 1e-12`` over the span, that is when
    ``flow_time(X, DEFAULT_FLOOR, R) > |T|``; otherwise ``measured_window``
    is that flow time (0 when ``R <= DEFAULT_FLOOR``).  The
    certified radius ``r' = e^{-|T| X}(R)`` is ``series._flow_radius``: a
    closed form for a one-term ``X``, a root of the flow time for any other,
    and either way below the exact endpoint.  When a concretely transported
    functional's majorant is supplied, additionally checks the norm
    contraction ``[[U f]](r') <= [[f]](R)``.  ``FloatingPointError`` when ``[[f]](R)`` overflows.
    """
    T = abs(T)
    with np.errstate(over="ignore"):
        f_at_R = series_eval(f_majorant, R)
    if not math.isfinite(f_at_R):
        raise FloatingPointError(f"the functional's majorant overflows at R = {R!r}")
    t_floor = flow_time(X, DEFAULT_FLOOR, R) if DEFAULT_FLOOR < R else 0.0
    if t_floor <= T:
        return CertificationRecord(0.0, False, f_at_R, measured_window=t_floor)
    r_prime = _flow_radius(X, R, T, DEFAULT_FLOOR)
    if uf_majorant is None:
        return CertificationRecord(r_prime, True, f_at_R)
    uf_val = series_eval(uf_majorant, r_prime)
    return CertificationRecord(r_prime, True, f_at_R, None, uf_val, bool(uf_val <= f_at_R * (1 + 1e-12)))

