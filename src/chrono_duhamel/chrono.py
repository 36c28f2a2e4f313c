"""Time-ordered transport of functionals of Cauchy data.

Functionals live over *normalized chart coordinates*: the Cauchy-data
chart at reference time 0, expressed in the weighted real-Fourier basis
in which the discrete Cauchy norm is the plain sum of the two block
Euclidean norms.  This makes the coefficient-l1 tensor norms compatible
with the norm the majorant calculus bounds.

The first-order operator action is

    (V.f)^(m) = sym[ sum_p p f^(p) o (V^(q) (x) id^{p-1}) ],  q = m - p + 1,

with each vertex ``V_t^(k) = lam_k sum_x B_t[:, x] (x) A_t[x]^{(x) k}`` kept
as its factors, the sampling rows ``A_t`` and Green-lift columns ``B_t``, on
which ``compose_rank_one`` composes without forming the tensor.  The
time-ordered exponential solves dF/dt = V_t . F in coefficient space by
Chebyshev-Picard sweeps ``G <- f + int_{t1}^t V . G`` on one
Chebyshev-Lobatto panel (Greengard, SIAM J. Numer. Anal. 28, 1991;
Dutt-Greengard-Rokhlin, BIT 40, 2000).  Under the degree cap the operator
is graded nilpotent when every nonlinearity degree is at least 2, so a
known number of sweeps settles every degree and time needs only spectral
accuracy; otherwise the sweeps run to a tolerance.  The rooted-tree
expansion below keeps the explicit simplex-quadrature semantics as an
independent check of the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.optimize import brentq

from .dynamics import EvolutionState, NonlinearitySpec
from .propagator import (
    KLEIN_GORDON,
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    _wave_factors,
    sample_at,
)
from .series import DEFAULT_FLOOR, MajorantSeries, eval_series as series_eval, flow_time
from .symfun import (
    SymFunctional,
    SymTensor,
    VectorNorm,
    compose_rank_one,
    monomials,
)

__all__ = [
    "ChartMap",
    "FeynmanTree",
    "TruncationEvent",
    "CertificationRecord",
    "point_eval_functional",
    "vdot",
    "chrono_exp_evolve",
    "picard_nodes",
    "tree_expand",
    "evaluate_trees",
    "invariance_scan",
    "transport_majorant",
    "certify_window",
    "invariance_csv",
]

DEFAULT_DEGREE_CAP = 5

# Picard sweeps of an operator that is not nilpotent under the cap (a
# degree-0 or degree-1 nonlinearity term) stop once the largest coefficient
# change is at most PICARD_RTOL times the largest coefficient; a transport
# still moving after PICARD_MAX_SWEEPS sweeps raises FloatingPointError.
PICARD_RTOL = 1e-13
PICARD_MAX_SWEEPS = 40

# brentq tolerances in log r' for the certified radius (rtol at brentq's floor)
_RADIUS_XTOL, _RADIUS_RTOL = 1e-14, 4 * np.finfo(float).eps

# Gauss-Legendre nodes per simplex dimension of a tree's nested time integral
_QUAD_ORDER = 8


# ---------------------------------------------------------------------------
# chart coordinates
# ---------------------------------------------------------------------------


def _orthonormal_real_dft(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real Fourier basis (rows) and the |frequency index| per row."""
    j = np.arange(M)
    rows = [np.full(M, 1.0 / math.sqrt(M))]
    freqs = [0]
    for k in range(1, M // 2):
        rows.append(np.sqrt(2.0 / M) * np.cos(2 * np.pi * k * j / M))
        freqs.append(k)
        rows.append(np.sqrt(2.0 / M) * np.sin(2 * np.pi * k * j / M))
        freqs.append(k)
    rows.append(np.cos(np.pi * j) / math.sqrt(M))  # Nyquist
    freqs.append(M // 2)
    return np.vstack(rows), np.asarray(freqs)


class ChartMap:
    """Normalized coordinates on the Cauchy-data chart of free solutions.

    Restricted to the real second-order kind: the chart space is
    R^{2M} = (field trace, velocity trace) at the reference time, and the
    coordinate transform makes the discrete Cauchy norm equal to
    ``||psi-block||_2 + ||chi-block||_2``.

    The free propagator is diagonal on each real-Fourier row: per mode it
    is the pair ``(cos(eps t), sin(eps t)/eps)``, so every per-time block
    is the weight matrices scaled row by row or column by column.
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
        w = np.sqrt(m_ref**2 + xi_abs**2)
        self._w, self._eps = w, disp.eps(xi_abs)
        sq = math.sqrt(grid.dx)
        self._W_psi = sq * (w**s)[:, None] * O
        self._W_chi = sq * (w ** (s - disp.r_order))[:, None] * O
        self._Winv_psi = O.T * (w ** (-s))[None, :] / sq
        self._Winv_chi = O.T * (w ** (disp.r_order - s))[None, :] / sq
        self.norm_spec = VectorNorm.two_block(self.dim, M)

    # -- coordinate maps ----------------------------------------------------

    def to_coords(self, data: CauchyData) -> np.ndarray:
        if data.t != 0.0:
            raise ValueError("chart coordinates are defined on data anchored at 0")
        return np.concatenate([self._W_psi @ data.psi.real, self._W_chi @ data.chi.real])

    def from_coords(self, vec: np.ndarray) -> CauchyData:
        M = self.grid.M
        return CauchyData(self.grid, self._Winv_psi @ vec[:M], self._Winv_chi @ vec[M:], 0.0)

    def coords_of(self, phi: FreeSolution) -> np.ndarray:
        return self.to_coords(phi.chart_data)

    # -- per-time linear blocks ----------------------------------------------

    def _rows_and_columns(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Sampling rows and Green-lift columns at time t from the per-mode factors."""
        c, snc = _wave_factors(self._eps, t)
        rows = np.hstack([self._Winv_psi * c, self._Winv_chi * snc])
        # chart of the lift of (0, e_x) at t: psi0 = -S e_x, chi0 = C e_x
        columns = np.vstack([-snc[:, None] * self._W_psi, c[:, None] * self._W_chi])
        return rows, columns

    def _block_norm_sups(self, t_max: float) -> tuple[float, float]:
        """Sups of ``||sampling_rows(t)||_2`` and ``||green_columns(t)||_2`` over ``|t| <= t_max``.

        Per mode the squared row norm is ``w^{-2s} g / dx`` and the squared
        column norm ``w^{2(s-r)} g dx``, with ``g = c^2 + w^{2r} snc^2 =
        1 + (w^{2r} - eps^2) snc^2`` and ``|snc| <= min(t_max, 1/eps)``.
        """
        w, s, r, dx = self._w, self.s, self.disp.r_order, self.grid.dx
        sigma2 = t_max**2 / np.maximum(1.0, (self._eps * t_max) ** 2)  # min(t_max, 1/eps)^2
        g = 1.0 + sigma2 * np.maximum(w ** (2 * r) - self._eps**2, 0.0)
        rows = math.sqrt(float(np.max(w ** (-2 * s) * g)) / dx)
        columns = math.sqrt(float(np.max(w ** (2 * (s - r)) * g)) * dx)
        return rows, columns

    def sampling_rows(self, t: float) -> np.ndarray:
        """(M, dim) matrix: normalized coords -> field trace values at time t."""
        return self._rows_and_columns(t)[0]

    def green_columns(self, t: float) -> np.ndarray:
        """(dim, M) matrix: source field on slice t -> coords of its Green lift."""
        return self._rows_and_columns(t)[1]


def point_eval_functional(chart: ChartMap, t_point: float = 0.0, x_index: int = 0) -> SymFunctional:
    """Linear functional phi -> phi(t_point, x_{x_index}) in chart coordinates.

    The value of a free solution at a space-time point is the pairing of
    its chart data with one sampling row (the discrete counterpart of the
    Green-propagated delta pairing).
    """
    row = chart.sampling_rows(t_point)[x_index]
    return SymFunctional([SymTensor(1, chart.dim, row)])


# ---------------------------------------------------------------------------
# the first-order operator and its exponential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationEvent:
    time: float
    in_degree: int
    out_degree: int


def vdot(
    t: float,
    f: SymFunctional,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    cap: int = DEFAULT_DEGREE_CAP,
) -> SymFunctional:
    """Apply the operator ``f -> delta f (V_t)`` degree by degree.

    Output degree ``m`` collects ``p f^(p) o (V^(m-p+1) (x) id^(p-1))``
    over the stored degrees ``p`` and the nonlinearity degrees.  Degrees
    above ``cap`` are dropped; ``_truncation_events`` records them.
    """
    if f.terms and f.dim != chart.dim:
        raise ValueError("functional dimension does not match the chart")
    A, B = chart._rows_and_columns(t)
    fields = {k: lam * monomials(A, k) for k, lam in nonlin.coeffs.items()}
    out: dict[int, SymTensor] = {}
    for term in f.terms:
        p = term.degree
        if p == 0:
            continue
        for k, W in fields.items():
            m = p + k - 1
            if m > cap:
                continue
            comp = compose_rank_one(term, B, W, k).scaled(float(p))
            out[m] = comp if m not in out else out[m] + comp
    return SymFunctional(out.values())


def _picard_sweeps(f: SymFunctional, nonlin: NonlinearitySpec, cap: int) -> int | None:
    """Picard sweeps after which the capped transport of ``f`` is exact in degree.

    Each application of the operator raises a degree by ``k - 1`` for a
    nonlinearity degree ``k``, so when every ``k >= 2`` the terms of ``s``
    nested applications start at degree ``p_min + s (k_min - 1)`` and every
    degree up to ``cap`` is settled after ``ceil((cap - p_min) / (k_min - 1))``
    sweeps.  ``None`` when a degree-0 or degree-1 term keeps the operator
    from being nilpotent.
    """
    positive = [t.degree for t in f.terms if t.degree > 0]
    if nonlin.is_zero or not positive:
        return 0
    k_min = min(nonlin.coeffs)
    if k_min < 2:
        return None
    return max(math.ceil((cap - min(positive)) / (k_min - 1)), 0)


def picard_nodes(
    f: SymFunctional,
    t1: float,
    t2: float,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    substeps: int = 1,
    cap: int = DEFAULT_DEGREE_CAP,
) -> np.ndarray:
    """Chebyshev-Lobatto nodes of the transport of ``f`` over [t1, t2], t1 first.

    The panel has ``n = ceil(substeps * s * (k_max + 1) * eps_max * |t2 - t1| / 2) + 8``
    nodes.  ``s`` is the sweep count (2 when it is not known in advance),
    ``k_max`` the top nonlinearity degree and ``eps_max`` the chart's largest
    frequency; a degree-k vertex carries ``k + 1`` factors oscillating at most
    at ``eps_max``, so ``s (k_max + 1) eps_max`` bounds the angular frequency
    of the last sweep's integrand.  ``substeps`` is the node density over
    that oscillation.  The transport applies the operator at these times
    and nowhere else.
    """
    sweeps = _picard_sweeps(f, nonlin, cap)
    s = 2 if sweeps is None else sweeps
    eps_max = float(np.max(chart.disp.eps(chart.grid.xi)))
    k_max = max(nonlin.coeffs, default=0)
    n = math.ceil(substeps * s * (k_max + 1) * eps_max * abs(t2 - t1) / 2) + 8
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


def _integration_matrix(n: int) -> np.ndarray:
    """``S[i, l]``: weights of ``int_{-1}^{x_i} p`` on the values of ``p`` at the Lobatto points.

    Exact for polynomials of degree below ``n``.
    """
    S = _lobatto_solve(n, cheb.chebvander(_lobatto(n), n) @ cheb.chebint(np.eye(n), lbnd=-1))
    S[0] = 0.0  # the integral from t1 to t1
    return S


def _interpolation_matrix(n: int, x: np.ndarray) -> np.ndarray:
    """Polynomial interpolation from the n Lobatto points to the points ``x``."""
    return _lobatto_solve(n, cheb.chebvander(x, n - 1))


def _picard(
    f: SymFunctional,
    t1: float,
    t2: float,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    substeps: int,
    cap: int,
):
    """Chebyshev-Picard sweeps ``G <- f + S . [vdot(t_j, G_j)]`` on one panel over [t1, t2].

    Runs every sweep but the last and returns ``(times, S, final)``: the
    nodes, the integration matrix scaled to the panel (negative for a
    backward span) and the last sweep as an iterator over
    ``K_l = vdot(t_l, G_l)``.  The transported functional at node ``i`` is
    ``f + sum_l S[i, l] K_l``; callers accumulate what they need of it and
    drop each ``K_l``, so the last, highest-degree sweep is never stored.

    A nilpotent operator runs the known number of sweeps.  Otherwise stored
    sweeps repeat until the largest coefficient change is at most
    ``PICARD_RTOL`` times the largest coefficient, and ``FloatingPointError``
    is raised after ``PICARD_MAX_SWEEPS`` sweeps without that.
    """
    sweeps = _picard_sweeps(f, nonlin, cap)
    times = picard_nodes(f, t1, t2, nonlin, chart, substeps, cap)
    S = _integration_matrix(times.size) * (0.5 * (t2 - t1))
    if sweeps == 0:
        return times, S, iter(())
    base = {t.degree: t.coeffs[0] for t in f.terms}
    G = {p: np.broadcast_to(c, (times.size, c.size)) for p, c in base.items()}

    def at(l: int) -> SymFunctional:
        return SymFunctional(SymTensor(p, chart.dim, c[l]) for p, c in G.items())

    def applied():
        for l, t in enumerate(times):
            yield vdot(t, at(l), chart.disp, nonlin, chart, cap=cap)

    limit = PICARD_MAX_SWEEPS if sweeps is None else sweeps - 1
    for _ in range(limit):
        K = list(applied())
        new = dict(G)
        for m in K[0].degrees:
            new[m] = base.get(m, 0.0) + S @ np.stack([k.term(m).coeffs[0] for k in K])
        update = max(np.max(np.abs(c - G.get(m, 0.0))) for m, c in new.items())
        scale = max(np.max(np.abs(c)) for c in new.values())
        if not np.isfinite(update + scale):
            raise FloatingPointError(f"Picard sweep diverged on [{t1}, {t2}]")
        G = new
        if sweeps is None and update <= PICARD_RTOL * scale:
            break
    else:
        if sweeps is None:
            raise FloatingPointError(
                f"Picard sweeps did not settle within {PICARD_MAX_SWEEPS} on [{t1}, {t2}]"
            )
    return times, S, applied()


def _truncation_events(
    times: np.ndarray, degrees: Iterable[int], nonlin: NonlinearitySpec, cap: int
) -> list[TruncationEvent]:
    """What the cap drops: at each node, one event per stored degree ``p > 0`` and
    nonlinearity degree ``k`` with ``p + k - 1 > cap``.  Nothing is composed for them."""
    pairs = [
        (p, p + k - 1) for p in sorted(degrees) if p > 0 for k in nonlin.degrees if p + k - 1 > cap
    ]
    return [TruncationEvent(float(t), p, m) for t in times for p, m in pairs]


def chrono_exp_evolve(
    f: SymFunctional,
    t1: float,
    t2: float,
    steps: int,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    cap: int = DEFAULT_DEGREE_CAP,
) -> tuple[SymFunctional, list[TruncationEvent]]:
    """Transport ``f`` from t1 to t2: dF/dt = V_t . F, F(t1) = f, by Chebyshev-Picard sweeps.

    The panel has the nodes of ``picard_nodes`` at density 1.  ``steps``
    must be at least 1 when ``t1 != t2`` but no longer sets the accuracy.
    """
    if t1 == t2:
        return f, []
    if steps < 1:
        raise ValueError("chrono_exp_evolve needs steps >= 1 when t1 != t2")
    times, S, final = _picard(f, t1, t2, nonlin, chart, 1, cap)
    out = {t.degree: t.coeffs[0].copy() for t in f.terms}
    for l, K in enumerate(final):
        for term in K.terms:
            out.setdefault(term.degree, np.zeros(term.coeffs.shape[1]))
            out[term.degree] += S[-1, l] * term.coeffs[0]
    if not all(np.all(np.isfinite(c)) for c in out.values()):
        raise FloatingPointError(f"functional coefficients diverged on [{t1}, {t2}]")
    F = SymFunctional(SymTensor(p, chart.dim, c) for p, c in out.items())
    return F, _truncation_events(times, F.degrees, nonlin, cap)


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
    leg-choice sequences realising this shape.
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


def tree_expand(
    f_linear: SymFunctional,
    t1: float,
    t2: float,
    max_order: int,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
):
    """Enumerate interaction trees up to ``max_order`` vertices + evaluator.

    The nonlinearity must be a single monomial ``lam u^k`` and the
    functional linear.  The returned evaluator maps a free solution to the
    sum over trees of multiplicity x nested time integral, each integral
    taken by Gauss-Legendre per simplex dimension.
    """
    if len(nonlin.coeffs) != 1:
        raise ValueError("tree expansion requires a single-monomial nonlinearity")
    if f_linear.degrees != (1,):
        raise ValueError("tree expansion starts from a linear functional")
    (k, lam), = nonlin.coeffs.items()
    if k < 1:
        raise ValueError("the monomial degree must be >= 1")

    trees: list[FeynmanTree] = [FeynmanTree((), 1, k)]
    frontier: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for order in range(1, max_order + 1):
        new_frontier: list[tuple[tuple[int, ...], int]] = []
        for parents, mult in frontier:
            j = len(parents)
            if j == 0:
                new_frontier.append(((0,), mult))
                continue
            child_count = [0] * (j + 1)
            for par in parents:
                child_count[par] += 1
            for v in range(1, j + 1):
                free_legs = k - child_count[v]
                if free_legs > 0:
                    new_frontier.append((parents + (v,), mult * free_legs))
        merged: dict[tuple[int, ...], int] = {}
        for parents, mult in new_frontier:
            merged[parents] = merged.get(parents, 0) + mult
        frontier = sorted(merged.items())
        trees.extend(FeynmanTree(parents, mult, k) for parents, mult in frontier)

    def evaluator(u: FreeSolution) -> float:
        return evaluate_trees(trees, f_linear, u, t1, t2, disp, nonlin, chart)

    return trees, evaluator


def evaluate_trees(
    trees: list[FeynmanTree],
    f_linear: SymFunctional,
    u: FreeSolution,
    t1: float,
    t2: float,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
) -> float:
    """Sum of the tree contributions applied to the free solution ``u``."""
    (k, lam), = nonlin.coeffs.items()
    grid = chart.grid
    eps = disp.eps(grid.xi)
    f_row = f_linear.term(1).coeffs[0]
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_ORDER)

    trace_cache: dict[float, np.ndarray] = {}

    def trace(tau: float) -> np.ndarray:
        if tau not in trace_cache:
            trace_cache[tau] = sample_at(disp, u, tau).psi
        return trace_cache[tau]

    def green_shift(field: np.ndarray, dt_: float) -> np.ndarray:
        # convolution with the Green kernel: per-mode sin(eps dt)/eps
        return np.fft.ifft(_wave_factors(eps, dt_)[1] * np.fft.fft(field)).real

    def tree_integrand(tree: FeynmanTree, taus: np.ndarray) -> float:
        ch = tree.children()
        legs = tree.legs()
        fields: dict[int, np.ndarray] = {}
        for a in range(tree.order, 0, -1):
            F = trace(float(taus[a - 1])) ** legs[a - 1]
            for c in ch[a]:
                F = F * green_shift(fields.pop(c), float(taus[a - 1] - taus[c - 1]))
            fields[a] = lam * F
        # pair the root: f applied to the Green lift of the order-1 field
        coords = chart.green_columns(float(taus[0])) @ fields[1]
        return float(f_row @ coords)

    def nested(tree: FeynmanTree, level: int, taus: list[float], upper: float) -> float:
        # integrate tau_level over [t1, upper]; levels run from order down to 1
        half = 0.5 * (upper - t1)
        mid = 0.5 * (upper + t1)
        total = 0.0
        for x, w in zip(nodes, weights):
            tau = mid + half * x
            taus[level - 1] = tau
            if level == 1:
                total += w * tree_integrand(tree, np.asarray(taus))
            else:
                total += w * nested(tree, level - 1, taus, tau)
        return total * half

    total = 0.0
    for tree in trees:
        if tree.order == 0:
            total += float(f_row @ chart.coords_of(u))
        else:
            taus = [0.0] * tree.order
            total += tree.multiplicity * nested(tree, tree.order, taus, t2)
    return total


# ---------------------------------------------------------------------------
# invariance diagnostic
# ---------------------------------------------------------------------------


def invariance_scan(
    f: SymFunctional,
    traj: list[EvolutionState],
    t1: float,
    t2: float,
    chart: ChartMap,
    substeps: int = 1,
    cap: int = DEFAULT_DEGREE_CAP,
):
    """Transported value ``(U_{t1}^{t} f)(Theta_t u)`` at each trajectory node.

    Under exact arithmetic the sequence is constant, equal to
    ``f(Theta_{t1} u)``.  Returns (times, values, drift, events).

    One Chebyshev-Picard panel over [t1, t2] (``picard_nodes`` at density
    ``substeps``) carries ``f``; its values reach the trajectory times by
    polynomial interpolation ``L`` through the panel's Chebyshev
    coefficients.  With ``W = L . S`` the value at node ``i`` is
    ``f(c_i) + sum_l W[i, l] K_l(c_i)``, accumulated one final-sweep term
    ``K_l`` at a time on per-degree monomial matrices of the trajectory
    coordinates ``c_i``.
    """
    nodes = [st for st in traj if min(t1, t2) - 1e-12 <= st.time <= max(t1, t2) + 1e-12]
    times = np.array([st.time for st in nodes])
    nonlin = nodes[0].nonlin
    coords = np.array([chart.coords_of(st.current) for st in nodes])
    powers: dict[int, np.ndarray] = {}

    def values_of(term: SymTensor) -> np.ndarray:
        if term.degree not in powers:
            powers[term.degree] = monomials(coords, term.degree)
        return powers[term.degree] @ term.coeffs[0]

    values = sum((values_of(t) for t in f.terms), np.zeros(len(nodes)))
    degrees = set(f.degrees)
    events: list[TruncationEvent] = []
    if t1 != t2:
        pn, S, final = _picard(f, t1, t2, nonlin, chart, substeps, cap)
        W = _interpolation_matrix(pn.size, 2 * (times - t1) / (t2 - t1) - 1) @ S
        for l, K in enumerate(final):
            for term in K.terms:
                values += W[:, l] * values_of(term)
            degrees.update(K.degrees)
        events = _truncation_events(pn, degrees, nonlin, cap)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"transported values diverged on [{t1}, {t2}]")
    drift = float(np.max(np.abs(values - values[0])))
    return times, values, drift, events


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificationRecord:
    radius_in: float
    span: float
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
    as their sups over the window.
    """
    if nonlin.is_zero:
        return MajorantSeries([])
    a, b = chart._block_norm_sups(float(np.max(np.abs(times))))
    out = np.zeros(max(nonlin.coeffs) + 1)
    for k, lam in nonlin.coeffs.items():
        out[k] = abs(lam) * math.sqrt(2.0) * b * a**k
    return MajorantSeries(out)


def certify_window(
    f_majorant: MajorantSeries,
    X: MajorantSeries,
    R: float,
    T: float,
    floor: float = DEFAULT_FLOOR,
    uf_majorant: MajorantSeries | None = None,
) -> CertificationRecord:
    """Transport-window certificate: radii before/after the backward flow.

    The window holds when the backward flow from ``R`` stays above ``floor``
    over the span, that is when ``flow_time(X, floor, R) > |T|``; otherwise
    ``measured_window`` is that flow time (0 when ``floor >= R``).  The
    certified radius ``r' = e^{-|T| X}(R)`` solves
    ``flow_time(X, r', R) = |T|`` by ``brentq`` in ``log r'``.  When a
    concretely transported functional's majorant is supplied, additionally
    checks the norm contraction ``[[U f]](r') <= [[f]](R)``.
    """
    T = abs(T)
    f_at_R = series_eval(f_majorant, R)
    record = dict(radius_in=R, span=T, f_majorant_at_R=f_at_R)
    t_floor = flow_time(X, floor, R) if floor < R else 0.0
    if t_floor <= T:
        return CertificationRecord(
            **record, certified_radius=0.0, window_ok=False, measured_window=t_floor
        )
    if T == 0.0 or X.is_zero:
        r_prime = R
    else:
        u = brentq(
            lambda u: flow_time(X, min(math.exp(u), R), R) - T,
            math.log(floor),
            math.log(R),
            xtol=_RADIUS_XTOL,
            rtol=_RADIUS_RTOL,
        )
        # the root of the quadrature lies within xtol + rtol |u| of u; the
        # lower end of that interval keeps r' at or below the exact flow
        r_prime = math.exp(u - (_RADIUS_XTOL + _RADIUS_RTOL * abs(u)))
    record.update(certified_radius=r_prime, window_ok=True)
    if uf_majorant is not None:
        uf_val = series_eval(uf_majorant, r_prime)
        record["uf_majorant_at_radius"] = uf_val
        record["transport_ok"] = bool(uf_val <= f_at_R * (1 + 1e-12))
    return CertificationRecord(**record)


# ---------------------------------------------------------------------------
# scan dump
# ---------------------------------------------------------------------------


def invariance_csv(
    times: np.ndarray,
    values: np.ndarray,
    certified_radius: float,
    events: list[TruncationEvent],
    path: str,
    header_comment: str = "",
) -> None:
    """Columns: (t, functional_value, running_drift, certified_radius, truncation_events)."""
    running = np.maximum.accumulate(np.abs(values - values[0]))
    # an event counts from the row whose interval holds it, in the direction of travel
    sign = -1.0 if times[-1] < times[0] else 1.0
    pos = np.searchsorted(sign * times, sign * np.array([ev.time for ev in events]), side="right") - 1
    ev_count = np.cumsum(np.bincount(np.maximum(pos, 0), minlength=len(times)))
    with open(path, "w") as fh:
        if header_comment:
            for ln in header_comment.splitlines():
                fh.write(f"# {ln}\n")
        fh.write("t,functional_value,running_drift,certified_radius,truncation_events\n")
        for i in range(len(times)):
            fh.write(
                f"{float(times[i])!r},{float(values[i])!r},{float(running[i])!r},"
                f"{certified_radius!r},{int(ev_count[i])}\n"
            )
