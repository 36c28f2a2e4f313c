"""Time-ordered transport of functionals of Cauchy data.

Functionals live over *normalized chart coordinates*: the Cauchy-data
chart at reference time 0, expressed in the weighted real-Fourier basis
in which the discrete Cauchy norm is the plain sum of the two block
Euclidean norms.  This makes the coefficient-l1 tensor norms compatible
with the norm the majorant calculus bounds.

The first-order operator action is

    (V.f)^(m) = sym[ sum_p p f^(p) o (V^(q) (x) id^{p-1}) ],  q = m - p + 1,

with the vertex tensors ``V^(k)`` assembled as rank-one sums over grid
nodes: sampling row times Green-lift column, one per node.  The
time-ordered exponential is computed by integrating dF/dt = V_t . F in
coefficient space (the differentiated form of the nested-integral
recursion); the rooted-tree expansion below keeps the explicit
simplex-quadrature semantics as an independent check of the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
    coefficient_l1,
    compose_first_slot,
    eval_series,
    functional_add,
)

__all__ = [
    "ChartMap",
    "FeynmanTree",
    "TruncationEvent",
    "CertificationRecord",
    "point_eval_functional",
    "vdot",
    "chrono_exp_evolve",
    "chrono_exp_path",
    "tree_expand",
    "evaluate_trees",
    "invariance_scan",
    "transport_majorant",
    "certify_window",
    "invariance_csv",
]

DEFAULT_DEGREE_CAP = 5

# vertex-tensor entries a ChartMap keeps (see ChartMap)
_VERTEX_CACHE_SIZE = 4

# brentq tolerances in log r' for the certified radius (rtol at brentq's floor)
_RADIUS_XTOL, _RADIUS_RTOL = 1e-14, 4 * np.finfo(float).eps


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

    The vertex tensors of at most 4 (time, nonlinearity) keys are kept,
    and the oldest is evicted first: one RK4 step asks for three distinct
    stage times, so a transport reuses each entry while the cache stays
    the same size however long the time grid.
    """

    def __init__(self, grid: Grid, disp: DispersionRelation, s: float = 0.0, m_ref: float = 1.0):
        if disp.kind != KLEIN_GORDON:
            raise NotImplementedError("functional transport is wired to the second-order kind")
        self.grid = grid
        self.disp = disp
        self.s = float(s)
        self.m_ref = float(m_ref)
        M = grid.M
        self.dim = 2 * M
        O, freq_idx = _orthonormal_real_dft(M)
        xi_abs = 2 * np.pi * freq_idx / grid.Lx
        w = np.sqrt(m_ref**2 + xi_abs**2)
        sq = math.sqrt(grid.dx)
        self._W_psi = sq * (w**s)[:, None] * O
        self._W_chi = sq * (w ** (s - disp.r_order))[:, None] * O
        self._Winv_psi = O.T * (w ** (-s))[None, :] / sq
        self._Winv_chi = O.T * (w ** (disp.r_order - s))[None, :] / sq
        self.norm_spec = VectorNorm.two_block(self.dim, M)
        self._vertex_cache: dict[tuple, dict[int, SymTensor]] = {}

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

    def _mode_matrices(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Grid-space matrices (C, S): cos and sin/eps at elapsed t."""
        M = self.grid.M
        c, snc = _wave_factors(self.disp.eps(self.grid.xi), t)
        eye_hat = np.fft.fft(np.eye(M), axis=0)
        C = np.fft.ifft(c[:, None] * eye_hat, axis=0).real
        S = np.fft.ifft(snc[:, None] * eye_hat, axis=0).real
        return C, S

    def _rows_and_columns(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Sampling rows and Green-lift columns at time t from one set of mode matrices."""
        M = self.grid.M
        C, S = self._mode_matrices(t)
        top = np.hstack([self._Winv_psi, np.zeros((M, M))])
        bot = np.hstack([np.zeros((M, M)), self._Winv_chi])
        rows = C @ top + S @ bot
        # chart of the lift of (0, e_x) at t: psi0 = -S e_x, chi0 = C e_x
        columns = np.vstack([self._W_psi @ (-S), self._W_chi @ C])
        return rows, columns

    def sampling_rows(self, t: float) -> np.ndarray:
        """(M, dim) matrix: normalized coords -> field trace values at time t."""
        return self._rows_and_columns(t)[0]

    def green_columns(self, t: float) -> np.ndarray:
        """(dim, M) matrix: source field on slice t -> coords of its Green lift."""
        return self._rows_and_columns(t)[1]

    def vertex_tensors(self, nonlin: NonlinearitySpec, t: float) -> dict[int, SymTensor]:
        """Degree components of the Lagrange-Duhamel field in chart coordinates."""
        key = (float(t), tuple(sorted(nonlin.coeffs.items())))
        if key not in self._vertex_cache:
            A, B = self._rows_and_columns(t)
            if len(self._vertex_cache) >= _VERTEX_CACHE_SIZE:
                del self._vertex_cache[next(iter(self._vertex_cache))]
            self._vertex_cache[key] = {
                k: SymTensor.from_rank_one_sum(B, A, degree=k, scale=v)
                for k, v in nonlin.coeffs.items()
            }
        return self._vertex_cache[key]


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
) -> tuple[SymFunctional, list[TruncationEvent]]:
    """Apply the operator ``f -> delta f (V_t)`` degree by degree.

    Output degree ``m`` collects ``p f^(p) o (V^(m-p+1) (x) id^(p-1))``
    over the stored degrees ``p`` and the nonlinearity degrees.  Degrees
    above ``cap`` are dropped and recorded.
    """
    if f.terms and f.dim != chart.dim:
        raise ValueError("functional dimension does not match the chart")
    vertices = chart.vertex_tensors(nonlin, t)
    out: dict[int, SymTensor] = {}
    events: list[TruncationEvent] = []
    for term in f.terms:
        p = term.degree
        if p == 0:
            continue
        for k, Vk in vertices.items():
            m = p + k - 1
            if m > cap:
                events.append(TruncationEvent(t, p, m))
                continue
            comp = compose_first_slot(term, Vk).scaled(float(p))
            out[m] = comp if m not in out else out[m] + comp
    return SymFunctional(out.values()), events


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
    """Transport ``f`` from t1 to t2: RK4 on dF/dt = V_t . F, F(t1) = f."""
    path, events = chrono_exp_path(f, np.linspace(t1, t2, steps + 1), disp, nonlin, chart, cap=cap)
    return path[-1], events


def chrono_exp_path(
    f: SymFunctional,
    times: np.ndarray,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
    chart: ChartMap,
    substeps: int = 1,
    cap: int = DEFAULT_DEGREE_CAP,
) -> tuple[list[SymFunctional], list[TruncationEvent]]:
    """Transported functional at each node of a monotone time grid."""
    events: list[TruncationEvent] = []

    def rhs(tau, F):
        out, ev = vdot(tau, F, disp, nonlin, chart, cap=cap)
        events.extend(ev)
        return out

    path = [f]
    F = f
    for a in range(len(times) - 1):
        h_total = times[a + 1] - times[a]
        for b in range(substeps):
            t = times[a] + h_total * b / substeps
            h = h_total / substeps
            k1 = rhs(t, F)
            k2 = rhs(t + h / 2, functional_add(F, k1, h / 2))
            k3 = rhs(t + h / 2, functional_add(F, k2, h / 2))
            k4 = rhs(t + h, functional_add(F, k3, h))
            F = functional_add(F, k1, h / 6)
            F = functional_add(F, k2, h / 3)
            F = functional_add(F, k3, h / 3)
            F = functional_add(F, k4, h / 6)
            for term in F.terms:
                if not np.all(np.isfinite(term.coeffs)):
                    raise FloatingPointError(f"functional coefficients diverged near t = {t}")
        path.append(F)
    return path, events


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
    quad_order: int = 8,
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
        return evaluate_trees(trees, f_linear, u, t1, t2, disp, nonlin, chart, quad_order)

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
    quad_order: int = 8,
) -> float:
    """Sum of the tree contributions applied to the free solution ``u``."""
    (k, lam), = nonlin.coeffs.items()
    grid = chart.grid
    eps = disp.eps(grid.xi)
    f_row = f_linear.term(1).coeffs[0]
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)

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
    """
    nodes = [st for st in traj if min(t1, t2) - 1e-12 <= st.time <= max(t1, t2) + 1e-12]
    times = np.array([st.time for st in nodes])
    disp, nonlin = nodes[0].disp, nodes[0].nonlin
    path, events = chrono_exp_path(f, times, disp, nonlin, chart, substeps=substeps, cap=cap)
    values = np.array(
        [float(eval_series(F, chart.coords_of(st.current))[0]) for F, st in zip(path, nodes)]
    )
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
    """Majorant built from the coefficient-l1 norms of the vertex tensors.

    ``X_k`` is the maximum over the supplied time nodes of ``coefficient_l1``
    of the degree-k vertex tensor; with the transported computation
    evaluated on the same nodes this dominates every operator application
    the transport performs.
    """
    if nonlin.is_zero:
        return MajorantSeries([])
    out = np.zeros(max(nonlin.coeffs) + 1)
    for t in times:
        for k, Vk in chart.vertex_tensors(nonlin, float(t)).items():
            out[k] = max(out[k], coefficient_l1(Vk))
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
    ev_count = np.zeros(len(times), dtype=int)
    for ev in events:
        pos = np.searchsorted(times, ev.time, side="right") - 1
        ev_count[max(pos, 0)] += 1
    with open(path, "w") as fh:
        if header_comment:
            for ln in header_comment.splitlines():
                fh.write(f"# {ln}\n")
        fh.write("t,functional_value,running_drift,certified_radius,truncation_events\n")
        for i in range(len(times)):
            fh.write(
                f"{float(times[i])!r},{float(values[i])!r},{float(running[i])!r},"
                f"{certified_radius!r},{int(np.sum(ev_count[: i + 1]))}\n"
            )
