"""Tests for the functional transport layer: operator action, trees, invariance."""

import math

import numpy as np
import pytest

from chrono_duhamel import chrono
from chrono_duhamel.chrono import (
    ChartMap,
    TruncationEvent,
    certify_window,
    chrono_exp_evolve,
    evaluate_trees,
    invariance_csv,
    invariance_scan,
    picard_nodes,
    point_eval_functional,
    transport_majorant,
    tree_expand,
    vdot,
)
from chrono_duhamel.dynamics import NonlinearitySpec, evolve, lagrange_duhamel_V
from chrono_duhamel.propagator import (
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    cau_norm,
    make_free_solution,
)
from chrono_duhamel.series import MajorantSeries, eval_series as series_eval
from chrono_duhamel.symfun import (
    SymFunctional,
    SymTensor,
    coefficient_l1,
    eval_homogeneous,
    eval_series,
    num_canonical,
)

from oracles import directional_derivative, rk4_transport

GRID = Grid(8, 2 * np.pi)
KG1 = DispersionRelation("klein_gordon", 1.0)
CUBIC = NonlinearitySpec.cubic(1.0)
CHART = ChartMap(GRID, KG1, s=0.0, m_ref=1.0)


def bench_solution(amp=0.05):
    data = CauchyData(GRID, amp * np.cos(2 * np.pi * GRID.x / GRID.Lx), np.zeros(GRID.M), 0.0)
    return make_free_solution(KG1, data)


# ---------------------------------------------------------------------------
# chart coordinates
# ---------------------------------------------------------------------------


def test_chart_norm_matches_cauchy_norm():
    rng = np.random.default_rng(0)
    for s in (0.0, 1.0, 0.5):
        chart = ChartMap(GRID, KG1, s=s, m_ref=1.0)
        for _ in range(10):
            data = CauchyData(GRID, rng.standard_normal(GRID.M), rng.standard_normal(GRID.M), 0.0)
            coords = chart.to_coords(data)
            assert chart.norm_spec.norm(coords) == pytest.approx(
                cau_norm(KG1, data, s, 1.0), rel=1e-12
            )


def test_chart_round_trip():
    rng = np.random.default_rng(1)
    data = CauchyData(GRID, rng.standard_normal(GRID.M), rng.standard_normal(GRID.M), 0.0)
    back = CHART.from_coords(CHART.to_coords(data))
    np.testing.assert_allclose(back.psi, data.psi, atol=1e-12)
    np.testing.assert_allclose(back.chi, data.chi, atol=1e-12)


def test_point_eval_functional_samples_the_field():
    rng = np.random.default_rng(2)
    data = CauchyData(GRID, rng.standard_normal(GRID.M), rng.standard_normal(GRID.M), 0.0)
    fs = make_free_solution(KG1, data)
    for t_pt, x_idx in [(0.0, 0), (0.45, 3), (-1.2, 5)]:
        f = point_eval_functional(CHART, t_pt, x_idx)
        from chrono_duhamel.propagator import sample_at

        expected = sample_at(KG1, fs, t_pt).psi[x_idx]
        assert eval_series(f, CHART.coords_of(fs))[0] == pytest.approx(expected, rel=1e-11)


# ---------------------------------------------------------------------------
# the first-order operator
# ---------------------------------------------------------------------------


def test_vdot_of_constant_vanishes():
    one = SymFunctional([SymTensor(0, CHART.dim, [[1.0]])])
    assert not vdot(0.3, one, KG1, CUBIC, CHART).terms


def test_vdot_zero_nonlinearity():
    f = point_eval_functional(CHART, 0.0, 0)
    assert not vdot(0.2, f, KG1, NonlinearitySpec.zero(), CHART).terms


def test_vdot_linear_gives_cubic_term():
    f = point_eval_functional(CHART, 0.0, 0)
    assert vdot(0.0, f, KG1, CUBIC, CHART).degrees == (3,)


def test_vdot_truncation_recorded():
    f = SymFunctional([SymTensor(1, CHART.dim, np.ones(CHART.dim))])
    assert not vdot(0.0, f, KG1, CUBIC, CHART, cap=2).terms
    events = chrono._truncation_events(np.array([0.0]), f.degrees, CUBIC, 2)
    assert events == [TruncationEvent(0.0, 1, 3)]


def test_vdot_pointwise_consistency():
    # eval(vdot f, c) == directional derivative of f at c along Vbar_t(c)
    rng = np.random.default_rng(3)
    f = SymFunctional(
        [
            SymTensor(1, CHART.dim, rng.standard_normal(CHART.dim)),
            SymTensor(3, CHART.dim, 0.1 * rng.standard_normal(num_canonical(CHART.dim, 3))),
        ]
    )
    for t in (0.0, 0.37, -0.6):
        out = vdot(t, f, KG1, CUBIC, CHART, cap=7)
        for _ in range(5):
            c = 0.3 * rng.standard_normal(CHART.dim)
            phi = FreeSolution(CHART.from_coords(c))
            v = lagrange_duhamel_V(t, phi, KG1, CUBIC)
            v_coords = CHART.coords_of(v)
            lhs = eval_series(out, c)[0]
            rhs = directional_derivative(f, c, v_coords)[0]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


def test_vertex_tensor_matches_field_on_diagonal():
    # V^(3) evaluated on equal arguments equals the cubic Lagrange-Duhamel lift
    from chrono_duhamel.symfun import eval_diagonal

    rng = np.random.default_rng(4)
    t = 0.51
    V3 = CHART.vertex_tensors(CUBIC, t)[3]
    c = 0.4 * rng.standard_normal(CHART.dim)
    phi = FreeSolution(CHART.from_coords(c))
    expected = CHART.coords_of(lagrange_duhamel_V(t, phi, KG1, CUBIC))
    np.testing.assert_allclose(eval_diagonal(V3, c), expected, rtol=1e-10, atol=1e-13)


def test_newformula_coefficient_domination_small():
    # l1-upper norms obey the operator coefficient law exactly
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        degrees = sorted(set(rng.integers(1, 4, size=2)))
        f = SymFunctional(
            [SymTensor(p, d, rng.standard_normal((1, num_canonical(d, p)))) for p in degrees]
        )
        q = int(rng.integers(0, 4))
        V = SymTensor(q, d, rng.standard_normal((d, num_canonical(d, q))))
        from chrono_duhamel.symfun import compose_first_slot

        by_m = {}
        for term in f.terms:
            comp = compose_first_slot(term, V).scaled(term.degree)
            by_m[comp.degree] = comp if comp.degree not in by_m else by_m[comp.degree] + comp
        for m, out in by_m.items():
            bound = 0.0
            for term in f.terms:
                if term.degree + q - 1 == m:
                    bound += term.degree * coefficient_l1(V) * coefficient_l1(term)
            assert coefficient_l1(out) <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the time-ordered exponential
# ---------------------------------------------------------------------------


def test_transport_identity_at_equal_times():
    f = point_eval_functional(CHART, 0.0, 0)
    out, _ = chrono_exp_evolve(f, 0.4, 0.4, 0, KG1, CUBIC, CHART)
    assert out.degrees == f.degrees
    np.testing.assert_allclose(out.term(1).coeffs, f.term(1).coeffs)


def test_transport_trivial_for_zero_field():
    f = point_eval_functional(CHART, 0.0, 0)
    out, _ = chrono_exp_evolve(f, 0.0, 0.8, 16, KG1, NonlinearitySpec.zero(), CHART)
    np.testing.assert_allclose(out.term(1).coeffs, f.term(1).coeffs)
    assert out.degrees == (1,)


def test_transport_reversal():
    f = point_eval_functional(CHART, 0.0, 2)
    fwd, _ = chrono_exp_evolve(f, 0.0, 0.3, 24, KG1, CUBIC, CHART)
    back, _ = chrono_exp_evolve(fwd, 0.3, 0.0, 24, KG1, CUBIC, CHART)
    for term in back.terms:
        ref = f.term(term.degree)
        if ref is None:
            assert np.max(np.abs(term.coeffs)) < 1e-8
        else:
            np.testing.assert_allclose(term.coeffs, ref.coeffs, atol=1e-8)


def test_transport_needs_a_step_on_a_nonempty_span():
    f = point_eval_functional(CHART, 0.0, 0)
    with pytest.raises(ValueError):
        chrono_exp_evolve(f, 0.0, 1.0, 0, KG1, CUBIC, CHART)


def _cosine_problem(M, mass=1.0, Lx=2 * np.pi, amp=0.3):
    grid = Grid(M, Lx)
    disp = DispersionRelation("klein_gordon", mass)
    chart = ChartMap(grid, disp)
    data = CauchyData(grid, amp * np.cos(2 * np.pi * grid.x / grid.Lx), np.zeros(M), 0.0)
    return disp, chart, data


@pytest.mark.parametrize(
    "M, coeffs, mass, Lx, t1, t2, intervals",
    [
        (8, {3: 1.0}, 1.0, 2 * np.pi, 0.0, 2.0, 80),
        (8, {3: 1.0}, 1.0, 2 * np.pi, 0.5, -0.5, 80),
        (8, {2: 0.3, 3: 0.8}, 2.0, 2 * np.pi, 0.0, 1.0, 80),
        (8, {2: 1.0}, 1.0, 4.0, 0.0, 1.0, 80),
        # RK4 costs 0.2 s per operator application at dimension 32; 2 x 10
        # steps are within 1.5e-10 of 2 x 20 there
        (16, {3: 1.0}, 1.0, 2 * np.pi, 0.0, 0.5, 10),
    ],
    ids=["cubic-forward", "cubic-backward", "mixed-mass2", "quadratic-Lx4", "cubic-M16"],
)
def test_picard_transport_matches_rk4_oracle(M, coeffs, mass, Lx, t1, t2, intervals):
    disp, chart, data = _cosine_problem(M, mass, Lx)
    nonlin = NonlinearitySpec(coeffs)
    f = point_eval_functional(chart, 0.0, 0)
    c = chart.coords_of(make_free_solution(disp, data))
    F, _ = chrono_exp_evolve(f, t1, t2, 1, disp, nonlin, chart)
    ref = rk4_transport(f, np.linspace(t1, t2, intervals + 1), disp, nonlin, chart, substeps=2)[-1]
    assert eval_series(F, c)[0] == pytest.approx(eval_series(ref, c)[0], abs=1e-9)


@pytest.mark.parametrize(
    "coeffs",
    [{1: 0.5, 3: 1.0}, {0: 0.2, 3: 1.0}, {1: 2.0, 2: 0.5}],
    ids=["linear", "constant", "strong-linear"],
)
def test_picard_settles_when_the_operator_is_not_nilpotent(coeffs, monkeypatch):
    # a degree-0 or degree-1 term keeps the degree from rising: sweeps run to
    # PICARD_RTOL, well inside the sweep cap
    disp, chart, data = _cosine_problem(8)
    nonlin = NonlinearitySpec(coeffs)
    f = point_eval_functional(chart, 0.0, 0)
    c = chart.coords_of(make_free_solution(disp, data))
    monkeypatch.setattr(chrono, "PICARD_MAX_SWEEPS", 15)
    F, _ = chrono_exp_evolve(f, 0.0, 1.0, 1, disp, nonlin, chart)
    ref = rk4_transport(f, np.linspace(0.0, 1.0, 41), disp, nonlin, chart, substeps=2)[-1]
    assert eval_series(F, c)[0] == pytest.approx(eval_series(ref, c)[0], abs=1e-9)


def test_picard_sweep_cap_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(chrono, "PICARD_MAX_SWEEPS", 1)
    f = point_eval_functional(CHART, 0.0, 0)
    with pytest.raises(FloatingPointError):
        chrono_exp_evolve(f, 0.0, 1.0, 1, KG1, NonlinearitySpec({1: 0.5, 3: 1.0}), CHART)


def test_invariance_scan_interpolates_every_path_node():
    # each of the 41 values is the transported functional at that node,
    # evaluated on the trajectory's free solution there
    disp, chart, data = _cosine_problem(8)
    traj = evolve(data, 0.0, 0.5, 0.0125, disp, CUBIC)
    f = point_eval_functional(chart, 0.0, 0)
    times, values, _, _ = invariance_scan(f, traj, 0.0, 0.5, chart, substeps=2)
    path = rk4_transport(f, times, disp, CUBIC, chart, substeps=4)
    expected = [eval_series(F, chart.coords_of(st.current))[0] for F, st in zip(path, traj)]
    assert len(values) == 41
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-10)


def test_picard_applies_the_operator_once_per_node_and_sweep(monkeypatch):
    # the cubic at cap 5 is exact after two sweeps from a linear functional
    calls = []

    def counted(t, *args, **kwargs):
        calls.append(t)
        return vdot(t, *args, **kwargs)

    monkeypatch.setattr(chrono, "vdot", counted)
    f = point_eval_functional(CHART, 0.0, 0)
    chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, CUBIC, CHART, cap=5)
    nodes = picard_nodes(f, 0.0, 0.5, CUBIC, CHART, 1, 5)
    assert len(nodes) == math.ceil(2 * 4 * math.sqrt(17) * 0.5 / 2) + 8
    assert calls == list(nodes) * 2


@pytest.mark.parametrize("cap", [3, 5])
def test_truncation_events_mean_what_the_cap_drops(cap):
    # one event per node: the top stored degree would leave the cap
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, CUBIC)
    f = point_eval_functional(CHART, 0.0, 0)
    nodes = picard_nodes(f, 0.0, 0.5, CUBIC, CHART, 2, cap)
    _, _, _, events = invariance_scan(f, traj, 0.0, 0.5, CHART, substeps=2, cap=cap)
    assert [ev.time for ev in events] == list(nodes)
    assert {(ev.in_degree, ev.out_degree) for ev in events} == {(cap, cap + 2)}
    _, events = chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, CUBIC, CHART, cap=cap)
    assert len(events) == len(picard_nodes(f, 0.0, 0.5, CUBIC, CHART, 1, cap))


def test_truncation_events_column_follows_a_backward_span(tmp_path):
    # row i counts the events met before the next trajectory time, going from t1 to t2
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.5)
    traj = evolve(data, 0.5, 0.0, 0.05, KG1, CUBIC)
    f = point_eval_functional(CHART, 0.0, 0)
    times, values, _, events = invariance_scan(f, traj, 0.5, 0.0, CHART, substeps=2)
    path = tmp_path / "invariance.csv"
    invariance_csv(times, values, 0.1, events, str(path))
    column = [int(l.split(",")[4]) for l in path.read_text().splitlines()[1:]]
    expected = [sum(ev.time > t for ev in events) for t in times[1:]] + [len(events)]
    assert column == expected


def test_truncation_events_none_without_a_nonlinearity():
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    zero = NonlinearitySpec.zero()
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, zero)
    f = point_eval_functional(CHART, 0.0, 0)
    assert invariance_scan(f, traj, 0.0, 0.5, CHART, substeps=2)[3] == []
    assert chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, zero, CHART)[1] == []


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def test_tree_catalogue_orders_0_1_2():
    f = point_eval_functional(CHART, 0.0, 0)
    trees, _ = tree_expand(f, 0.0, 0.25, 2, KG1, CUBIC, CHART)
    by_order = {}
    for tr in trees:
        by_order.setdefault(tr.order, []).append(tr)
    assert len(by_order[0]) == 1 and by_order[0][0].multiplicity == 1
    assert len(by_order[1]) == 1 and by_order[1][0].multiplicity == 1
    assert len(by_order[2]) == 1 and by_order[2][0].multiplicity == 3


def test_tree_order3_catalogue():
    f = point_eval_functional(CHART, 0.0, 0)
    trees, _ = tree_expand(f, 0.0, 0.25, 3, KG1, CUBIC, CHART)
    order3 = [tr for tr in trees if tr.order == 3]
    # chain (mult 3*3) and double-attachment (mult 3*2)
    assert sorted(tr.multiplicity for tr in order3) == [6, 9]
    for tr in order3:
        assert all(tr.parents[a] < a + 1 for a in range(tr.order))


def test_tree_order0_is_plain_evaluation():
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution()
    trees, evaluator = tree_expand(f, 0.0, 0.25, 0, KG1, CUBIC, CHART)
    assert evaluator(u) == pytest.approx(eval_series(f, CHART.coords_of(u))[0], rel=1e-12)


def test_tree_order1_matches_direct_quadrature():
    # single-vertex tree: - the integral of the Green-paired cube; oracle by
    # dense trapezoid quadrature of the explicitly assembled integrand
    from chrono_duhamel.propagator import sample_at

    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=0.4)
    t1, t2 = 0.0, 0.3
    trees, _ = tree_expand(f, t1, t2, 1, KG1, CUBIC, CHART)
    first_order = [tr for tr in trees if tr.order == 1]
    val = evaluate_trees(first_order, f, u, t1, t2, KG1, CUBIC, CHART)
    taus = np.linspace(t1, t2, 4001)
    row = f.term(1).coeffs[0]
    samples = []
    for tau in taus:
        lift = CHART.green_columns(float(tau)) @ sample_at(KG1, u, float(tau)).psi ** 3
        samples.append(row @ lift)
    oracle = np.trapezoid(samples, taus)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_tree_order1_backward_orientation_sign():
    # transporting backward (t2 < t1) flips the first correction's sign:
    # the order-1 term equals  - integral_{t2}^{t1} of the Green-paired cube
    from chrono_duhamel.propagator import sample_at

    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=0.4)
    t1, t2 = 0.3, 0.0
    trees, _ = tree_expand(f, t1, t2, 1, KG1, CUBIC, CHART)
    first_order = [tr for tr in trees if tr.order == 1]
    val = evaluate_trees(first_order, f, u, t1, t2, KG1, CUBIC, CHART)
    taus = np.linspace(t2, t1, 4001)
    row = f.term(1).coeffs[0]
    samples = [
        row @ (CHART.green_columns(float(tau)) @ sample_at(KG1, u, float(tau)).psi ** 3)
        for tau in taus
    ]
    oracle = -np.trapezoid(samples, taus)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_tree_tensor_equivalence_order2():
    # dense-tensor transport vs lazy-tree quadrature on the same object
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=0.3)
    c = CHART.coords_of(u)
    t1, t2 = 0.0, 0.25
    trees, evaluator = tree_expand(f, t1, t2, 2, KG1, CUBIC, CHART)
    tree_total = evaluator(u)
    F, _ = chrono_exp_evolve(f, t1, t2, 40, KG1, CUBIC, CHART, cap=5)
    tensor_total = eval_series(F, c)[0]
    assert tree_total == pytest.approx(tensor_total, abs=1e-10, rel=1e-8)


def test_tree_tensor_equivalence_backward():
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=0.3)
    c = CHART.coords_of(u)
    t1, t2 = 0.25, 0.0
    trees, evaluator = tree_expand(f, t1, t2, 2, KG1, CUBIC, CHART)
    F, _ = chrono_exp_evolve(f, t1, t2, 40, KG1, CUBIC, CHART, cap=5)
    assert evaluator(u) == pytest.approx(eval_series(F, c)[0], abs=1e-10, rel=1e-8)


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def test_invariance_free_dynamics():
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, NonlinearitySpec.zero())
    f = point_eval_functional(CHART, 0.0, 0)
    _, values, drift, _ = invariance_scan(f, traj, 0.0, 0.5, CHART)
    assert drift <= 1e-13
    assert values[0] == pytest.approx(data.psi[0], abs=1e-12)


def test_invariance_constant_functional():
    one = SymFunctional([SymTensor(0, CHART.dim, [[1.0]])])
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.4, 0.05, KG1, CUBIC)
    _, values, drift, _ = invariance_scan(one, traj, 0.0, 0.4, CHART)
    np.testing.assert_allclose(values, 1.0, atol=1e-14)
    assert drift <= 1e-14


def test_invariance_cubic_small_amplitude():
    data = CauchyData(GRID, 0.05 * np.cos(2 * np.pi * GRID.x / GRID.Lx), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.0125, KG1, CUBIC)
    f = point_eval_functional(CHART, 0.0, 0)
    _, values, drift, _ = invariance_scan(f, traj, 0.0, 0.5, CHART, substeps=2, cap=5)
    assert drift <= 1e-7
    assert values[0] == pytest.approx(data.psi[0], abs=1e-12)


# ---------------------------------------------------------------------------
# the transport majorant
# ---------------------------------------------------------------------------

MIXED = NonlinearitySpec({2: 0.3, 3: 0.8})
# a backward window; the majorant reads only its endpoints
WINDOW = np.array([0.5, -1.5])
MAJORANT_CHARTS = [
    ChartMap(GRID, KG1, s=0.0, m_ref=1.0),
    ChartMap(GRID, DispersionRelation("klein_gordon", 0.0)),
    ChartMap(GRID, KG1, s=0.5, m_ref=2.0),
    ChartMap(GRID, DispersionRelation("klein_gordon", 0.5), s=-0.5),
]
CHART_IDS = ["rotation", "massless", "mref2-s0.5", "mass0.5-s-0.5"]


def test_transport_majorant_zero_nonlinearity():
    assert transport_majorant(NonlinearitySpec.zero(), CHART, WINDOW).is_zero


@pytest.mark.parametrize("chart", MAJORANT_CHARTS, ids=CHART_IDS)
def test_transport_majorant_dominates_multilinear_components(chart):
    # ||V_t^(k)(c_1 ... c_k)|| <= X_k prod ||c_j|| in the chart norm at every
    # time inside the window, and X_k is at least the operator-norm product
    # |lam_k| sqrt(2) ||B(t)||_2 ||A(t)||_2^k it bounds in closed form
    rng = np.random.default_rng(9)
    X = transport_majorant(MIXED, chart, WINDOW)
    for t in np.linspace(*WINDOW, 2001):
        A, B = chart._rows_and_columns(float(t))
        a, b = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
        for k, lam in MIXED.coeffs.items():
            assert abs(lam) * math.sqrt(2) * b * a**k <= X.coeffs[k] * (1 + 1e-12)
    norm = chart.norm_spec.norm
    for t in np.linspace(*WINDOW, 201):
        for k, Vk in chart.vertex_tensors(MIXED, float(t)).items():
            for _ in range(5):
                cs = list(rng.standard_normal((k, chart.dim)))
                val = norm(eval_homogeneous(Vk, cs))
                assert val <= X.coeffs[k] * np.prod([norm(c) for c in cs]) * (1 + 1e-10)


@pytest.mark.parametrize("chart", MAJORANT_CHARTS, ids=CHART_IDS)
def test_transport_majorant_dominates_field_norm(chart):
    # ||coords(V_t(phi))|| <= X(||c||) for the Lagrange-Duhamel field itself
    rng = np.random.default_rng(8)
    X = transport_majorant(MIXED, chart, WINDOW)
    norm = chart.norm_spec.norm
    for t in np.linspace(*WINDOW, 201):
        for _ in range(5):
            c = rng.uniform(0.05, 2.0) * rng.standard_normal(chart.dim)
            phi = FreeSolution(chart.from_coords(c))
            v = lagrange_duhamel_V(float(t), phi, chart.disp, MIXED)
            assert norm(chart.coords_of(v)) <= series_eval(X, norm(c)) * (1 + 1e-10)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_zero_field():
    rec = certify_window(MajorantSeries([0, 1.0]), MajorantSeries([]), 0.7, 2.0)
    assert rec.window_ok and rec.certified_radius == pytest.approx(0.7)
    assert rec.f_majorant_at_R == pytest.approx(0.7)


def test_certify_cubic_closed_form():
    X = MajorantSeries([0, 0, 0, 2.0])
    rec = certify_window(MajorantSeries([0, 1.0]), X, 1.0, 1.0)
    assert rec.window_ok
    assert rec.certified_radius == pytest.approx(1 / math.sqrt(5), rel=1e-8)


def test_certify_window_exceeded():
    X = MajorantSeries([1.0])
    rec = certify_window(MajorantSeries([0, 1.0]), X, 0.5, 2.0, floor=0.01)
    assert not rec.window_ok
    assert rec.measured_window == pytest.approx(0.49, abs=1e-6)
    # a floor at or above the radius leaves no window at all
    rec = certify_window(MajorantSeries([0, 1.0]), X, 0.5, 2.0, floor=0.5)
    assert not rec.window_ok and rec.certified_radius == 0.0 and rec.measured_window == 0.0


def test_certified_transport_contraction():
    # the l1-norm system satisfies the operator law, so the transported
    # majorant evaluated at the contracted radius stays below the input one
    f = point_eval_functional(CHART, 0.0, 0)
    t1, t2, steps = 0.0, 0.2, 20
    stage_times = np.linspace(t1, t2, 2 * steps + 1)
    X = transport_majorant(CUBIC, CHART, stage_times)
    F, _ = chrono_exp_evolve(f, t1, t2, steps, KG1, CUBIC, CHART, cap=5)
    from chrono_duhamel.symfun import majorant_of

    R = 0.2
    rec = certify_window(
        majorant_of(f, CHART.norm_spec),
        X,
        R,
        t2 - t1,
        floor=1e-6,
        uf_majorant=majorant_of(F, CHART.norm_spec),
    )
    assert rec.window_ok
    assert rec.transport_ok
