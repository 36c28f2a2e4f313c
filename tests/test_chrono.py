"""Tests for the functional transport layer: operator action, trees, invariance."""

import math

import numpy as np
import pytest

from chrono_duhamel import chrono, symfun
from chrono_duhamel.chrono import (
    ChartMap,
    certify_window,
    chrono_exp_evolve,
    evaluate_trees,
    invariance_scan,
    point_eval_functional,
    transport_majorant,
    tree_expand,
)
from chrono_duhamel.dynamics import NonlinearitySpec, evolve
from chrono_duhamel.propagator import (
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    cau_norm,
    make_free_solution,
    propagate,
)
from chrono_duhamel.series import DEFAULT_FLOOR, MajorantSeries, eval_series as series_eval
from chrono_duhamel.symfun import (
    SymFunctional,
    SymTensor,
    VectorNorm,
    coefficient_l1,
    eval_series,
    num_canonical,
)

from oracles import (
    chart_field,
    directional_derivative,
    eval_homogeneous,
    nested_trees_reference,
    power_by_products,
    real_dft_reference,
    rk4_transport,
    vdot_reference,
    vertex_tensors,
)

GRID = Grid(8, 2 * np.pi)
KG1 = DispersionRelation("klein_gordon", 1.0)
CUBIC = NonlinearitySpec({3: 1.0})
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
            coords = chart.coords_of(FreeSolution(data))
            assert VectorNorm.two_block(chart.dim, GRID.M).norm(coords) == pytest.approx(
                cau_norm(KG1, data, s, 1.0), rel=1e-12
            )


@pytest.mark.parametrize("M", [4, 8, 32, 256])
def test_real_dft_basis_has_the_bits_of_the_row_by_row_construction(M):
    rows, freqs = chrono._orthonormal_real_dft(M)
    ref_rows, ref_freqs = real_dft_reference(M)
    assert rows.shape == ref_rows.shape and rows.tobytes() == ref_rows.tobytes()
    assert freqs.dtype == ref_freqs.dtype and np.array_equal(freqs, ref_freqs)


def test_chart_round_trip():
    rng = np.random.default_rng(1)
    data = CauchyData(GRID, rng.standard_normal(GRID.M), rng.standard_normal(GRID.M), 0.0)
    back = CHART.from_coords(CHART.coords_of(FreeSolution(data)))
    np.testing.assert_allclose(back.psi, data.psi, atol=1e-12)
    np.testing.assert_allclose(back.chi, data.chi, atol=1e-12)


def test_point_eval_functional_samples_the_field():
    rng = np.random.default_rng(2)
    data = CauchyData(GRID, rng.standard_normal(GRID.M), rng.standard_normal(GRID.M), 0.0)
    fs = make_free_solution(KG1, data)
    for t_pt, x_idx in [(0.0, 0), (0.45, 3), (-1.2, 5)]:
        f = point_eval_functional(CHART, t_pt, x_idx)
        expected = propagate(KG1, fs.chart_data, t_pt).psi[x_idx]
        assert eval_series(f, CHART.coords_of(fs))[0] == pytest.approx(expected, rel=1e-11)


def _complex_data(imag):
    """Random complex-dtype Klein-Gordon data at t = 0 whose field trace has imaginary part ``imag`` times noise."""
    rng = np.random.default_rng(5)
    psi = 0.05 * rng.standard_normal(GRID.M) + 0.05j * imag * rng.standard_normal(GRID.M)
    return CauchyData(GRID, psi.astype(complex), np.zeros(GRID.M, dtype=complex), 0.0)


# the three readers of chart data, each returning an array of what it computes
CHART_READERS = {
    "coords_of": lambda data: CHART.coords_of(FreeSolution(data)),
    "invariance_scan": lambda data: invariance_scan(
        point_eval_functional(CHART), evolve(data, 0.0, 0.5, 0.0125, KG1, CUBIC), CHART
    )[1],
    "evaluate_trees": lambda data: np.array(
        evaluate_trees(tree_expand(CUBIC, 2), point_eval_functional(CHART), FreeSolution(data), 0.0, 0.5, CUBIC, CHART)
    ),
}


@pytest.mark.parametrize("read", CHART_READERS.values(), ids=CHART_READERS)
def test_the_chart_refuses_data_with_an_imaginary_part(read):
    # the chart is real: reading only the real part would give the numbers of other data
    with pytest.raises(ValueError, match="imaginary part"):
        read(_complex_data(1.0))


@pytest.mark.parametrize("read", CHART_READERS.values(), ids=CHART_READERS)
def test_complex_data_with_a_zero_imaginary_part_read_as_real_data(read):
    data = _complex_data(0.0)
    real = CauchyData(GRID, data.psi.real.copy(), data.chi.real.copy(), 0.0)
    assert read(data).tobytes() == read(real).tobytes()


# ---------------------------------------------------------------------------
# the first-order operator
# ---------------------------------------------------------------------------


def vdot(t, f, nonlin, chart, cap=chrono.DEFAULT_DEGREE_CAP):
    """The operator ``f -> delta f (V_t)`` at one time: the program's kernel at one node, weight 1."""
    G = {term.degree: term.coeffs for term in f.terms}
    out = chrono._applied(G, np.array([t]), np.ones((1, 1)), nonlin, chart, cap)
    return chrono._sweep_at(out, 0, chart.dim)


def test_vdot_of_constant_vanishes():
    one = SymFunctional([SymTensor(0, CHART.dim, [[1.0]])])
    assert not vdot(0.3, one, CUBIC, CHART).terms


def test_vdot_zero_nonlinearity():
    f = point_eval_functional(CHART, 0.0, 0)
    assert not vdot(0.2, f, NonlinearitySpec({}), CHART).terms


def test_vdot_linear_gives_cubic_term():
    f = point_eval_functional(CHART, 0.0, 0)
    assert vdot(0.0, f, CUBIC, CHART).degrees == (3,)


def test_vdot_truncation_recorded():
    f = SymFunctional([SymTensor(1, CHART.dim, np.ones(CHART.dim))])
    assert not vdot(0.0, f, CUBIC, CHART, cap=2).terms
    assert chrono._dropped(f.degrees, CUBIC, 2) == [(1, 3)]


@pytest.mark.parametrize(
    "nonlin", [CUBIC, NonlinearitySpec({0: 0.2, 1: 0.5, 2: 0.3, 3: 1.0})], ids=["cubic", "degrees0-3"]
)
def test_vdot_pointwise_consistency(nonlin):
    # eval(vdot f, c) == directional derivative of f at c along Vbar_t(c)
    rng = np.random.default_rng(3)
    f = SymFunctional(
        [
            SymTensor(1, CHART.dim, rng.standard_normal(CHART.dim)),
            SymTensor(3, CHART.dim, 0.1 * rng.standard_normal(num_canonical(CHART.dim, 3))),
        ]
    )
    for t in (0.0, 0.37, -0.6):
        out = vdot(t, f, nonlin, CHART, cap=7)
        for _ in range(5):
            c = 0.3 * rng.standard_normal(CHART.dim)
            phi = FreeSolution(CHART.from_coords(c))
            v = chart_field(t, phi, KG1, nonlin)
            v_coords = CHART.coords_of(v)
            lhs = eval_series(out, c)[0]
            rhs = directional_derivative(f, c, v_coords)[0]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


def test_vertex_tensor_matches_field_on_diagonal():
    # V^(3) evaluated on equal arguments equals the cubic Lagrange-Duhamel lift
    from chrono_duhamel.symfun import eval_diagonal

    rng = np.random.default_rng(4)
    t = 0.51
    V3 = vertex_tensors(CHART, CUBIC, t)[3]
    c = 0.4 * rng.standard_normal(CHART.dim)
    phi = FreeSolution(CHART.from_coords(c))
    expected = CHART.coords_of(chart_field(t, phi, KG1, CUBIC))
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
            comp = compose_first_slot(term, V)
            by_m[comp.degree] = by_m.get(comp.degree, 0.0) + term.degree * comp.coeffs
        for m, coeffs in by_m.items():
            out = SymTensor(m, d, coeffs)
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
    out, _ = chrono_exp_evolve(f, 0.0, 0.8, 16, KG1, NonlinearitySpec({}), CHART)
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


MASS2 = DispersionRelation("klein_gordon", 2.0)


def _mass2_trajectory():
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    return evolve(data, 0.0, 0.5, 0.05, MASS2, CUBIC)


@pytest.mark.parametrize(
    "transport",
    [
        lambda f: chrono_exp_evolve(f, 0.0, 0.5, 1, MASS2, CUBIC, CHART),
        lambda f: invariance_scan(f, _mass2_trajectory(), CHART),
    ],
    ids=["chrono_exp_evolve", "invariance_scan"],
)
def test_a_second_dispersion_is_rejected(transport):
    # the chart's dispersion is the one the transport uses; another one is an error
    with pytest.raises(ValueError, match="dispersion"):
        transport(point_eval_functional(CHART, 0.0, 0))


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
    ref = rk4_transport(f, np.linspace(t1, t2, intervals + 1), nonlin, chart, substeps=2)[-1]
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
    ref = rk4_transport(f, np.linspace(0.0, 1.0, 41), nonlin, chart, substeps=2)[-1]
    assert eval_series(F, c)[0] == pytest.approx(eval_series(ref, c)[0], abs=1e-9)


def test_picard_sweep_cap_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(chrono, "PICARD_MAX_SWEEPS", 1)
    f = point_eval_functional(CHART, 0.0, 0)
    with pytest.raises(FloatingPointError):
        chrono_exp_evolve(f, 0.0, 1.0, 1, KG1, NonlinearitySpec({1: 0.5, 3: 1.0}), CHART)


def test_non_finite_coefficients_of_a_higher_degree_are_a_numerical_failure():
    # degrees 1 and 3 stay finite; the last sweep's degree 5 overflows to inf and nan,
    # which the transport reports itself, with no NumPy warning
    f = point_eval_functional(CHART, 0.0, 0)
    f = SymFunctional([SymTensor(1, CHART.dim, 1e10 * f.term(1).coeffs)])
    with pytest.raises(FloatingPointError):
        chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, NonlinearitySpec({3: 1e150}), CHART)


def test_invariance_scan_interpolates_every_path_node():
    # each of the 41 values is the transported functional at that node,
    # evaluated on the trajectory's free solution there
    disp, chart, data = _cosine_problem(8)
    traj = evolve(data, 0.0, 0.5, 0.0125, disp, CUBIC)
    f = point_eval_functional(chart, 0.0, 0)
    times, values, _, _ = invariance_scan(f, traj, chart, substeps=2)
    path = rk4_transport(f, times, CUBIC, chart, substeps=4)
    expected = [eval_series(F, chart.coords_of(st.current))[0] for F, st in zip(path, traj)]
    assert len(values) == 41
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-10)


def _cubic_nodes(f, substeps, cap):
    """The Picard panel of the cubic transport of ``f`` over [0, 0.5] on CHART."""
    sweeps = chrono._picard_sweeps(f, CUBIC, cap)
    return chrono._picard_nodes(0.0, 0.5, CUBIC, CHART, substeps, sweeps)


@pytest.fixture
def composed(monkeypatch):
    """Every batched sweep the transport runs: its node times and the (p, k) pairs it composes.

    Each entry is ``(times, pairs)``; ``pairs`` counts, per stored degree ``p`` and
    nonlinearity degree ``k``, the nodes that ``_compose_factored`` composed them at.
    """
    record = []
    applied, compose = chrono._applied, chrono._compose_factored

    def spied_applied(G, times, *args, **kwargs):
        record.append((list(times), {}))
        return applied(G, times, *args, **kwargs)

    def spied_compose(coeffs, p, b, B0, W0, pi, q):
        pairs = record[-1][1]
        pairs[p, q] = pairs.get((p, q), 0) + len(b)
        return compose(coeffs, p, b, B0, W0, pi, q)

    monkeypatch.setattr(chrono, "_applied", spied_applied)
    monkeypatch.setattr(chrono, "_compose_factored", spied_compose)
    return record


@pytest.mark.parametrize(
    "cap, panel_sweeps, pairs",
    [
        (4, 2, [{(1, 3)}]),
        (5, 2, [{(1, 3)}, {(1, 3), (3, 3)}]),
        (6, 2, [{(1, 3)}, {(1, 3), (3, 3)}]),
    ],
    ids=["cap4", "cap5", "cap6"],
)
def test_picard_applies_the_operator_once_per_node_and_sweep(cap, panel_sweeps, pairs, composed):
    # from a linear functional the cubic needs the last sweep alone at cap 4 (degree 3)
    # and one stored sweep under it at caps 5 and 6, and the panel is sized for those
    # sweeps, a lone sweep at the density of two: two at every cap.  Each sweep is one batched
    # composition over every node, and composes each of its (p, k) pairs once per node.
    # The scan evaluates the last sweep on the path, so at cap 4 it composes nothing
    f = point_eval_functional(CHART, 0.0, 0)
    chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, CUBIC, CHART, cap=cap)
    nodes = list(_cubic_nodes(f, 1, cap))
    assert len(nodes) == math.ceil(panel_sweeps * 4 * math.sqrt(17) * 0.5 / 2) + 8
    assert [times for times, _ in composed] == [nodes] * len(pairs)
    assert [done for _, done in composed] == [dict.fromkeys(ps, len(nodes)) for ps in pairs]
    composed.clear()
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, CUBIC)
    invariance_scan(f, traj, CHART, substeps=1, cap=cap)
    assert [times for times, _ in composed] == [nodes] * (len(pairs) - 1)
    assert [done for _, done in composed] == [dict.fromkeys(ps, len(nodes)) for ps in pairs[:-1]]


@pytest.mark.parametrize("cap", [4, 5, 6, 7])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("coeffs", [{3: 1.0}, {5: 1.0}, {2: 0.3, 3: 0.8}], ids=["cubic", "quintic", "mixed"])
def test_the_panel_is_sized_for_the_sweeps_that_compose(coeffs, degree, cap, composed):
    # _picard_sweeps sizes the panel; it counts the stored sweeps that _picard runs, plus
    # the caller's last sweep when that composes any pair of the stored degrees under the cap
    nonlin = NonlinearitySpec(coeffs)
    rng = np.random.default_rng(degree)
    f = SymFunctional([SymTensor(degree, CHART.dim, rng.standard_normal(num_canonical(CHART.dim, degree)))])
    _, _, G = chrono._picard(f, 0.0, 0.5, nonlin, CHART, 1, cap)
    last = any(chrono._kept(p, nonlin, cap) for p in G)
    assert len(composed) + last == chrono._picard_sweeps(f, nonlin, cap)


@pytest.mark.parametrize(
    "M, coeffs, cap", [(8, {3: 1.0}, 4), (16, {3: 1.0}, 4), (8, {5: 1.0}, 6)], ids=["cubic-M8", "cubic-M16", "quintic"]
)
def test_a_one_sweep_transport_is_exact_to_rounding(M, coeffs, cap):
    # from a linear functional these caps keep the last sweep alone: F = f + int V_t . f dt,
    # whose one nonlinear term a 48-point Gauss-Legendre rule over the oracle's operator
    # gives to rounding; a panel resting on the node rule's + 8 alone is 3e-12 to 2e-11 of F's size off
    chart = ChartMap(Grid(M, 2 * np.pi), KG1)
    nonlin = NonlinearitySpec(coeffs)
    f = point_eval_functional(chart, 0.0, 0)
    F, _ = chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, nonlin, chart, cap=cap)
    x, w = np.polynomial.legendre.leggauss(48)
    (m,) = set(F.degrees) - {1}
    ref = sum(wq / 4 * vdot_reference((xq + 1) / 4, f, nonlin, chart, cap).term(m).coeffs[0] for xq, wq in zip(x, w))
    scale = max(np.max(np.abs(t.coeffs)) for t in F.terms)
    np.testing.assert_array_equal(F.term(1).coeffs, f.term(1).coeffs)
    np.testing.assert_allclose(F.term(m).coeffs[0], ref, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("caps", [(5, 6), (7, 8)])
def test_caps_that_keep_the_same_dyson_terms_give_the_same_tensor(caps):
    # from a linear functional the cubic keeps degrees 1, 3, 5 at caps 5 and 6, and up to 7
    # at caps 7 and 8: the same sweeps compose, so the panel and every bit are the same
    f = point_eval_functional(CHART, 0.0, 0)
    low, high = (chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, CUBIC, CHART, cap=cap)[0] for cap in caps)
    assert low.degrees == high.degrees
    for m in low.degrees:
        np.testing.assert_array_equal(low.term(m).coeffs, high.term(m).coeffs)


@pytest.mark.parametrize(
    "coeffs, t1, t2, cap",
    [
        ({3: 1.0}, 0.0, 0.5, 5),
        ({2: 0.3, 3: 0.8}, 0.0, 0.5, 5),
        ({1: 0.5, 3: 1.0}, 0.0, 0.5, 5),
        ({0: 0.2, 3: 1.0}, 0.0, 0.5, 5),
        ({3: 1.0}, 0.5, 0.0, 5),
        ({3: 1.0}, 0.0, 0.5, 6),
    ],
    ids=["cubic-two-sweeps", "mixed", "linear", "constant", "cubic-backward", "cubic-empty-term"],
)
def test_matrix_free_last_sweep_matches_the_transported_functional(coeffs, t1, t2, cap):
    # at density 1 the scan's panel is the transport's, so its value at t2 is the
    # transported functional, with the last sweep composed as tensors, at the last point;
    # the cubic at cap 6 sizes its panel for two sweeps and stores one Dyson term:
    # the second, degree 5, would lie above the feeding cap 4
    grid = Grid(8, 2 * np.pi)
    chart = ChartMap(grid, KG1)
    nonlin = NonlinearitySpec(coeffs)
    data = CauchyData(grid, 0.3 * np.cos(grid.x), np.zeros(grid.M), t1)
    traj = evolve(data, t1, t2, 0.05, KG1, nonlin)
    f = point_eval_functional(chart, 0.0, 0)
    _, values, _, _ = invariance_scan(f, traj, chart, substeps=1, cap=cap)
    F, _ = chrono_exp_evolve(f, t1, t2, 1, KG1, nonlin, chart, cap=cap)
    expected = eval_series(F, chart.coords_of(traj[-1].current))[0]
    assert values[-1] == pytest.approx(expected, rel=1e-13)


def test_invariance_scan_builds_no_tensor_of_the_last_sweep(composed):
    # the cubic at cap 5 takes two sweeps: the stored one composes degree 3 at every
    # node, and the last one, which would compose degree 5, is evaluated on the path
    # only: no composition leaves the feeding cap 3
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, CUBIC)
    f = point_eval_functional(CHART, 0.0, 0)
    invariance_scan(f, traj, CHART, substeps=2, cap=5)
    nodes = list(_cubic_nodes(f, 2, 5))
    assert composed == [(nodes, {(1, 3): len(nodes)})]


def test_stored_dyson_terms_compose_each_degree_once(composed):
    # {2: 0.3, 3: 0.8} at cap 5 stores T_1, T_2, T_3 under the feeding cap 4: T_1 composes
    # f's degree 1, T_2 composes T_1's degrees 2 and 3, and T_3 composes T_2's degree 3
    # and drops its degree 4; each at every node once, and the last sweep is evaluated
    # on the path only
    mixed = NonlinearitySpec({2: 0.3, 3: 0.8})
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, mixed)
    f = point_eval_functional(CHART, 0.0, 0)
    invariance_scan(f, traj, CHART, substeps=2, cap=5)
    sweeps = chrono._picard_sweeps(f, mixed, 5)
    nodes = list(chrono._picard_nodes(0.0, 0.5, mixed, CHART, 2, sweeps))
    pairs = [{(1, 2), (1, 3)}, {(2, 2), (2, 3), (3, 2)}, {(3, 2)}]
    assert [times for times, _ in composed] == [nodes] * 3
    assert [done for _, done in composed] == [dict.fromkeys(ps, len(nodes)) for ps in pairs]
    assert all(p + k - 1 <= 4 for _, done in composed for p, k in done)


@pytest.mark.parametrize("M", [4, 8])
@pytest.mark.parametrize(
    "coeffs",
    [{3: 1.0}, {2: 0.3, 3: 0.8}, {1: 0.5, 3: 1.0}, {0: 0.2, 3: 1.0}],
    ids=["cubic", "mixed", "linear", "constant"],
)
def test_batched_sweep_matches_the_per_node_operator(coeffs, M, monkeypatch):
    # the batched kernel, with the identity as node weights, gives the operator at every panel
    # node of a stored sweep: the Picard sweep of a point evaluation, and random coefficients
    # of degrees 1, 2 and 3 that differ from node to node; the reference forms the vertex
    # tensors at each node and composes them with compose_first_slot, one node at a time
    _, chart, _ = _cosine_problem(M)
    nonlin = NonlinearitySpec(coeffs)
    f = point_eval_functional(chart, 0.0, 0)
    times, S, picard = chrono._picard(f, 0.0, 0.5, nonlin, chart, 1, 5)
    n = len(times)
    rng = np.random.default_rng(5)
    random = {p: rng.standard_normal((n, num_canonical(chart.dim, p))) for p in (1, 2, 3)}
    for G in (picard, random):
        batched = chrono._applied(G, times, np.eye(n), nonlin, chart, 5)
        reference = [
            vdot_reference(t, chrono._sweep_at(G, l, chart.dim), nonlin, chart, 5)
            for l, t in enumerate(times)
        ]
        swept = chrono._applied(G, times, S, nonlin, chart, 5)
        assert set(batched) == set(swept) == set(reference[0].degrees)
        for m, c in batched.items():
            expected = np.array([ref.term(m).coeffs[0] for ref in reference])
            np.testing.assert_allclose(c, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))
            integral = S @ expected
            np.testing.assert_allclose(swept[m], integral, rtol=0, atol=1e-14 * np.max(np.abs(integral)))
        # chunk boundaries: one node per chunk gives every node, and the panel's integral of
        # them, the bits of one chunk holding all nodes
        chunks = []
        compose = chrono._compose_factored
        monkeypatch.setattr(
            chrono, "_compose_factored", lambda *args: chunks.append(len(args[2])) or compose(*args)
        )
        for weights in (np.eye(n), S):
            chunks.clear()
            monkeypatch.setattr(chrono, "_CHUNK_FLOATS", 1)
            one_by_one = chrono._applied(G, times, weights, nonlin, chart, 5)
            assert set(chunks) == {1}
            chunks.clear()
            monkeypatch.setattr(chrono, "_CHUNK_FLOATS", 1 << 40)
            all_at_once = chrono._applied(G, times, weights, nonlin, chart, 5)
            assert set(chunks) == {n}
            assert set(one_by_one) == set(all_at_once) == set(batched)
            for m in batched:
                np.testing.assert_array_equal(one_by_one[m], all_at_once[m])
        monkeypatch.undo()


def test_vdot_is_the_one_node_case_of_the_batched_kernel(composed):
    # one call of the kernel at the one time, each pair composed at that node once
    rng = np.random.default_rng(5)
    d = CHART.dim
    f = SymFunctional([SymTensor(p, d, rng.standard_normal(num_canonical(d, p))) for p in (1, 2, 3)])
    mixed = NonlinearitySpec({2: 0.3, 3: 0.8})
    out = vdot(0.3, f, mixed, CHART, cap=4)
    assert composed == [([0.3], {(1, 2): 1, (1, 3): 1, (2, 2): 1, (2, 3): 1, (3, 2): 1})]
    ref = vdot_reference(0.3, f, mixed, CHART, 4)
    assert out.degrees == ref.degrees == (2, 3, 4)
    for a, b in zip(out.terms, ref.terms):
        np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-14 * np.max(np.abs(b.coeffs)))


def test_panel_matrices_and_rank_maps_are_bounded_read_only_caches():
    S = chrono._integration_matrix(17)
    assert chrono._integration_matrix(17) is S and not S.flags.writeable
    for n in range(9, 9 + 2 * chrono._integration_matrix.cache_info().maxsize):
        chrono._integration_matrix(n)
    info = chrono._integration_matrix.cache_info()
    assert info.currsize == info.maxsize
    rank = symfun._rank_map(8, 2, 3)
    assert rank.dtype == np.int32 and not rank.flags.writeable
    assert symfun._rank_map(8, 2, 3) is rank
    for d in range(2, 4 + symfun._RANK_MAPS):
        symfun._rank_map(d, 2, 2)
    assert symfun._rank_map.cache_info().currsize == symfun._RANK_MAPS
    # a degree with 2**31 canonical indices or more cannot be ranked in int32; nothing is built
    assert num_canonical(3000, 3) >= 2**31
    with pytest.raises(OverflowError):
        symfun._rank_map(3000, 1, 3)


@pytest.mark.parametrize(
    "coeffs, t1, t2",
    [({3: 1.0}, 0.0, 0.5), ({3: 1.0}, 0.5, 0.0), ({1: 0.5, 3: 1.0}, 0.0, 0.5)],
    ids=["forward", "backward", "linear"],
)
def test_last_sweep_is_kept_at_the_last_node_only(coeffs, t1, t2):
    # chrono_exp_evolve applies the last sweep at the last node: F^(m) is
    # sum_l S[-1, l] (V_{t_l} . G_l)^(m) over the stored sweep G, plus f's own degrees;
    # the cubic's degree 1 stays f's, the linear term moves it
    nonlin = NonlinearitySpec(coeffs)
    f = point_eval_functional(CHART, 0.0, 0)
    F, _ = chrono_exp_evolve(f, t1, t2, 1, KG1, nonlin, CHART, cap=5)
    times, S, G = chrono._picard(f, t1, t2, nonlin, CHART, 1, 5)
    K = [vdot(t, chrono._sweep_at(G, l, CHART.dim), nonlin, CHART, cap=5) for l, t in enumerate(times)]
    swept = {m: S[-1] @ np.array([k.term(m).coeffs[0] for k in K]) for m in K[0].degrees}
    assert F.degrees == (1, 3, 5)
    assert {t.coeffs.shape[0] for t in F.terms} == {1}
    if 1 not in swept:
        np.testing.assert_array_equal(F.term(1).coeffs[0], f.term(1).coeffs[0])
    for m, c in swept.items():
        expected = c + (f.term(m).coeffs[0] if m in f.degrees else 0.0)
        np.testing.assert_allclose(F.term(m).coeffs[0], expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))


def test_a_nilpotent_transport_keeps_its_small_terms_on_a_short_span():
    # over 1e-3 the degree-5 and degree-6 terms of {2: 1} lie far below PICARD_RTOL
    # times the degree-1 term, but a nilpotent operator stops on degrees alone, so
    # the transported functional keeps them and the cap drops only degree 6's
    f = point_eval_functional(CHART, 0.0, 0)
    F, dropped = chrono_exp_evolve(f, 0.0, 1e-3, 1, KG1, NonlinearitySpec({2: 1.0}), CHART, cap=6)
    assert F.degrees == (1, 2, 3, 4, 5, 6)
    assert np.max(np.abs(F.term(6).coeffs)) < chrono.PICARD_RTOL * np.max(np.abs(F.term(1).coeffs))
    assert dropped == [(6, 7)]


@pytest.mark.parametrize("cap", [3, 5])
def test_truncation_events_mean_what_the_cap_drops(cap):
    # the top stored degree would leave the cap, at each of the panel's nodes
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, CUBIC)
    f = point_eval_functional(CHART, 0.0, 0)
    _, dropped = chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, CUBIC, CHART, cap=cap)
    assert dropped == [(cap, cap + 2)]
    _, _, _, events = invariance_scan(f, traj, CHART, substeps=2, cap=cap)
    assert events[-1] == len(_cubic_nodes(f, 2, cap))


def test_truncation_events_read_the_stored_degrees_once():
    # a one-shot iterator of the stored degrees gives the pairs of the degrees themselves:
    # the cubic at cap 4 drops (3, 5) from the degree 3 that the last sweep composes from 1
    assert chrono._dropped(iter([1]), CUBIC, 4) == chrono._dropped([1], CUBIC, 4) == [(3, 5)]


def _assert_events_column(nonlin, t1, t2):
    """Event i of the scan counts the dropped pairs times the panel nodes before the next
    trajectory time, going from t1 to t2, and times every node at the last row."""
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), t1)
    traj = evolve(data, t1, t2, 0.05, KG1, nonlin)
    f = point_eval_functional(CHART, 0.0, 0)
    times, values, _, events = invariance_scan(f, traj, CHART, substeps=2)
    column = events.tolist()
    _, dropped = chrono_exp_evolve(f, t1, t2, 1, KG1, nonlin, CHART)
    nodes = chrono._picard_nodes(t1, t2, nonlin, CHART, 2, chrono._picard_sweeps(f, nonlin, 5))
    before = [sum((t - nxt) * (t2 - t1) < 0 for t in nodes) for nxt in times[1:]] + [len(nodes)]
    assert dropped and 0 < before[0] < len(nodes)
    assert column == [len(dropped) * n for n in before]


def test_truncation_events_column_follows_a_backward_span():
    _assert_events_column(CUBIC, 0.5, 0.0)


@pytest.mark.parametrize("coeffs", [{2: 0.3, 3: 0.8}, {1: 0.3, 3: 0.8}], ids=["nilpotent", "not-nilpotent"])
def test_truncation_events_column_counts_dropped_pairs_per_panel_node(coeffs):
    _assert_events_column(NonlinearitySpec(coeffs), 0.0, 0.5)


def test_truncation_events_none_without_a_nonlinearity():
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    zero = NonlinearitySpec({})
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, zero)
    f = point_eval_functional(CHART, 0.0, 0)
    events = invariance_scan(f, traj, CHART, substeps=2)[3]
    assert events.shape == (len(traj),) and not events.any()
    assert chrono_exp_evolve(f, 0.0, 0.5, 1, KG1, zero, CHART)[1] == []


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def test_tree_catalogue_orders_0_1_2():
    trees = tree_expand(CUBIC, 2)
    by_order = {}
    for tr in trees:
        by_order.setdefault(tr.order, []).append(tr)
    assert len(by_order[0]) == 1 and by_order[0][0].multiplicity == 1
    assert len(by_order[1]) == 1 and by_order[1][0].multiplicity == 1
    assert len(by_order[2]) == 1 and by_order[2][0].multiplicity == 3


def test_tree_order3_catalogue():
    trees = tree_expand(CUBIC, 3)
    order3 = [tr for tr in trees if tr.order == 3]
    # chain (mult 3*3) and double-attachment (mult 3*2)
    assert sorted(tr.multiplicity for tr in order3) == [6, 9]
    for tr in order3:
        assert all(tr.parents[a] < a + 1 for a in range(tr.order))


def test_tree_order0_is_plain_evaluation():
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution()
    trees = tree_expand(CUBIC, 0)
    assert sum(evaluate_trees(trees, f, u, 0.0, 0.25, CUBIC, CHART)) == pytest.approx(eval_series(f, CHART.coords_of(u))[0], rel=1e-12)


def test_tree_order1_matches_direct_quadrature():
    # single-vertex tree: - the integral of the Green-paired cube; oracle by
    # dense trapezoid quadrature of the explicitly assembled integrand
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=0.4)
    t1, t2 = 0.0, 0.3
    trees = tree_expand(CUBIC, 1)
    first_order = [tr for tr in trees if tr.order == 1]
    (val,) = evaluate_trees(first_order, f, u, t1, t2, CUBIC, CHART)
    taus = np.linspace(t1, t2, 4001)
    row = f.term(1).coeffs[0]
    samples = []
    for tau in taus:
        lift = CHART.rows_and_columns(float(tau))[1] @ propagate(KG1, u.chart_data, float(tau)).psi ** 3
        samples.append(row @ lift)
    oracle = np.trapezoid(samples, taus)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_tree_order1_backward_orientation_sign():
    # transporting backward (t2 < t1) flips the first correction's sign:
    # the order-1 term equals  - integral_{t2}^{t1} of the Green-paired cube
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=0.4)
    t1, t2 = 0.3, 0.0
    trees = tree_expand(CUBIC, 1)
    first_order = [tr for tr in trees if tr.order == 1]
    (val,) = evaluate_trees(first_order, f, u, t1, t2, CUBIC, CHART)
    taus = np.linspace(t2, t1, 4001)
    row = f.term(1).coeffs[0]
    samples = [
        row @ (CHART.rows_and_columns(float(tau))[1] @ propagate(KG1, u.chart_data, float(tau)).psi ** 3)
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
    trees = tree_expand(CUBIC, 2)
    tree_total = sum(evaluate_trees(trees, f, u, t1, t2, CUBIC, CHART))
    F, _ = chrono_exp_evolve(f, t1, t2, 40, KG1, CUBIC, CHART, cap=5)
    tensor_total = eval_series(F, c)[0]
    assert tree_total == pytest.approx(tensor_total, abs=1e-10, rel=1e-8)


def test_tree_tensor_equivalence_backward():
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=0.3)
    c = CHART.coords_of(u)
    t1, t2 = 0.25, 0.0
    trees = tree_expand(CUBIC, 2)
    F, _ = chrono_exp_evolve(f, t1, t2, 40, KG1, CUBIC, CHART, cap=5)
    assert sum(evaluate_trees(trees, f, u, t1, t2, CUBIC, CHART)) == pytest.approx(eval_series(F, c)[0], abs=1e-10, rel=1e-8)


@pytest.mark.parametrize(
    "amp, t1, t2", [(0.3, 0.0, 0.25), (0.2, 0.25, 0.0)], ids=["forward", "backward"]
)
def test_each_dyson_term_is_one_order_of_trees(amp, t1, t2):
    # the cubic adds two degrees per term: degree 2j + 1 of the transport is the
    # order-j trees, not only their sum; order 3 is the first with two shapes
    f = point_eval_functional(CHART, 0.0, 0)
    u = bench_solution(amp=amp)
    c = CHART.coords_of(u)
    trees = tree_expand(CUBIC, 3)
    F, _ = chrono_exp_evolve(f, t1, t2, 1, KG1, CUBIC, CHART, cap=7)
    for order, degree in ((1, 3), (2, 5), (3, 7)):
        by_trees = sum(evaluate_trees([t for t in trees if t.order == order], f, u, t1, t2, CUBIC, CHART))
        by_term = eval_series(SymFunctional([F.term(degree)]), c)[0]
        assert by_term == pytest.approx(by_trees, rel=1e-12, abs=0)


@pytest.mark.parametrize("t1, t2", [(0.0, 0.25), (0.25, -0.05)], ids=["forward", "backward"])
def test_product_rule_is_the_nested_rule_point_by_point(t1, t2):
    # the batched rule sums the recursion's points and weights in another order and
    # pairs the root as b_t o (B_0 field), so each tree of every shape up to order 3
    # agrees with it to rounding; the root pairings of this random data cancel by up
    # to 4e4 times their result, which makes rounding reach about 4e4 eps = 1e-11
    rng = np.random.default_rng(11)
    data = CauchyData(GRID, 0.3 * rng.standard_normal(GRID.M), 0.3 * rng.standard_normal(GRID.M), 0.0)
    u = make_free_solution(KG1, data)
    f = point_eval_functional(CHART, 0.1, 3)
    trees = tree_expand(CUBIC, 3)
    for tree in trees:
        (batched,) = evaluate_trees([tree], f, u, t1, t2, CUBIC, CHART)
        reference = nested_trees_reference([tree], f, u, t1, t2, CUBIC, CHART)
        assert batched == pytest.approx(reference, rel=1e-11, abs=0)


@pytest.mark.parametrize("t1, t2", [(0.0, 0.25), (0.25, -0.05)], ids=["forward", "backward"])
def test_one_rule_per_order_gives_each_tree_its_own_bits(t1, t2):
    # the trees of one order share their points and traces; each value keeps the bits
    # of evaluating that tree alone
    u = bench_solution(amp=0.3)
    f = point_eval_functional(CHART, 0.1, 3)
    trees = tree_expand(CUBIC, 3)
    values = evaluate_trees(trees, f, u, t1, t2, CUBIC, CHART)
    assert values == [evaluate_trees([tree], f, u, t1, t2, CUBIC, CHART)[0] for tree in trees]


def test_each_order_builds_what_its_trees_share_once(monkeypatch):
    # the traces of one order take one _wave_factors call, each (vertex, child) Green
    # shift one, and the root's factors one _factors call, however many trees share them
    u = bench_solution(amp=0.3)
    f = point_eval_functional(CHART, 0.1, 3)
    trees = tree_expand(CUBIC, 4)
    calls = {"wave": 0, "factors": 0}
    wave_factors, factors = chrono._wave_factors, ChartMap._factors

    def counted_wave_factors(eps, s):
        calls["wave"] += 1
        return wave_factors(eps, s)

    def counted_factors(chart, times):
        calls["factors"] += 1
        return factors(chart, times)

    monkeypatch.setattr(chrono, "_wave_factors", counted_wave_factors)
    monkeypatch.setattr(ChartMap, "_factors", counted_factors)
    evaluate_trees(trees, f, u, 0.0, 0.25, CUBIC, CHART)
    orders = {tree.order for tree in trees if tree.order > 0}
    pairs = {
        (tree.order, a, child)
        for tree in trees
        for a, children in enumerate(tree.children())
        for child in children
        if a > 0
    }
    assert len(trees) > 2 * len(orders)
    assert calls["factors"] == len(orders)
    # each _factors call takes its phases through one _wave_factors call of its own
    assert calls["wave"] - calls["factors"] <= len(orders) + len(pairs)


@pytest.mark.parametrize("degrees", [(2,), (1, 2)], ids=["quadratic", "linear-plus-quadratic"])
def test_tree_evaluation_needs_a_linear_functional(degrees):
    # the root pairs the functional with one Green lift: a degree-2 term is refused,
    # not failed on nor dropped
    d = CHART.dim
    f = SymFunctional([SymTensor(p, d, np.ones(num_canonical(d, p))) for p in degrees])
    with pytest.raises(ValueError, match="linear functional"):
        evaluate_trees(tree_expand(CUBIC, 1), f, bench_solution(), 0.0, 0.25, CUBIC, CHART)


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def test_invariance_free_dynamics():
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, NonlinearitySpec({}))
    f = point_eval_functional(CHART, 0.0, 0)
    _, values, drift, _ = invariance_scan(f, traj, CHART)
    assert drift <= 1e-13
    assert values[0] == pytest.approx(data.psi[0], abs=1e-12)


def test_invariance_constant_functional():
    one = SymFunctional([SymTensor(0, CHART.dim, [[1.0]])])
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.4, 0.05, KG1, CUBIC)
    _, values, drift, _ = invariance_scan(one, traj, CHART)
    np.testing.assert_allclose(values, 1.0, atol=1e-14)
    assert drift <= 1e-14


def test_invariance_cubic_small_amplitude():
    data = CauchyData(GRID, 0.05 * np.cos(2 * np.pi * GRID.x / GRID.Lx), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.0125, KG1, CUBIC)
    f = point_eval_functional(CHART, 0.0, 0)
    _, values, drift, _ = invariance_scan(f, traj, CHART, substeps=2, cap=5)
    assert drift <= 1e-7
    assert values[0] == pytest.approx(data.psi[0], abs=1e-12)


@pytest.mark.parametrize("coeffs", [{3: 1.0}, {2: 0.3, 3: 0.8}, {4: 0.7}], ids=["benchmark", "2-3", "quartic"])
def test_vertex_powers_follow_the_nonlinearity_s_power_rule(monkeypatch, coeffs):
    # the benchmark.ini problem: every vertex field's lam (A c)^k is the N program's term, with
    # the bits of 0.0 + lam * u**k from products for k >= 3, and the transported values stay
    # within 1e-15 relative of those of the np.power formula lam * U**k
    data = CauchyData(GRID, 0.05 * np.cos(2 * np.pi * GRID.x / GRID.Lx), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.0125, KG1, NonlinearitySpec(coeffs))
    f = point_eval_functional(CHART, 0.0, 0)
    seen, apply = [], NonlinearitySpec.apply

    def spied(self, u):
        seen.append((self.coeffs, u, apply(self, u)))
        return seen[-1][2]

    monkeypatch.setattr(NonlinearitySpec, "apply", spied)
    values = invariance_scan(f, traj, CHART, substeps=2, cap=5)[1]
    assert sorted({k for term, _, _ in seen for k in term}) == sorted(coeffs)
    for term, u, field in seen:
        ((k, lam),) = term.items()
        assert lam == coeffs[k] and u.dtype == float
        assert field.tobytes() == (0.0 + lam * (power_by_products(u, k) if k >= 3 else u**k)).tobytes()
    monkeypatch.setattr(NonlinearitySpec, "apply", lambda self, u: sum(v * u**k for k, v in self.coeffs.items()))
    reference = invariance_scan(f, traj, CHART, substeps=2, cap=5)[1]
    assert np.all(np.abs(values - reference) <= 1e-15 * np.abs(reference))


@pytest.mark.parametrize("t2, steps", [(-0.4, 21), (0.3, 0)], ids=["backward-21-steps", "one-node"])
def test_invariance_scan_transports_over_the_trajectory_s_own_span(monkeypatch, t2, steps):
    # the Picard panel spans the first to the last node time: 21 steps from 0.3 end at
    # -0.39999999999999997, not at -0.4; a one-node trajectory scans to its own value
    spans, picard = [], chrono._picard

    def spied_picard(f, t1, t2, *args):
        spans.append((t1, t2))
        return picard(f, t1, t2, *args)

    monkeypatch.setattr(chrono, "_picard", spied_picard)
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.3)
    traj = evolve(data, 0.3, t2, abs(t2 - 0.3) / steps if steps else 0.05, KG1, CUBIC)
    f = point_eval_functional(CHART, 0.0, 0)
    times, values, drift, events = invariance_scan(f, traj, CHART)
    assert len(traj) == steps + 1 and times.tolist() == [st.time for st in traj]
    if steps:
        assert traj[-1].time != t2 and spans == [(0.3, traj[-1].time)]
        assert drift <= 1e-7
    else:
        assert spans == [] and drift == 0.0 and events.tolist() == [0]
        assert values.tolist() == [eval_series(f, CHART.coords_of(traj[0].current))[0]]


def test_invariance_scan_takes_no_time_window():
    # a call in the old (f, traj, t1, t2, chart) form is a TypeError, not a misread chart
    data = CauchyData(GRID, 0.05 * np.cos(GRID.x), np.zeros(GRID.M), 0.0)
    traj = evolve(data, 0.0, 0.5, 0.05, KG1, CUBIC)
    with pytest.raises(TypeError):
        invariance_scan(point_eval_functional(CHART, 0.0, 0), traj, 0.0, 0.5, CHART)


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
    assert transport_majorant(NonlinearitySpec({}), CHART, WINDOW).is_zero


@pytest.mark.parametrize("chart", MAJORANT_CHARTS, ids=CHART_IDS)
def test_transport_majorant_dominates_multilinear_components(chart):
    # ||V_t^(k)(c_1 ... c_k)|| <= X_k prod ||c_j|| in the chart norm at every
    # time inside the window, and X_k is at least the operator-norm product
    # |lam_k| sqrt(2) ||B(t)||_2 ||A(t)||_2^k it bounds in closed form
    rng = np.random.default_rng(9)
    X = transport_majorant(MIXED, chart, WINDOW)
    for t in np.linspace(*WINDOW, 2001):
        A, B = chart.rows_and_columns(float(t))
        a, b = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
        for k, lam in MIXED.coeffs.items():
            assert abs(lam) * math.sqrt(2) * b * a**k <= X.coeffs[k] * (1 + 1e-12)
    norm = VectorNorm.two_block(chart.dim, chart.grid.M).norm
    for t in np.linspace(*WINDOW, 201):
        for k, Vk in vertex_tensors(chart, MIXED, float(t)).items():
            for _ in range(5):
                cs = list(rng.standard_normal((k, chart.dim)))
                val = norm(eval_homogeneous(Vk, cs))
                assert val <= X.coeffs[k] * np.prod([norm(c) for c in cs]) * (1 + 1e-10)


@pytest.mark.parametrize("chart", MAJORANT_CHARTS, ids=CHART_IDS)
def test_block_norm_sups_grow_with_the_span_without_overflow(chart):
    # min(t_max, 1/eps)^2 is formed without t_max^2, so spans past 1.3e154
    # give finite sups for a massive chart, the limit 1/eps for every mode
    spans = [0.5, 2.0, 1e10, 1e154, 1e200, 1e300, 1.7e308]
    with np.errstate(all="raise"):
        sups = [chart._block_norm_sups(t) for t in spans[:4]]
    with np.errstate(all="ignore"):
        sups += [chart._block_norm_sups(t) for t in spans[4:]]
    for a, b in zip(sups, sups[1:]):
        assert a[0] <= b[0] * (1 + 1e-15) and a[1] <= b[1] * (1 + 1e-15)
    if chart.disp.m > 0:
        assert all(map(math.isfinite, sups[-1]))
        np.testing.assert_allclose(sups[-1], sups[3], rtol=1e-14)


@pytest.mark.parametrize("chart", MAJORANT_CHARTS, ids=CHART_IDS)
def test_transport_majorant_dominates_field_norm(chart):
    # ||coords(V_t(phi))|| <= X(||c||) for the Lagrange-Duhamel field itself
    rng = np.random.default_rng(8)
    X = transport_majorant(MIXED, chart, WINDOW)
    norm = VectorNorm.two_block(chart.dim, chart.grid.M).norm
    for t in np.linspace(*WINDOW, 201):
        for _ in range(5):
            c = rng.uniform(0.05, 2.0) * rng.standard_normal(chart.dim)
            phi = FreeSolution(chart.from_coords(c))
            v = chart_field(float(t), phi, chart.disp, MIXED)
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
    rec = certify_window(MajorantSeries([0, 1.0]), X, 0.49, 2.0)
    assert not rec.window_ok
    assert rec.measured_window == pytest.approx(0.49, abs=1e-6)
    # a radius at or below the fixed floor leaves no window at all
    rec = certify_window(MajorantSeries([0, 1.0]), X, DEFAULT_FLOOR, 2.0)
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
        majorant_of(f),
        X,
        R,
        t2 - t1,
        uf_majorant=majorant_of(F),
    )
    assert rec.window_ok
    assert rec.transport_ok
