"""Nonlinear-layer tests: the chart ODE, its oracle, and measured constants."""

import numpy as np
import pytest

from chrono_duhamel.dynamics import (
    DivergenceError,
    NonlinearitySpec,
    algebra_constant,
    duhamel_residual,
    evolve,
    lagrange_duhamel_V,
    sobolev_h,
    strang_evolve,
    theta,
    trajectory_csv,
    vector_field_majorant,
)
from chrono_duhamel.propagator import (
    CauchyData,
    DispersionRelation,
    Grid,
    cau_norm,
    green_apply,
    make_free_solution,
    propagate,
    sample_at,
)
from chrono_duhamel.series import eval_series as series_eval

GRID = Grid(16, 2 * np.pi)
KG1 = DispersionRelation("klein_gordon", 1.0)
SCH = DispersionRelation("schrodinger")
CUBIC = NonlinearitySpec.cubic(1.0)
ZERO_N = NonlinearitySpec.zero()


def benchmark_data(grid, amp=0.05, t=0.0):
    return CauchyData(grid, amp * np.cos(2 * np.pi * grid.x / grid.Lx), np.zeros(grid.M), t)


def random_data(rng, grid=GRID, t=0.0, scale=0.1):
    return CauchyData(grid, scale * rng.standard_normal(grid.M), scale * rng.standard_normal(grid.M), t)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_idempotent_on_free_traces():
    rng = np.random.default_rng(0)
    data = random_data(rng, t=0.4)
    fs = theta(KG1, data)
    again = theta(KG1, sample_at(KG1, fs, 1.3))
    np.testing.assert_allclose(again.chart_data.psi, fs.chart_data.psi, atol=1e-12)
    np.testing.assert_allclose(again.chart_data.chi, fs.chart_data.chi, atol=1e-12)


def test_theta_zero():
    fs = theta(KG1, CauchyData.zero(GRID, KG1, t=2.0))
    assert not fs.chart_data.psi.any()


def test_theta_chart_is_propagation_to_reference_time():
    rng = np.random.default_rng(1)
    data = random_data(rng, t=0.4)
    fs = theta(KG1, data)
    chart = propagate(KG1, data, 0.0)
    np.testing.assert_allclose(fs.chart_data.psi, chart.psi, atol=1e-14)


def test_trace_identity():
    # [Theta_t u]_t = [u]_t through the round trip
    rng = np.random.default_rng(2)
    data = random_data(rng, t=-0.8)
    back = sample_at(KG1, theta(KG1, data), -0.8)
    np.testing.assert_allclose(back.psi, data.psi, atol=1e-12)
    np.testing.assert_allclose(back.chi, data.chi, atol=1e-12)


# ---------------------------------------------------------------------------
# the Lagrange-Duhamel field
# ---------------------------------------------------------------------------


def test_field_vanishes_without_nonlinearity():
    rng = np.random.default_rng(3)
    phi = theta(KG1, random_data(rng))
    v = lagrange_duhamel_V(0.7, phi, KG1, ZERO_N)
    assert not v.chart_data.psi.any() and not v.chart_data.chi.any()


def test_field_linear_nonlinearity_single_mode():
    # N(u) = u, t = 0: the lift of the trace itself
    lin = NonlinearitySpec({1: 1.0})
    wave = np.cos(GRID.xi[2] * GRID.x)
    phi = make_free_solution(KG1, CauchyData(GRID, wave, np.zeros(GRID.M), 0.0))
    v = lagrange_duhamel_V(0.0, phi, KG1, lin)
    expect = green_apply(KG1, GRID, 0.0, wave)
    np.testing.assert_allclose(v.chart_data.psi, expect.chart_data.psi, atol=1e-13)
    np.testing.assert_allclose(v.chart_data.chi, expect.chart_data.chi, atol=1e-13)


def test_field_cubic_constant_field():
    c = 0.3
    phi = make_free_solution(KG1, CauchyData(GRID, c * np.ones(GRID.M), np.zeros(GRID.M), 0.0))
    v = lagrange_duhamel_V(0.0, phi, KG1, CUBIC)
    np.testing.assert_allclose(v.chart_data.psi, 0.0, atol=1e-14)
    np.testing.assert_allclose(v.chart_data.chi, c**3 * np.ones(GRID.M), atol=1e-14)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_free_dynamics_is_chart_fixed_point():
    rng = np.random.default_rng(4)
    data = random_data(rng)
    traj = evolve(data, 0.0, 1.0, 0.05, KG1, ZERO_N)
    first = traj[0].current.chart_data
    for st in traj:
        np.testing.assert_allclose(st.current.chart_data.psi, first.psi, atol=1e-14)
        np.testing.assert_allclose(st.current.chart_data.chi, first.chi, atol=1e-14)


def test_evolve_zero_span():
    data = benchmark_data(GRID)
    traj = evolve(data, 0.0, 0.0, 0.1, KG1, CUBIC)
    assert len(traj) == 1
    np.testing.assert_array_equal(traj[0].current.chart_data.psi, data.psi)


def test_evolve_requires_matching_anchor():
    with pytest.raises(ValueError):
        evolve(benchmark_data(GRID, t=0.0), 0.5, 1.0, 0.1, KG1, CUBIC)


def test_evolve_self_convergence_order4():
    data = benchmark_data(GRID)
    ends = []
    for dt in (0.05, 0.025, 0.0125):
        traj = evolve(data, 0.0, 1.0, dt, KG1, CUBIC)
        ends.append(traj[-1].current.chart_data)
    e1 = cau_norm(KG1, CauchyData(GRID, ends[0].psi - ends[1].psi, ends[0].chi - ends[1].chi, 0.0), 0.0, 1.0)
    e2 = cau_norm(KG1, CauchyData(GRID, ends[1].psi - ends[2].psi, ends[1].chi - ends[2].chi, 0.0), 0.0, 1.0)
    assert e1 / e2 == pytest.approx(16.0, rel=0.35)


def test_evolve_divergence_reported():
    # focusing blow-up: huge amplitude with N(u) = -u^3 explodes quickly
    data = CauchyData(GRID, 60.0 * np.ones(GRID.M), np.zeros(GRID.M), 0.0)
    with pytest.raises(DivergenceError):
        evolve(data, 0.0, 4.0, 0.5, KG1, NonlinearitySpec({3: -1.0}))


# ---------------------------------------------------------------------------
# Duhamel residual
# ---------------------------------------------------------------------------


def test_residual_free_dynamics_vanishes():
    rng = np.random.default_rng(5)
    traj = evolve(random_data(rng), 0.0, 1.0, 0.05, KG1, ZERO_N)
    res, _ = duhamel_residual(traj, 0.0, 1.0)
    assert res <= 1e-13


def test_residual_free_trajectory_with_cubic_field_is_nonzero():
    # feeding an exact free solution as "trajectory" of the cubic equation:
    # the residual equals the norm of the integral term
    from chrono_duhamel.dynamics import EvolutionState
    from chrono_duhamel.propagator import FreeSolution

    data = benchmark_data(GRID, amp=0.3)
    fs = make_free_solution(KG1, data)
    times = np.linspace(0.0, 1.0, 21)
    traj = [EvolutionState(fs, float(t), KG1, CUBIC) for t in times]
    res, _ = duhamel_residual(traj, 0.0, 1.0)
    assert res > 1e-4


def test_residual_shrinks_with_step():
    data = benchmark_data(GRID)
    r_coarse, _ = duhamel_residual(evolve(data, 0.0, 1.0, 0.1, KG1, CUBIC), 0.0, 1.0)
    r_fine, _ = duhamel_residual(evolve(data, 0.0, 1.0, 0.05, KG1, CUBIC), 0.0, 1.0)
    assert r_coarse / r_fine >= 8.0


# ---------------------------------------------------------------------------
# oracle cross-check and the equivalence of formulations
# ---------------------------------------------------------------------------


def self_estimate(end_a, end_b, order):
    diff = cau_norm(KG1, CauchyData(GRID, end_a.psi - end_b.psi, end_a.chi - end_b.chi, 0.0), 0.0, 1.0)
    return diff / (2**order - 1)


def test_evolve_vs_strang_agreement():
    data = benchmark_data(GRID)
    t2, dt = 1.0, 0.02
    rk_end = sample_at(KG1, evolve(data, 0.0, t2, dt, KG1, CUBIC)[-1].current, t2)
    rk_half = sample_at(KG1, evolve(data, 0.0, t2, dt / 2, KG1, CUBIC)[-1].current, t2)
    st_end = strang_evolve(data, 0.0, t2, dt, KG1, CUBIC)[-1]
    st_half = strang_evolve(data, 0.0, t2, dt / 2, KG1, CUBIC)[-1]
    err_rk = self_estimate(rk_end, rk_half, 4)
    err_st = self_estimate(st_end, st_half, 2)
    gap = cau_norm(KG1, CauchyData(GRID, rk_end.psi - st_end.psi, rk_end.chi - st_end.chi, 0.0), 0.0, 1.0)
    assert gap <= 5.0 * (err_rk + err_st)


def test_strang_solution_satisfies_duhamel_identity():
    # push the independent solution through theta; its Duhamel residual
    # must be at the Strang integrator's own accuracy
    from chrono_duhamel.dynamics import EvolutionState

    data = benchmark_data(GRID)
    dt = 0.01
    states = strang_evolve(data, 0.0, 1.0, dt, KG1, CUBIC)
    traj = [EvolutionState(theta(KG1, d), d.t, KG1, CUBIC) for d in states]
    res, _ = duhamel_residual(traj, 0.0, 1.0)
    half = strang_evolve(data, 0.0, 1.0, dt / 2, KG1, CUBIC)[-1]
    err = self_estimate(states[-1], half, 2)
    assert res <= 10.0 * max(err, 1e-12)


def test_schrodinger_evolve_self_convergence():
    lin = Grid(16, 2 * np.pi)
    psi0 = 0.05 * np.exp(1j * lin.xi[1] * lin.x)
    data = CauchyData(lin, psi0, None, 0.0)
    ends = []
    for dt in (0.05, 0.025, 0.0125):
        ends.append(evolve(data, 0.0, 0.5, dt, SCH, CUBIC)[-1].current.chart_data.psi)
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    assert e1 / e2 == pytest.approx(16.0, rel=0.4)


def test_schrodinger_evolve_vs_strang():
    lin = Grid(16, 2 * np.pi)
    rng = np.random.default_rng(6)
    psi0 = 0.05 * (rng.standard_normal(lin.M) + 1j * rng.standard_normal(lin.M))
    data = CauchyData(lin, psi0, None, 0.0)
    rk = sample_at(SCH, evolve(data, 0.0, 0.5, 0.005, SCH, CUBIC)[-1].current, 0.5)
    st = strang_evolve(data, 0.0, 0.5, 0.005, SCH, CUBIC)[-1]
    assert np.linalg.norm(rk.psi - st.psi) <= 1e-6


# ---------------------------------------------------------------------------
# measured constants and the majorant
# ---------------------------------------------------------------------------


def test_algebra_constant_is_sound():
    rng = np.random.default_rng(7)
    for s in (0.0, 1.0):
        lower, upper = algebra_constant(GRID, s, 1.0, n_samples=50, seed=1)
        assert lower <= upper
        for _ in range(200):
            f = rng.standard_normal(GRID.M)
            g = rng.standard_normal(GRID.M)
            lhs = sobolev_h(GRID, f * g, s, 1.0)
            rhs = upper * sobolev_h(GRID, f, s, 1.0) * sobolev_h(GRID, g, s, 1.0)
            assert lhs <= rhs * (1 + 1e-12)


def test_majorant_zero_nonlinearity():
    assert vector_field_majorant(KG1, ZERO_N, 1.0, GRID, 0.0).is_zero


def test_majorant_cubic_plug_in():
    lam = 0.7
    X = vector_field_majorant(KG1, NonlinearitySpec({3: lam}), 1.0, GRID, 0.0)
    from chrono_duhamel.propagator import propagator_bound

    c_phi = propagator_bound(KG1, GRID, 1.0, 0.0, 1.0)
    q = algebra_constant(GRID, 0.0, 1.0, n_samples=0)[1]
    np.testing.assert_allclose(X.coeffs, [0, 0, 0, c_phi * q**3 * lam], rtol=1e-13)


def test_majorant_linear_in_coefficient():
    X1 = vector_field_majorant(KG1, NonlinearitySpec({3: 1.0}), 1.0, GRID, 0.0)
    X2 = vector_field_majorant(KG1, NonlinearitySpec({3: 2.0}), 1.0, GRID, 0.0)
    assert X2.coeffs[3] == pytest.approx(2 * X1.coeffs[3], rel=1e-14)


def test_majorant_dominates_field_norm():
    # ||V_t(phi)|| <= X(||phi||) in the sup-over-interval norm
    rng = np.random.default_rng(8)
    T, s, m_ref = 1.0, 0.0, 1.0
    X = vector_field_majorant(KG1, CUBIC, T, GRID, s, m_ref)
    sample_times = np.linspace(0.0, T, 9)

    def sup_norm(fs):
        return max(cau_norm(KG1, sample_at(KG1, fs, float(tau)), s, m_ref) for tau in sample_times)

    for _ in range(50):
        phi = make_free_solution(KG1, random_data(rng, scale=0.2))
        t = float(rng.uniform(0, T))
        v = lagrange_duhamel_V(t, phi, KG1, CUBIC)
        assert sup_norm(v) <= series_eval(X, sup_norm(phi)) * (1 + 1e-10)


def test_majorant_dominates_multilinear_components():
    # ||V_t^(k)(phi_1 ... phi_k)|| <= X_k prod ||phi_j|| on random arguments,
    # with the polarized component realised as the Green lift of the product
    # of the sampled traces
    rng = np.random.default_rng(9)
    T, s, m_ref = 1.0, 0.0, 1.0
    lam = 0.8
    X = vector_field_majorant(KG1, NonlinearitySpec({3: lam}), T, GRID, s, m_ref)
    sample_times = np.linspace(0.0, T, 9)

    def sup_norm(fs):
        return max(cau_norm(KG1, sample_at(KG1, fs, float(tau)), s, m_ref) for tau in sample_times)

    for _ in range(30):
        t = float(rng.uniform(0, T))
        phis = [make_free_solution(KG1, random_data(rng, scale=0.3)) for _ in range(3)]
        traces = [sample_at(KG1, p, t).psi for p in phis]
        lift = green_apply(KG1, GRID, t, lam * traces[0] * traces[1] * traces[2])
        bound = X.coeffs[3] * np.prod([sup_norm(p) for p in phis])
        assert sup_norm(lift) <= bound * (1 + 1e-10)


def test_trajectory_csv_written(tmp_path):
    traj = evolve(benchmark_data(GRID), 0.0, 0.2, 0.05, KG1, CUBIC)
    path = tmp_path / "traj.csv"
    trajectory_csv(traj, str(path), header_comment="demo")
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "t,cau_norm,energy,duhamel_residual_running"
    assert len(lines) == 2 + len(traj)


def _running_residuals(path):
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    return [r.split(",")[3] for r in rows]


@pytest.mark.parametrize(
    "disp, t1, t2",
    [(KG1, 0.0, 0.4), (SCH, 0.0, 0.4), (KG1, 0.3, -0.2)],
    ids=["klein_gordon", "schrodinger", "backward"],
)
def test_trajectory_csv_running_residual_matches_duhamel_residual(tmp_path, disp, t1, t2):
    rng = np.random.default_rng(21)
    nonlin = NonlinearitySpec({2: -0.6, 3: 1.0})
    if disp.second_order:
        data = random_data(rng, t=t1, scale=0.3)
    else:
        psi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        data = CauchyData(GRID, 0.3 * psi, None, t1)
    traj = evolve(data, t1, t2, 0.05, disp, nonlin)
    path = tmp_path / "traj.csv"
    trajectory_csv(traj, str(path))
    cells = _running_residuals(path)
    assert cells[:2] == ["0.0", "0.0"]
    for i in range(2, len(traj)):
        assert cells[i] == repr(duhamel_residual(traj[: i + 1], t1, traj[i].time)[0])


def test_trajectory_csv_one_field_evaluation_per_node(tmp_path, monkeypatch):
    import chrono_duhamel.dynamics as dyn

    traj = evolve(benchmark_data(GRID), 0.0, 0.5, 0.05, KG1, CUBIC)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return lagrange_duhamel_V(*args, **kwargs)

    monkeypatch.setattr(dyn, "lagrange_duhamel_V", counted)
    trajectory_csv(traj, str(tmp_path / "traj.csv"))
    assert len(calls) == len(traj)
