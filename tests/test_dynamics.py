"""Nonlinear-layer tests: the chart ODE, its oracle, and the trajectory dump."""

import re
import types

import numpy as np
import pytest
from oracles import green_apply, rk4_chart_evolve, strang_evolve
from scipy.integrate import simpson, trapezoid

import chrono_duhamel.dynamics as dyn
from chrono_duhamel.dynamics import (
    DivergenceError,
    EvolutionState,
    NonlinearitySpec,
    duhamel_residual,
    evolve,
    trajectory_csv,
)
from chrono_duhamel.propagator import (
    CauchyData,
    DispersionRelation,
    Grid,
    cau_norm,
    _field,
    _wave_factors,
    make_free_solution,
    propagate,
    sample_at,
)

GRID = Grid(16, 2 * np.pi)
KG1 = DispersionRelation("klein_gordon", 1.0)
SCH = DispersionRelation("schrodinger")
CUBIC = NonlinearitySpec.cubic(1.0)
ZERO_N = NonlinearitySpec.zero()


def benchmark_data(grid, amp=0.05, t=0.0):
    return CauchyData(grid, amp * np.cos(2 * np.pi * grid.x / grid.Lx), np.zeros(grid.M), t)


def random_data(rng, grid=GRID, t=0.0, scale=0.1):
    return CauchyData(grid, scale * rng.standard_normal(grid.M), scale * rng.standard_normal(grid.M), t)


@pytest.fixture
def kernel_calls(monkeypatch):
    """``(len(trace), out, scratch)`` of every ``_source`` call, in call order."""
    calls = []
    kernel = dyn._source

    def counted(nonlin, trace, real, out=None, scratch=(None, None, None)):
        calls.append((len(trace), out, scratch))
        return kernel(nonlin, trace, real, out, scratch)

    monkeypatch.setattr(dyn, "_source", counted)
    return calls


def power_by_products(u, k):
    """``u**k``, ``k >= 2``, by binary powering: per digit of ``k`` after the first a square, then ``* u`` if it is 1."""
    p = u
    for bit in bin(k)[3:]:
        p = p * p
        if bit == "1":
            p = p * u
    return p


def power(u, k):
    """``u**k`` as ``NonlinearitySpec.apply`` forms it: by products for float ``u`` and ``k >= 3``."""
    return power_by_products(u, k) if k >= 3 and np.isrealobj(u) else u**k


# ---------------------------------------------------------------------------
# the free solution through given Cauchy data
# ---------------------------------------------------------------------------


def test_theta_idempotent_on_free_traces():
    rng = np.random.default_rng(0)
    data = random_data(rng, t=0.4)
    fs = make_free_solution(KG1, data)
    again = make_free_solution(KG1, sample_at(KG1, fs, 1.3))
    np.testing.assert_allclose(again.chart_data.psi, fs.chart_data.psi, atol=1e-12)
    np.testing.assert_allclose(again.chart_data.chi, fs.chart_data.chi, atol=1e-12)


def test_theta_zero():
    fs = make_free_solution(KG1, CauchyData(GRID, np.zeros(GRID.M), np.zeros(GRID.M), 2.0))
    assert not fs.chart_data.psi.any()


def test_theta_chart_is_propagation_to_reference_time():
    rng = np.random.default_rng(1)
    data = random_data(rng, t=0.4)
    fs = make_free_solution(KG1, data)
    chart = propagate(KG1, data, 0.0)
    np.testing.assert_allclose(fs.chart_data.psi, chart.psi, atol=1e-14)


def test_trace_identity():
    # [Theta_t u]_t = [u]_t through the round trip
    rng = np.random.default_rng(2)
    data = random_data(rng, t=-0.8)
    back = sample_at(KG1, make_free_solution(KG1, data), -0.8)
    np.testing.assert_allclose(back.psi, data.psi, atol=1e-12)
    np.testing.assert_allclose(back.chi, data.chi, atol=1e-12)


# ---------------------------------------------------------------------------
# the Lagrange-Duhamel field
# ---------------------------------------------------------------------------


def field_at(t, phi, disp, nonlin):
    """The program's chart field at the free solution ``phi`` at time ``t``, as Cauchy data.

    ``dyn._field_samples`` on the one-node trajectory ``phi`` at ``t``, its
    modes taken back to fields (real ones for the second-order kind).
    """
    _, _, v = dyn._field_samples([EvolutionState(phi, t, disp, nonlin)])
    grid = phi.chart_data.grid
    return CauchyData(grid, *_field(grid, v[0], disp.second_order), 0.0)


def test_field_vanishes_without_nonlinearity():
    rng = np.random.default_rng(3)
    phi = make_free_solution(KG1, random_data(rng))
    v = field_at(0.7, phi, KG1, ZERO_N)
    assert not v.psi.any() and not v.chi.any()


def test_field_linear_nonlinearity_single_mode():
    # N(u) = u, t = 0: the lift of the trace itself
    lin = NonlinearitySpec({1: 1.0})
    wave = np.cos(GRID.xi[2] * GRID.x)
    phi = make_free_solution(KG1, CauchyData(GRID, wave, np.zeros(GRID.M), 0.0))
    v = field_at(0.0, phi, KG1, lin)
    expect = green_apply(KG1, GRID, 0.0, wave)
    np.testing.assert_allclose(v.psi, expect.chart_data.psi, atol=1e-13)
    np.testing.assert_allclose(v.chi, expect.chart_data.chi, atol=1e-13)


def test_field_cubic_constant_field():
    c = 0.3
    phi = make_free_solution(KG1, CauchyData(GRID, c * np.ones(GRID.M), np.zeros(GRID.M), 0.0))
    v = field_at(0.0, phi, KG1, CUBIC)
    np.testing.assert_allclose(v.psi, 0.0, atol=1e-14)
    np.testing.assert_allclose(v.chi, c**3 * np.ones(GRID.M), atol=1e-14)


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


def test_evolve_requires_a_velocity_trace_for_klein_gordon():
    with pytest.raises(ValueError, match="velocity trace"):
        evolve(CauchyData(GRID, np.ones(GRID.M)), 0.0, 1.0, 0.1, KG1, CUBIC)


def test_evolve_divergence_reported(kernel_calls):
    # focusing blow-up: huge amplitude with N(u) = -u^3 explodes quickly
    data = CauchyData(GRID, 60.0 * np.ones(GRID.M), np.zeros(GRID.M), 0.0)
    focusing = NonlinearitySpec({3: -1.0})
    with pytest.raises(DivergenceError, match=re.escape("diverged at step 3 (t = 1.5)")):
        evolve(data, 0.0, 4.0, 0.5, KG1, focusing)

    # 10^5 steps resolve the blow-up near t = sqrt(2)/60; the loop stops at
    # the first step that is not finite, two source rounds per step
    kernel_calls.clear()
    h = 4.0 / 10**5
    with pytest.raises(DivergenceError) as err:
        evolve(data, 0.0, 4.0, h, KG1, focusing)
    step = int(re.search(r"at step (\d+) ", str(err.value)).group(1))
    assert str(err.value).endswith(f"step {step} (t = {step * h})")
    assert 0 < step < 1000
    assert len(kernel_calls) == 2 * step


def test_evolve_reports_overflowing_free_phases_without_a_warning():
    # the phases eps t overflow from t1 = -1e300 back to the chart's time 0; pyproject turns
    # any RuntimeWarning into an error, so only the DivergenceError may reach the caller
    grid, disp = Grid(4, 1e-110), DispersionRelation("klein_gordon", 0.5)
    with pytest.raises(DivergenceError):
        evolve(benchmark_data(grid, t=-1e300), -1e300, 1.0, 1e298, disp, CUBIC)


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
    # push the independent solution onto free solutions; its Duhamel residual
    # must be at the Strang integrator's own accuracy
    data = benchmark_data(GRID)
    dt = 0.01
    states = strang_evolve(data, 0.0, 1.0, dt, KG1, CUBIC)
    traj = [EvolutionState(make_free_solution(KG1, d), d.t, KG1, CUBIC) for d in states]
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
# trajectory dump
# ---------------------------------------------------------------------------


def test_trajectory_csv_header_and_rows():
    traj = evolve(benchmark_data(GRID), 0.0, 0.2, 0.05, KG1, CUBIC)
    header, lines = trajectory_csv(traj)
    assert header == "t,cau_norm,energy,duhamel_residual_running"
    assert len(lines) == len(traj)
    assert [float(l.split(",")[0]) for l in lines] == [st.time for st in traj]


@pytest.mark.parametrize(
    "disp, t1, t2",
    [(KG1, 0.0, 0.4), (SCH, 0.0, 0.4), (KG1, 0.3, -0.2)],
    ids=["klein_gordon", "schrodinger", "backward"],
)
def test_trajectory_csv_running_residual_matches_duhamel_residual(disp, t1, t2):
    rng = np.random.default_rng(21)
    nonlin = NonlinearitySpec({2: -0.6, 3: 1.0})
    if disp.second_order:
        data = random_data(rng, t=t1, scale=0.3)
    else:
        psi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        data = CauchyData(GRID, 0.3 * psi, None, t1)
    traj = evolve(data, t1, t2, 0.05, disp, nonlin)
    cells = [row.split(",")[3] for row in trajectory_csv(traj)[1]]
    assert cells[:2] == ["0.0", "0.0"]
    for i in range(2, len(traj)):
        assert cells[i] == repr(duhamel_residual(traj[: i + 1], t1, traj[i].time)[0])


def test_trajectory_csv_one_batched_field_evaluation(kernel_calls):
    # the whole dump samples the chart field with one source call at every node
    traj = evolve(benchmark_data(GRID), 0.0, 0.5, 0.05, KG1, CUBIC)
    kernel_calls.clear()
    trajectory_csv(traj)
    assert [(width, out) for width, out, _ in kernel_calls] == [(len(traj), None)]


@pytest.mark.parametrize(
    "disp, t1, t2, steps, nonlin, grid",
    [
        (KG1, 0.0, 1.0, 100, CUBIC, Grid(32, 2 * np.pi)),
        (KG1, 0.3, -0.2, 10, CUBIC, GRID),
        (SCH, 0.0, 0.4, 8, CUBIC, GRID),
        (KG1, 0.0, 0.4, 8, NonlinearitySpec({2: -0.6, 3: 1.0}), GRID),
        (KG1, 0.0, 0.1, 2, CUBIC, GRID),
        (KG1, 0.0, 0.15, 3, CUBIC, GRID),
    ],
    ids=["klein_gordon-101", "backward", "schrodinger", "mixed", "N3", "N4"],
)
def test_prefix_simpson_is_scipy_simpson_on_every_prefix(disp, t1, t2, steps, nonlin, grid):
    rng = np.random.default_rng(23)
    if disp.second_order:
        data = random_data(rng, grid=grid, t=t1, scale=0.3)
    else:
        psi = rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)
        data = CauchyData(grid, 0.3 * psi, None, t1)
    traj = evolve(data, t1, t2, abs(t2 - t1) / steps, disp, nonlin)
    times, _, v = dyn._field_samples(traj)
    sums = dyn._prefix_simpson(times, v)
    assert len(sums) == len(traj) - 2
    # raw bytes, so that the sign of a zero counts
    for n, got in enumerate(sums, 3):
        assert got.tobytes() == simpson(v[:n], x=times[:n], axis=0).tobytes()
    # duhamel_residual's coarse (every-second-node) Simpson sum and its trapezoid sum
    for n in range(2, len(times) + 1):
        if len(times[:n:2]) >= 3:
            coarse = dyn._prefix_simpson(times[:n:2], v[:n:2])[-1]
            assert coarse.tobytes() == simpson(v[:n:2], x=times[:n:2], axis=0).tobytes()
        trap = np.trapezoid(v[:n], x=times[:n], axis=0)
        assert trap.tobytes() == trapezoid(v[:n], x=times[:n], axis=0).tobytes()


def test_dynamics_takes_nothing_from_scipy():
    # its Simpson sums are _prefix_simpson's and its trapezoid sum NumPy's
    def origin(obj):
        return obj.__name__ if isinstance(obj, types.ModuleType) else str(getattr(obj, "__module__", ""))

    assert [name for name, obj in vars(dyn).items() if origin(obj).split(".")[0] == "scipy"] == []


# ---------------------------------------------------------------------------
# N(u)
# ---------------------------------------------------------------------------


def test_apply_turns_negative_zero_into_positive_zero():
    u = np.array([-0.0, 0.0, -1.0, 2.0])
    got = CUBIC.apply(u)
    assert got.tobytes() == np.array([0.0, 0.0, -1.0, 8.0]).tobytes()
    assert not np.signbit(got[:2]).any()
    z = CUBIC.apply(np.array([complex(-0.0, -0.0), complex(-0.0, 0.0)]))
    assert not np.signbit(z.real).any() and not np.signbit(z.imag).any()


@pytest.mark.parametrize("u", [np.full((2, 3), -0.0), np.full(4, complex(-0.0, -0.0)), np.ones((3, 1))])
def test_zero_field_is_zeros_of_the_input(u):
    got = ZERO_N.apply(u)
    assert got.shape == u.shape and got.dtype == u.dtype
    assert got.tobytes() == np.zeros_like(u).tobytes()


# ---------------------------------------------------------------------------
# the mode-space kernel against the per-node physical-space reference
# ---------------------------------------------------------------------------

MIXED = NonlinearitySpec({0: 0.2, 2: -0.6, 3: 1.0})
REFERENCE_CASES = pytest.mark.parametrize(
    "disp, t1, t2, nonlin",
    [(KG1, 0.0, 0.5, CUBIC), (SCH, 0.0, 0.5, CUBIC), (KG1, 0.3, -0.2, CUBIC), (KG1, 0.0, 0.5, MIXED)],
    ids=["klein_gordon", "schrodinger", "backward", "mixed"],
)


def reference_data(disp, t1):
    rng = np.random.default_rng(22)
    if disp.second_order:
        return random_data(rng, t=t1, scale=0.3)
    return CauchyData(GRID, 0.3 * (rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)), None, t1)


@REFERENCE_CASES
def test_evolve_matches_per_node_reference(disp, t1, t2, nonlin):
    data = reference_data(disp, t1)
    traj = evolve(data, t1, t2, 0.05, disp, nonlin)
    ref = rk4_chart_evolve(data, t1, t2, 10, disp, nonlin)
    h = (t2 - t1) / 10
    assert [st.time for st in traj] == [t1 + i * h for i in range(11)]
    for st, want in zip(traj, ref, strict=True):
        got = st.current.chart_data
        for a, b in ((got.psi, want.psi), (got.chi, want.chi)):
            if b is not None:
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@REFERENCE_CASES
def test_batched_field_equals_lagrange_duhamel_V_node_by_node(disp, t1, t2, nonlin):
    # each row of the batched field is the one-node kernel call on its node, bit for bit
    traj = evolve(reference_data(disp, t1), t1, t2, 0.05, disp, nonlin)
    _, _, v = dyn._field_samples(traj)
    for st, vi in zip(traj, v, strict=True):
        np.testing.assert_array_equal(vi, dyn._field_samples([st])[2][0])


def chart_factors(disp, grid, t):
    """Per-mode factors ``(fwd, back)`` of ``A_t`` and ``A_{-t}`` at the times ``t``, ``(len(t), K, M)``."""
    t = np.asarray(t, dtype=float)[:, None]
    if disp.second_order:
        cos, snc = _wave_factors(disp.eps(grid.xi), t)
        return np.stack([cos, snc], axis=-2), np.stack([-snc, cos], axis=-2) / grid.M
    phase = np.exp(1j * disp.phase(grid.xi) * t)
    return phase[:, None, :], (-1j * phase.conj() / grid.M)[:, None, :]


def N_of(nonlin):
    def N(u):
        out = np.zeros_like(u)
        for k, v in nonlin.coeffs.items():
            out = out + v * power(u, k)
        return out

    return N


def chart_start(data, disp):
    chart = make_free_solution(disp, data).chart_data
    fields = np.array([chart.psi, chart.chi] if disp.second_order else [chart.psi])
    return fields, disp.second_order and np.isrealobj(fields), np.fft.fft(fields) / data.grid.M


def textbook_rk4(data, t1, t2, steps, disp, nonlin):
    """Chart fields at the nodes of classical RK4 on dc/dt = -Vbar_t(c), with the FFT scale in ``fwd``.

    Every expression is the textbook one: ``N`` summed from an array of
    zeros, the trace ``ifft((M fwd c).sum(axis=-2))`` and the stages
    ``c + h/2 k1``.
    """
    M = data.grid.M
    fields, real, c = chart_start(data, disp)
    h = (t2 - t1) / steps
    fwd, back = chart_factors(disp, data.grid, t1 + h / 2 * np.arange(2 * steps + 1))
    back = -back
    N = N_of(nonlin)

    def rhs(j, c):
        u = np.fft.ifft((M * fwd[j] * c).sum(axis=-2))
        return back[j] * np.fft.fft(N(u.real if real else u))[..., None, :]

    nodes = [c]
    for step in range(steps):
        j = 2 * step
        k1 = rhs(j, c)
        k2 = rhs(j + 1, c + h / 2 * k1)
        k3 = rhs(j + 1, c + h / 2 * k2)
        k4 = rhs(j + 2, c + h * k3)
        c = c + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        nodes.append(c)
    out = np.fft.ifft(np.array(nodes[1:]) * M)
    return [fields, *(out.real if real else out)]


def trace_form_rk4(data, t1, t2, steps, disp, nonlin):
    """Chart fields at the nodes of the same RK4 in trace form, one stage at a time.

    ``T[i]`` is the trace of ``c`` at stage time ``j + i``, ``kappa`` the lag
    kernel ``-(fwd_tau back_0).sum(axis=-2)`` at ``tau = 0, h/2`` and ``B``
    the factors ``-back`` times ``h/6`` at the nodes and ``h/3`` at the
    midpoints.  Where ``kappa(0)`` is zero, stage 3's trace is ``T[1]``, so
    stages 1 and 3 come first and then 2 and 4, as in two batched rounds.
    """
    M = data.grid.M
    fields, real, c = chart_start(data, disp)
    h = (t2 - t1) / steps
    fwd, back = chart_factors(disp, data.grid, t1 + h / 2 * np.arange(2 * steps + 1))
    B = back * np.where(np.arange(2 * steps + 1) % 2 == 0, -h / 6, -h / 3)[:, None, None]
    lag_fwd, lag_back = chart_factors(disp, data.grid, [0.0, h / 2])
    kappa0, kappa1 = -(lag_fwd * lag_back[0]).sum(axis=-2)
    N = N_of(nonlin)

    def source(sigma):
        u = np.fft.ifft(M * sigma)
        return np.fft.fft(N(u.real if real else u))

    nodes = [c]
    for step in range(steps):
        j = 2 * step
        T = (fwd[j : j + 3] * c).sum(axis=-2)
        if not kappa0.any():
            g1, g3 = source(T[0]), source(T[1])
            g2, g4 = source(T[1] + (h / 2 * kappa1) * g1), source(T[2] + (h * kappa1) * g3)
        else:
            g1 = source(T[0])
            g2 = source(T[1] + (h / 2 * kappa1) * g1)
            g3 = source(T[1] + (h / 2 * kappa0) * g2)
            g4 = source(T[2] + (h * kappa1) * g3)
        c = c + ((B[j] * g1 + B[j + 1] * (g2 + g3)) + B[j + 2] * g4)
        nodes.append(c)
    out = np.fft.ifft(np.array(nodes[1:]) * M)
    return [fields, *(out.real if real else out)]


@pytest.mark.parametrize(
    "disp, M, t1, t2, nonlin",
    [
        (KG1, 4, 0.0, 0.5, CUBIC),
        (KG1, 32, 0.0, 0.5, CUBIC),
        (KG1, 256, 0.0, 0.5, CUBIC),
        (KG1, 32, 0.3, -0.2, CUBIC),
        (SCH, 32, 0.0, 0.5, CUBIC),
        (KG1, 32, 0.0, 0.5, NonlinearitySpec({0: 0.2, 1: 0.5, 3: 1.0})),
        (SCH, 16, 0.3, -0.2, NonlinearitySpec({0: 0.2, 1: 0.5, 3: 1.0})),
        (KG1, 32, 0.0, 0.5, ZERO_N),
        (SCH, 32, 0.0, 0.5, NonlinearitySpec({2: 1.0})),
        (KG1, 32, 0.0, 0.5, NonlinearitySpec({1: 0.7, 2: 0.4})),
        (DispersionRelation("klein_gordon", 0.0), 32, 0.0, 0.5, CUBIC),
        (KG1, 32, 0.0, 0.5, NonlinearitySpec({4: 0.7})),
    ],
    ids=[
        "M4",
        "M32",
        "M256",
        "backward",
        "schrodinger",
        "degrees-0-1-3",
        "schrodinger-backward-0-1-3",
        "zero",
        "schrodinger-complex-square",
        "degrees-1-2",
        "massless",
        "quartic",
    ],
)
def test_evolve_is_textbook_rk4_bit_for_bit(disp, M, t1, t2, nonlin):
    # bit for bit the trace-form step written out stage by stage, and within
    # 1e-14 of the textbook step ``c + h/2 k1``, which rounds differently
    grid = Grid(M, 2 * np.pi)
    rng = np.random.default_rng(31)
    if disp.second_order:
        data = random_data(rng, grid=grid, t=t1, scale=0.3)
    else:
        data = CauchyData(grid, 0.3 * (rng.standard_normal(M) + 1j * rng.standard_normal(M)), None, t1)
    traj = evolve(data, t1, t2, abs(t2 - t1) / 10, disp, nonlin)
    want = trace_form_rk4(data, t1, t2, 10, disp, nonlin)
    textbook = textbook_rk4(data, t1, t2, 10, disp, nonlin)
    assert len(traj) == len(want) == len(textbook)
    for st, fields, near in zip(traj, want, textbook):
        got = st.current.chart_data
        for i, row in enumerate([got.psi] if got.chi is None else [got.psi, got.chi]):
            assert row.tobytes() == fields[i].tobytes()
            assert np.max(np.abs(row - near[i])) <= 1e-14 * np.max(np.abs(near[i]))


def reduce_kernel(nonlin, fwd, back, c, real):
    """The chart field with ``np.add.reduce`` over the rows and ``N`` on Python scalars."""
    u = np.fft.ifft(np.add.reduce(fwd * c, axis=-2), norm="forward")
    u = u.real if real else u
    g = 0.0
    for k, v in nonlin.coeffs.items():
        g = g + v * power(u, k)
    return back * np.fft.fft(g)[..., None, :]


@pytest.mark.parametrize(
    "nonlin", [CUBIC, MIXED, NonlinearitySpec({101: 0.5})], ids=["cubic", "mixed", "degree-101"]
)
@pytest.mark.parametrize("kind", ["real", "complex", "schrodinger"])
def test_chart_field_into_buffers_is_the_reduce_formula_bit_for_bit(kind, nonlin):
    # every mode but the zero mode is +-0 in both parts, at random: the row
    # products then hold -0s that np.add.reduce's +0 start turns into +0,
    # and the trace holds exact zeros whose sign a complex power of degree
    # >= 100 (cpow, through atan2) reads
    disp = SCH if kind == "schrodinger" else KG1
    K, M, T = (1 if kind == "schrodinger" else 2), GRID.M, 40
    rng = np.random.default_rng(4)
    fwd, back = dyn._chart_factors(disp, GRID, rng.uniform(-3.0, 3.0, T))
    c = np.zeros((T, K, M), complex)
    c.real, c.imag = np.where(rng.integers(0, 2, (2, T, K, M)), -0.0, 0.0)
    c.real[..., 0] = -rng.uniform(0.5, 1.0, (T, K))
    real = kind == "real"
    with np.errstate(all="ignore"):
        want = reduce_kernel(nonlin, fwd, back, c, real)
        assert dyn._chart_field(nonlin, fwd, back, c, real).tobytes() == want.tobytes()
        # the loop's path: the trace and the source into given arrays, two times at a time
        prod, trace, g = np.empty((2, K, M), complex), np.empty((2, M), complex), np.empty((2, M), complex)
        scratch = (np.empty((2, M), complex), *np.empty((2, 2, M), float if real else complex))
        for i in range(0, T, 2):
            assert dyn._trace(fwd[i : i + 2], c[i : i + 2], real, prod, trace) is trace
            assert dyn._source(nonlin, trace, real, g, scratch) is g
            assert (back[i : i + 2] * g[:, None, :]).tobytes() == want[i : i + 2].tobytes()


@pytest.mark.parametrize("disp", [KG1, SCH], ids=["klein_gordon", "schrodinger"])
def test_evolve_stages_write_into_arrays_allocated_once(kernel_calls, disp):
    # Klein-Gordon: kappa(0) = 0, two source rounds of two stages per step
    # (1 and 3, then 2 and 4); Schrodinger: four rounds of one.  Each round
    # writes into fixed rows of one source array with one set of scratch
    # arrays, and the arrays and their sizes are the same for 5 steps and for 40
    rounds = 2 if disp.second_order else 4
    data = reference_data(disp, 0.0)
    footprints = []
    for n in (5, 40):
        kernel_calls.clear()
        evolve(data, 0.0, 0.5, 0.5 / n, disp, MIXED)
        assert len(kernel_calls) == rounds * n
        assert [width for width, _, _ in kernel_calls] == [4 // rounds] * (rounds * n)
        dests = [out for _, out, _ in kernel_calls]
        assert [id(d) for d in dests[:rounds]] * n == [id(d) for d in dests]
        assert len({id(d) for d in dests}) == rounds and len({id(d.base) for d in dests}) == 1
        assert len({tuple(map(id, scratch)) for _, _, scratch in kernel_calls}) == 1
        footprints.append([d.base.nbytes for d in dests[:1]] + [a.nbytes for a in kernel_calls[0][2]])
    assert footprints[0] == footprints[1]


@pytest.mark.parametrize("disp", [KG1, SCH], ids=["klein_gordon", "schrodinger"])
def test_evolve_nodes_are_read_only_rows_of_one_array(disp):
    # node 0 is the frozen copy of the initial data; every later node's
    # rows are views of one read-only array, which cannot be made writable
    traj = evolve(reference_data(disp, 0.0), 0.0, 0.5, 0.05, disp, CUBIC)
    rows = [[d.psi] if d.chi is None else [d.psi, d.chi] for d in (st.current.chart_data for st in traj)]
    assert len({id(row.base) for node in rows[1:] for row in node}) == 1
    for i, node in enumerate(rows):
        for row in node:
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0
            if i:
                with pytest.raises(ValueError):
                    row.setflags(write=True)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 11, 101])
def test_real_powers_are_products_in_binary_powering_order(k):
    rng = np.random.default_rng(k)
    u = rng.uniform(-1.5, 1.5, 64)
    spec = NonlinearitySpec({k: 0.7})
    assert spec.apply(u).tobytes() == (0.0 + 0.7 * power_by_products(u, k)).tobytes()
    # complex traces keep np.power
    z = u + 1j * rng.uniform(-1.5, 1.5, 64)
    assert spec.apply(z).tobytes() == (0.0 + 0.7 * np.power(z, k)).tobytes()
