"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance; every
test ends by printing a single pass line (run with ``pytest -s`` to see
them as they complete).  Random instances use fixed seeds.
"""

import math
import time

import numpy as np
import pytest

from chrono_duhamel.chrono import (
    ChartMap,
    certify_window,
    chrono_exp_evolve,
    invariance_scan,
    point_eval_functional,
    transport_majorant,
    tree_expand,
)
from chrono_duhamel.dynamics import (
    NonlinearitySpec,
    duhamel_residual,
    evolve,
)
from chrono_duhamel.propagator import (
    CauchyData,
    DispersionRelation,
    Grid,
    cau_norm,
    make_free_solution,
    propagate,
    sample_at,
)
from chrono_duhamel.series import (
    MajorantSeries,
    apply_majorant_operator,
    derivative,
    eval_series as sev,
    gamma_constant,
    guaranteed_time,
)
from chrono_duhamel.symfun import (
    SymFunctional,
    SymTensor,
    VectorNorm,
    coefficient_l1,
    compose_first_slot,
    eval_series,
    majorant_of,
    num_canonical,
)

from oracles import flow, strang_evolve

KG = DispersionRelation("klein_gordon", 1.0)
CUBIC = NonlinearitySpec.cubic(1.0)


def _report(n, name, t0):
    print(f"\nACCEPTANCE {n} ({name}): PASS  [{time.time() - t0:.1f}s]")


def benchmark32():
    grid = Grid(32, 2 * np.pi)
    data = CauchyData(grid, 0.05 * np.cos(grid.x), np.zeros(grid.M), 0.0)
    return grid, data


# ---------------------------------------------------------------------------


def test_criterion_1_linear_exactness():
    t0 = time.time()
    grid = Grid(32, 2 * np.pi)
    rng = np.random.default_rng(101)
    eps = KG.eps(grid.xi)
    pairs = 0
    for _ in range(320):
        ph = rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)
        ch = rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)
        tau = float(rng.uniform(-5, 5))
        data = CauchyData(grid, np.fft.ifft(ph) * grid.M, np.fft.ifft(ch) * grid.M, 0.0)
        out = propagate(KG, data, tau)
        out_ph = np.fft.fft(out.psi) / grid.M
        out_ch = np.fft.fft(out.chi) / grid.M
        c, s = np.cos(eps * tau), np.sin(eps * tau)
        np.testing.assert_allclose(out_ph, c * ph + s / eps * ch, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out_ch, -eps * s * ph + c * ch, rtol=1e-12, atol=1e-12)
        pairs += grid.M
    assert pairs >= 10_000

    for _ in range(100):
        psi = rng.standard_normal(grid.M)
        chi = rng.standard_normal(grid.M)
        data = CauchyData(grid, psi, chi, 0.0)
        t1_, t2_, t3_ = rng.uniform(-10, 10, size=3)
        chained = propagate(KG, propagate(KG, propagate(KG, data, t1_), t2_), t3_)
        direct = propagate(KG, data, t3_)
        np.testing.assert_allclose(chained.psi, direct.psi, atol=1e-12)
        np.testing.assert_allclose(chained.chi, direct.chi, atol=1e-12)
        back = propagate(KG, propagate(KG, data, t1_), 0.0)
        np.testing.assert_allclose(back.psi, psi, atol=1e-12)
        np.testing.assert_allclose(back.chi, chi, atol=1e-12)
    _report(1, "linear exactness", t0)


def test_criterion_2_duhamel_residual_order4():
    t0 = time.time()
    _, data = benchmark32()
    residuals = []
    for dt in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        traj = evolve(data, 0.0, 1.0, dt, KG, CUBIC)
        residuals.append(duhamel_residual(traj, 0.0, 1.0)[0])
    ratios = [residuals[i] / residuals[i + 1] for i in range(3)]
    for ratio in ratios:
        assert 12.0 <= ratio <= 20.0, f"ratios observed: {ratios}"
    _report(2, "Duhamel residual order-4 convergence", t0)


def test_criterion_3_oracle_agreement():
    t0 = time.time()
    grid, data = benchmark32()
    dt = 0.02

    def end_gap(a, b):
        return cau_norm(KG, CauchyData(grid, a.psi - b.psi, a.chi - b.chi, 0.0), 0.0, 1.0)

    rk = sample_at(KG, evolve(data, 0.0, 1.0, dt, KG, CUBIC)[-1].current, 1.0)
    rk_half = sample_at(KG, evolve(data, 0.0, 1.0, dt / 2, KG, CUBIC)[-1].current, 1.0)
    st = strang_evolve(data, 0.0, 1.0, dt, KG, CUBIC)[-1]
    st_half = strang_evolve(data, 0.0, 1.0, dt / 2, KG, CUBIC)[-1]
    err_rk = end_gap(rk, rk_half) / (2**4 - 1)
    err_st = end_gap(st, st_half) / (2**2 - 1)
    assert end_gap(rk, st) <= 5.0 * (err_rk + err_st)
    _report(3, "integrator oracle agreement", t0)


def test_criterion_4_main_invariance():
    t0 = time.time()
    grid = Grid(8, 2 * np.pi)
    data = CauchyData(grid, 0.05 * np.cos(2 * np.pi * grid.x / grid.Lx), np.zeros(grid.M), 0.0)
    chart = ChartMap(grid, KG, 0.0, 1.0)
    f = point_eval_functional(chart, 0.0, 0)
    traj = evolve(data, 0.0, 0.5, 0.0125, KG, CUBIC)
    drifts = {}
    final = {}
    for cap in (3, 5):
        _, values, drift, _ = invariance_scan(f, traj, 0.0, 0.5, chart, substeps=2, cap=cap)
        drifts[cap] = drift
        final[cap] = values[-1]
    assert drifts[5] <= 1e-6
    assert drifts[3] >= 10.0 * drifts[5], f"P=3 drift {drifts[3]:.2e}, P=5 drift {drifts[5]:.2e}"
    # final transported value vs the evolve oracle's conserved quantity
    oracle = eval_series(f, chart.coords_of(make_free_solution(KG, data)))[0]
    assert abs(final[5] - oracle) <= 1e-6
    _report(4, "main invariance of the transported functional", t0)


def test_criterion_5_tree_tensor_equivalence():
    t0 = time.time()
    grid = Grid(8, 2 * np.pi)
    chart = ChartMap(grid, KG, 0.0, 1.0)
    f = point_eval_functional(chart, 0.0, 0)
    for amp, (t1, t2) in [(0.3, (0.0, 0.25)), (0.2, (0.25, 0.0))]:
        data = CauchyData(grid, amp * np.cos(2 * np.pi * grid.x / grid.Lx), np.zeros(grid.M), 0.0)
        u = make_free_solution(KG, data)
        _, evaluator = tree_expand(f, t1, t2, 2, KG, CUBIC, chart)
        tree_total = evaluator(u)
        F, _ = chrono_exp_evolve(f, t1, t2, 50, KG, CUBIC, chart, cap=5)
        tensor_total = eval_series(F, chart.coords_of(u))[0]
        assert abs(tree_total - tensor_total) <= 1e-8
    _report(5, "tree/tensor representation equivalence", t0)


def test_criterion_6_majorant_suite():
    t0 = time.time()
    rng = np.random.default_rng(606)

    def rand_tensor(d, p, codomain=1, scale=1.0):
        return SymTensor(p, d, scale * rng.standard_normal((codomain, num_canonical(d, p))))

    def l1_series(tensors_by_degree):
        top = max(tensors_by_degree)
        out = np.zeros(top + 1)
        for q, tens in tensors_by_degree.items():
            out[q] = coefficient_l1(tens)
        return MajorantSeries(out)

    def operator_apply(f_terms, v_terms):
        out = {}
        for p, ft in f_terms.items():
            if p == 0:
                continue
            for q, vt in v_terms.items():
                comp = compose_first_slot(ft, vt).scaled(float(p))
                m = comp.degree
                out[m] = comp if m not in out else out[m] + comp
        return out

    # (a) coefficient domination of the operator action
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(0, 4))
        ft = rand_tensor(d, p)
        vt = rand_tensor(d, q, codomain=d)
        comp = compose_first_slot(ft, vt).scaled(float(p))
        assert coefficient_l1(comp) <= p * coefficient_l1(vt) * coefficient_l1(ft) * (1 + 1e-12)

    # (b) operator-majorant bound [[V.f]](rho) <= [[V]](rho) [[f]]'(rho)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        f_terms = {p: rand_tensor(d, p) for p in range(1, int(rng.integers(2, 5)))}
        v_terms = {q: rand_tensor(d, q, codomain=d, scale=0.5) for q in range(0, int(rng.integers(1, 4)))}
        out = operator_apply(f_terms, v_terms)
        rho = float(rng.uniform(0.05, 1.0))
        lhs = sev(l1_series(out), rho) if out else 0.0
        rhs = sev(l1_series(v_terms), rho) * sev(derivative(l1_series(f_terms), 1), rho)
        assert lhs <= rhs * (1 + 1e-12)

    # (c) iterated bound via the one-variable operator (X.)^k
    for _ in range(334):
        d = int(rng.integers(2, 4))
        f_terms = {p: rand_tensor(d, p, scale=0.5) for p in (1, 2)}
        v_terms = {q: rand_tensor(d, q, codomain=d, scale=0.3) for q in (0, 1, 2)}
        X = l1_series(v_terms)
        H = l1_series(f_terms)
        current = f_terms
        for k in (1, 2, 3):
            current = operator_apply(current, v_terms)
            bound = apply_majorant_operator(X, H, k)
            r = float(rng.uniform(0.05, 0.8))
            lhs = sev(l1_series(current), r) if current else 0.0
            assert lhs <= sev(bound, r) * (1 + 1e-12)

    # (d) the majorant controls the series evaluation
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        degrees = sorted(set(int(x) for x in rng.integers(0, 5, size=3)))
        f = SymFunctional([rand_tensor(d, p) for p in degrees])
        norm = VectorNorm.euclidean(d) if rng.random() < 0.5 else VectorNorm.two_block(d, max(d // 2, 1))
        maj = majorant_of(f)
        phi = rng.standard_normal(d) * rng.uniform(0, 1.5)
        assert abs(eval_series(f, phi)[0]) <= sev(maj, norm.norm(phi)) * (1 + 1e-12)

    # (e) derivative comparison constants
    for _ in range(1000):
        coeffs = rng.uniform(0, 1, size=31)
        fmaj = MajorantSeries(coeffs)
        r = float(rng.uniform(0.05, 1.0))
        R = r / float(rng.uniform(0.05, 0.95))
        k = int(rng.integers(0, 6))
        lhs = sev(derivative(fmaj, k), r)
        rhs = gamma_constant(r, R, k) * sev(fmaj, R)
        assert lhs <= rhs * (1 + 1e-12)
    _report(6, "majorant inequality suite (zero violations)", t0)


def test_criterion_7_flow_lemma():
    t0 = time.time()
    rng = np.random.default_rng(707)
    T, rho = 0.4, 0.6
    checked = 0
    while checked < 10_000:
        X = MajorantSeries(rng.uniform(0, 1, size=int(rng.integers(1, 5))))
        outer = flow(X, T, rho, rtol=1e-9)
        if not outer.completed:
            continue
        for _ in range(200):
            z = rho * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            tau = T * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            mid = flow(X, abs(tau), abs(z), rtol=1e-9)
            inner = flow(X, abs(tau), complex(z), direction=tau if tau != 0 else 1.0, rtol=1e-9)
            tol = 1e-6 * max(1.0, outer.value)
            assert abs(inner.value) <= mid.value + tol
            assert mid.value <= outer.value + tol
            checked += 1

    # Taylor-flow identity on polynomial presets
    presets = [
        (MajorantSeries([0, 1.0]), MajorantSeries([1.0, 1.0, 0.5])),
        (MajorantSeries([0.2, 0.5]), MajorantSeries([0, 1.0, 0, 0.25])),
        (MajorantSeries([0, 0, 0.8]), MajorantSeries([0.5, 0, 1.0])),
    ]
    for X, H in presets:
        R, T_ = 0.8, 0.3
        r = flow(X, -T_, R, rtol=1e-12).value
        target = sev(H, R)
        acc = 0.0
        residuals = []
        for k in range(31):
            acc += T_**k / math.factorial(k) * sev(apply_majorant_operator(X, H, k), r)
            residuals.append(abs(target - acc))
        assert residuals[-1] <= 1e-8 * max(1.0, target)
        tail = np.array(residuals[3:])
        assert np.all(np.diff(tail) <= 1e-12 + 1e-9 * target)
    _report(7, "holomorphic flow lemma and Taylor-flow identity", t0)


def test_criterion_8_certified_window():
    t0 = time.time()
    grid = Grid(8, 2 * np.pi)
    chart = ChartMap(grid, KG, 0.0, 1.0)
    f = point_eval_functional(chart, 0.0, 0)
    R, floor = 0.2, 0.05

    # measured majorant of the cubic vertex over a dense trial horizon
    X1 = transport_majorant(CUBIC, chart, np.linspace(0.0, 1.2, 97))
    t_bar = guaranteed_time(X1, R, floor)
    C = X1.coeffs[3]
    closed_form = (1.0 / floor**2 - 1.0 / R**2) / (2.0 * C)
    assert t_bar == pytest.approx(closed_form, rel=1e-6)

    # transport over half the guaranteed window; the majorant used by the
    # certificate also covers the integrator's stage times
    T = t_bar / 2.0
    steps = 32
    stage_times = np.linspace(0.0, T, 2 * steps + 1)
    X2 = transport_majorant(CUBIC, chart, stage_times)
    X = MajorantSeries(np.maximum(X1.coeffs, X2.coeffs))
    F, _ = chrono_exp_evolve(f, 0.0, T, steps, KG, CUBIC, chart, cap=5)
    rec = certify_window(
        majorant_of(f),
        X,
        R,
        T,
        floor=1e-9,
        uf_majorant=majorant_of(F),
    )
    assert rec.window_ok and rec.certified_radius > 0
    assert rec.transport_ok, (
        f"[[Uf]]({rec.certified_radius:.4f}) = {rec.uf_majorant_at_radius:.4f} "
        f"vs [[f]]({R}) = {rec.f_majorant_at_R:.4f}"
    )
    _report(8, "certified transport window", t0)
