"""Majorant-calculus unit and property tests."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_duhamel import series
from chrono_duhamel.chrono import certify_window
from chrono_duhamel.series import (
    MajorantSeries,
    apply_majorant_operator,
    derivative,
    eval_series,
    flow_time,
    gamma_constant,
    guaranteed_time,
)

from oracles import flow


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_cubic_monomial():
    s = MajorantSeries([0, 0, 0, 1])
    assert eval_series(s, 2.0) == 8.0


def test_eval_constant_term_only():
    s = MajorantSeries([1, 1])
    assert eval_series(s, 0.0) == 1.0


def test_eval_geometric_partial_sum():
    # oracle: (1 - 0.5**11) / (1 - 0.5)
    s = MajorantSeries(np.ones(11))
    expected = (1 - 0.5**11) / (1 - 0.5)
    assert expected == 1.9990234375
    assert eval_series(s, 0.5) == pytest.approx(expected, rel=1e-15)


def test_eval_rejects_negative():
    with pytest.raises(ValueError):
        eval_series(MajorantSeries([1.0]), -0.5)


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        MajorantSeries([1.0, -0.1])


@given(
    coeffs=st.lists(st.floats(0, 10), min_size=0, max_size=8),
    z=st.floats(0, 2),
    dz=st.floats(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_eval_monotone(coeffs, z, dz):
    s = MajorantSeries(coeffs)
    assert eval_series(s, z + dz) >= eval_series(s, z)


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------


def test_derivative_of_square():
    d = derivative(MajorantSeries([0, 0, 1]), 1)
    np.testing.assert_allclose(d.coeffs, [0, 2])


def test_derivative_of_constant_is_zero_series():
    d = derivative(MajorantSeries([5.0]), 1)
    assert d.coeffs.size == 0
    assert d.is_zero


def test_second_derivative_of_cube():
    d = derivative(MajorantSeries([0, 0, 0, 1]), 2)
    np.testing.assert_allclose(d.coeffs, [0, 6])


def test_derivative_beyond_degree_is_zero():
    assert derivative(MajorantSeries([1, 2, 3]), 7).is_zero


def test_derivative_factors_are_exact():
    # coefficient j of the k-th derivative is exactly (j+k)!/j! times coeffs[j+k]
    rng = np.random.default_rng(19)
    for k in range(1, 13):
        c = rng.uniform(0, 1, size=40)
        expected = [float(math.perm(j + k, k)) * c[j + k] for j in range(40 - k)]
        assert derivative(MajorantSeries(c), k).coeffs.tolist() == expected


@given(
    coeffs=st.lists(st.floats(0, 5), min_size=1, max_size=7),
    z=st.floats(0.0, 1.5),
)
@settings(max_examples=150, deadline=None)
def test_derivative_matches_finite_difference(coeffs, z):
    s = MajorantSeries(coeffs)
    h = 1e-7
    fd = (eval_series(s, z + h) - eval_series(s, max(z - h, 0.0))) / (h + min(z, h))
    assert eval_series(derivative(s, 1), z) == pytest.approx(fd, rel=1e-5, abs=1e-5)


# ---------------------------------------------------------------------------
# comparison constant
# ---------------------------------------------------------------------------


def _gamma_brute(r, R, k, p_max=100_000):
    """The largest of the terms p = k .. p_max, far past the maximiser at ratios up
    to 0.999, with log p!/(p-k)! summed as k logarithms."""
    p = np.arange(k, p_max, dtype=float)
    log_terms = np.log(p[:, None] - np.arange(k)).sum(axis=1) + p * math.log(r / R)
    return math.exp(float(log_terms.max())) / r**k


def test_gamma_k0():
    assert gamma_constant(1.0, 2.0, 0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_k1_half_ratio():
    # max_p p (1/2)^p is attained at p = 1 and p = 2 with value 1/2
    assert gamma_constant(1.0, 2.0, 1) == pytest.approx(0.5, rel=1e-14)


def test_gamma_k1_ratio_e():
    # max_p p e^{-p} = e^{-1} at p = 1
    assert gamma_constant(1.0, math.e, 1) == pytest.approx(math.exp(-1), rel=1e-12)


def test_gamma_rejects_bad_radii():
    with pytest.raises(ValueError):
        gamma_constant(2.0, 1.0, 0)
    with pytest.raises(ValueError):
        gamma_constant(1.0, 1.0, 2)


@given(
    r=st.floats(0.05, 2.0),
    ratio=st.floats(0.05, 0.999),
    k=st.integers(0, 5),
)
@settings(max_examples=80, deadline=None)
def test_gamma_matches_brute_force(r, ratio, k):
    # both sides take log p!/(p-k)! without cancellation (the exact integer,
    # or k summed logarithms), so they agree to rounding of the exponent
    R = r / ratio
    assert gamma_constant(r, R, k) == pytest.approx(_gamma_brute(r, R, k), rel=1e-12)


def test_gamma_dominates_derivative_evaluations():
    # [[f]]^(k)(r) <= Gamma^(k)(r, R) [[f]](R), checked exactly on random
    # series supported up to degree 30 (acceptance item 6 runs the bulk count)
    rng = np.random.default_rng(7)
    for _ in range(200):
        coeffs = rng.uniform(0, 1, size=31)
        r = rng.uniform(0.05, 1.0)
        R = r / rng.uniform(0.05, 0.95)
        k = int(rng.integers(0, 6))
        f = MajorantSeries(coeffs)
        lhs = eval_series(derivative(f, k), r)
        rhs = gamma_constant(r, R, k) * eval_series(f, R)
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def test_flow_linear_field_exponential():
    res = flow(MajorantSeries([0, 1]), 1.0, 1.0)
    assert res.completed
    assert res.value == pytest.approx(math.e, rel=1e-9)


def test_flow_quadratic_field_closed_form():
    # dz/dt = z^2, z0 = 1: z(t) = 1 / (1 - t)
    res = flow(MajorantSeries([0, 0, 1]), 0.5, 1.0)
    assert res.completed
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_flow_backward_cubic_closed_form():
    # dz/dt = -2 z^3: z(t) = R (1 + 4 R^2 t)^{-1/2}
    res = flow(MajorantSeries([0, 0, 0, 2]), -1.0, 1.0)
    assert res.completed
    assert res.value == pytest.approx(1 / math.sqrt(5), rel=1e-9)


def test_flow_zero_time_identity():
    res = flow(MajorantSeries([0, 1]), 0.0, 0.7)
    assert res.completed and res.value == 0.7


def test_flow_blowup_detected():
    # dz/dt = z^2 from 1 blows up at t = 1
    res = flow(MajorantSeries([0, 0, 1]), 2.0, 1.0)
    assert res.status == "blew_up"
    assert res.time_reached == pytest.approx(1.0, abs=1e-6)


def test_flow_step_collapse_is_a_blow_up():
    # dz/dt = 2 z^3 from 1 blows up at t = 1/4; DOP853's step size collapses
    # before |z| reaches the cap, and its warning stays inside flow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = flow(MajorantSeries([0, 0, 0, 2.0]), 1.0, 1.0)
    assert res.status == "blew_up"
    assert res.time_reached == pytest.approx(0.25, abs=1e-9)


def test_flow_group_law():
    rng = np.random.default_rng(3)
    for _ in range(60):
        X = MajorantSeries(rng.uniform(0, 1, size=rng.integers(1, 5)))
        z0 = rng.uniform(0.0, 0.5)
        t1, t2 = rng.uniform(0, 0.3, size=2)
        direct = flow(X, t1 + t2, z0)
        mid = flow(X, t1, z0)
        two_leg = flow(X, t2, mid.value)
        assert direct.completed and two_leg.completed
        scale = max(1.0, abs(direct.value))
        assert abs(direct.value - two_leg.value) <= 10 * 1e-10 * scale * 10


def test_flow_domination_complex():
    # |e^{tau X}(z)| <= e^{|tau| X}(|z|) <= e^{T X}(rho)
    rng = np.random.default_rng(11)
    T, rho = 0.4, 0.6
    checked = 0
    for _ in range(250):
        X = MajorantSeries(rng.uniform(0, 1, size=rng.integers(1, 5)))
        outer = flow(X, T, rho)
        if not outer.completed:
            # the lemma assumes e^{TX}(rho) exists
            continue
        z = rho * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        tau = T * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mid = flow(X, abs(tau), abs(z))
        inner = flow(X, abs(tau), complex(z), direction=tau if tau != 0 else 1.0)
        tol = 1e-9 * max(1.0, outer.value)
        assert abs(inner.value) <= mid.value + tol
        assert mid.value <= outer.value + tol
        checked += 1
    assert checked >= 150


# ---------------------------------------------------------------------------
# flow times and the guaranteed time
# ---------------------------------------------------------------------------


def test_flow_time_constant_field_and_endpoints():
    X = MajorantSeries([2.0])
    assert flow_time(X, 0.2, 1.0) == pytest.approx(0.4, rel=1e-12)
    assert flow_time(X, 1.0, 1.0) == 0.0
    assert flow_time(MajorantSeries([0.0]), 0.2, 1.0) == math.inf
    with pytest.raises(ValueError):
        flow_time(X, 0.0, 1.0)


def test_flow_time_down_to_the_default_floor():
    # X = 2 z^3: T(r) = (r^-2 - R^-2) / 4, about 2.5e23 at r = 1e-12
    X = MajorantSeries([0, 0, 0, 2.0])
    exact = (1e24 - 1.0) / 4
    assert flow_time(X, 1e-12, 1.0) == pytest.approx(exact, rel=1e-11)


def test_flow_time_refuses_an_unvouched_quadrature(monkeypatch):
    # a two-term field: a one-term field's flow time is a closed form and takes no quadrature
    monkeypatch.setattr(series, "quad", lambda f, a, b, **kw: (1.0, 1e-6))
    with pytest.raises(FloatingPointError):
        flow_time(MajorantSeries([0, 1.0, 0, 1.0]), 0.5, 1.0)


def test_guaranteed_time_constant_field():
    X = MajorantSeries([1.0])
    assert guaranteed_time(X, 1.0, 0.1) == pytest.approx(0.9, rel=1e-8)


def test_guaranteed_time_pure_cubic():
    X = MajorantSeries([0, 0, 0, 2.0])
    assert guaranteed_time(X, 1.0, 0.5) == pytest.approx(0.75, rel=1e-8)


def test_guaranteed_time_linear_field():
    X = MajorantSeries([0, 1.0])
    assert guaranteed_time(X, 1.0, 0.1) == pytest.approx(math.log(10), rel=1e-8)


def test_guaranteed_time_zero_field_is_infinite():
    assert guaranteed_time(MajorantSeries([]), 1.0, 0.5) == math.inf
    assert guaranteed_time(MajorantSeries([0.0, 0.0]), 1.0, 0.5) == math.inf


def test_flow_times_match_the_ode_flow_oracle():
    # the DOP853 flow checks the quadrature independently: flowing
    # back for the guaranteed time lands on the floor, and flowing back for
    # T lands on the certified radius
    rng = np.random.default_rng(5)
    for _ in range(10):
        coeffs = rng.uniform(0.05, 1.0, size=rng.integers(1, 5))
        X = MajorantSeries(coeffs)
        R = rng.uniform(0.5, 1.5)
        floor = rng.uniform(0.05, 0.4) * R
        t_bar = guaranteed_time(X, R, floor)
        assert flow(X, -t_bar, R, rtol=1e-12).value == pytest.approx(floor, rel=1e-9)
        T = rng.uniform(0.1, 0.9) * t_bar
        rec = certify_window(MajorantSeries([0, 1.0]), X, R, T, floor=floor)
        assert rec.window_ok
        assert rec.certified_radius == pytest.approx(flow(X, -T, R, rtol=1e-12).value, rel=1e-9)


def test_cubic_preset_stays_on_the_safe_side():
    # X = 2 z^3 from R = 1: the floor 1/2 is reached at exactly 3/4, and the
    # flow over T = 1/4 ends at exactly 1/sqrt(2); neither may be overstated
    X = MajorantSeries([0, 0, 0, 2.0])
    t_bar = guaranteed_time(X, 1.0, 0.5)
    r = certify_window(MajorantSeries([0, 1.0]), X, 1.0, 0.25).certified_radius
    assert 0.75 * (1 - 1e-11) <= t_bar <= 0.75
    assert (1 - 1e-11) / math.sqrt(2) <= r <= 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# the closed form for a one-term field X = c z^k
# ---------------------------------------------------------------------------

SLACK = Fraction(series.FLOW_TIME_SLACK)
RATIOS = (1 - 1e-12, 0.5, 1e-12)


def one_term_cases(k, ratio):
    """Four (c, R, r) with c in [1e-3, 1e3], R in [0.1, 10] and r = ratio * R, seeded by k and ratio."""
    rng = np.random.default_rng([k, RATIOS.index(ratio)])
    for _ in range(4):
        c, R = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1)
        yield float(c), float(R), float(R * ratio)


def exact_time(k, c, r, R):
    """int_r^R dz / (c z^k) for the floats given: exact for k != 1, to 60 digits for k = 1."""
    if k == 1:
        with localcontext() as ctx:
            ctx.prec = 60
            return Fraction((Decimal(R).ln() - Decimal(r).ln()) / Decimal(c))
    return (Fraction(R) ** (1 - k) - Fraction(r) ** (1 - k)) / ((1 - k) * Fraction(c))


def one_term(k, c):
    return MajorantSeries([0.0] * k + [c])


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_one_term_flow_time_is_exact_on_the_safe_side(k, ratio):
    for c, R, r in one_term_cases(k, ratio):
        exact = exact_time(k, c, r, R)
        assert exact * (1 - 2 * SLACK) <= Fraction(flow_time(one_term(k, c), r, R)) <= exact


@pytest.mark.parametrize("r", [5e-324, 1e-320])
def test_one_term_flow_time_below_the_normal_range(r):
    # r / R is subnormal (or 0): log(r / R) would lose digits, or raise
    exact = exact_time(1, 1.0, r, 3.0)
    assert exact * (1 - 2 * SLACK) <= Fraction(flow_time(MajorantSeries([0, 1.0]), r, 3.0)) <= exact


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_one_term_certified_radius_stays_below_the_exact_flow(k, ratio):
    for c, R, r in one_term_cases(k, ratio):
        X = one_term(k, c)
        for T in (flow_time(X, r, R), 0.37 * flow_time(X, r, R)):
            rec = certify_window(MajorantSeries([]), X, R, T, floor=r / 2)
            assert rec.window_ok
            # the exact flow time down to r' is at least T: r' is at or below e^{-TX}(R)
            assert exact_time(k, c, rec.certified_radius, R) >= Fraction(T)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_one_term_closed_form_agrees_with_the_quadrature(monkeypatch, k, ratio):
    for c, R, r in one_term_cases(k, ratio):
        closed = flow_time(one_term(k, c), r, R)
        with monkeypatch.context() as patch:
            patch.setattr(series, "_single_term", lambda X: None)
            assert flow_time(one_term(k, c), r, R) == pytest.approx(closed, rel=1e-13, abs=0)


def exact_two_term_time(r, R):
    """int_r^R dz / (z + z^3) = log(R/r) - log((1 + R^2) / (1 + r^2)) / 2 for the floats given, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, R = Decimal(r), Decimal(R)
        return Fraction(R.ln() - r.ln() - ((1 + R * R).ln() - (1 + r * r).ln()) / 2)


@pytest.mark.parametrize("ratio", RATIOS)
def test_two_term_flow_time_is_exact_on_the_safe_side(ratio):
    # next to r = R the interval of the quadrature is about 1e-12 wide: taken between
    # log r and log R, whose roundings are each about 1e-4 of it, the time overshoots
    X = MajorantSeries([0, 1.0, 0, 1.0])
    for R in np.linspace(0.1, 3.0, 60).tolist():
        r = R * ratio
        exact = exact_two_term_time(r, R)
        assert exact * (1 - 2 * SLACK) <= Fraction(flow_time(X, r, R)) <= exact


# ---------------------------------------------------------------------------
# the operator (X.)^k and the Taylor-flow identity
# ---------------------------------------------------------------------------


def test_apply_operator_z_ddz_z():
    out = apply_majorant_operator(MajorantSeries([0, 1]), MajorantSeries([0, 1]), 1)
    np.testing.assert_allclose(out.coeffs, [0, 1])


def test_apply_operator_constant_field():
    out = apply_majorant_operator(MajorantSeries([1]), MajorantSeries([0, 0, 1]), 1)
    np.testing.assert_allclose(out.coeffs, [0, 2])


def test_apply_operator_squared():
    out = apply_majorant_operator(MajorantSeries([0, 1]), MajorantSeries([0, 0, 1]), 2)
    np.testing.assert_allclose(out.coeffs[:3], [0, 0, 4])


def test_apply_operator_k0_identity():
    H = MajorantSeries([1, 2, 3])
    np.testing.assert_allclose(apply_majorant_operator(MajorantSeries([0, 1]), H, 0).coeffs, H.coeffs)


def taylor_flow_partial_sums(X, H, R, T, k_max):
    back = flow(X, -T, R, rtol=1e-12)
    assert back.completed and back.value > 0
    r = back.value
    sums, acc = [], 0.0
    for k in range(k_max + 1):
        acc += T**k / math.factorial(k) * eval_series(apply_majorant_operator(X, H, k), r)
        sums.append(acc)
    return np.array(sums)


def test_taylor_flow_identity():
    # H(R) = sum_k T^k/k! ((X.)^k H)(e^{-TX}(R)); partial sums increase to H(R)
    rng = np.random.default_rng(17)
    for _ in range(12):
        X = MajorantSeries(rng.uniform(0, 0.8, size=rng.integers(1, 4)))
        H = MajorantSeries(rng.uniform(0, 1, size=rng.integers(1, 5)))
        R = rng.uniform(0.3, 1.0)
        T = 0.25
        sums = taylor_flow_partial_sums(X, H, R, T, 30)
        target = eval_series(H, R)
        resid = np.abs(target - sums)
        # monotone convergence of the residuals beyond a small threshold
        assert np.all(np.diff(resid[3:]) <= 1e-12 + 1e-9 * target)
        assert resid[-1] <= 1e-8 * max(1.0, target)
