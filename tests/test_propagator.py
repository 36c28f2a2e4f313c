"""Spectral propagator tests: exact per-mode formulas, norms, conservation."""

import numpy as np
import pytest

from chrono_duhamel.propagator import (
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    _fft,
    _ifft,
    energy,
    load_snapshot,
    make_free_solution,
    propagate,
    sample_at,
    cau_norm,
    save_snapshot,
)

from oracles import green_apply

GRID = Grid(16, 2 * np.pi)
KG1 = DispersionRelation("klein_gordon", 1.0)
KG0 = DispersionRelation("klein_gordon", 0.0)
SCH = DispersionRelation("schrodinger")


def random_data(rng, grid=GRID, disp=KG1, t=0.0, scale=1.0):
    psi = scale * rng.standard_normal(grid.M)
    chi = scale * rng.standard_normal(grid.M) if disp.second_order else None
    if disp.kind == "schrodinger":
        psi = psi + 1j * scale * rng.standard_normal(grid.M)
    return CauchyData(grid, psi, chi, t)


def mode_data(grid, k_index, amp_psi=1.0, amp_chi=0.0, t=0.0):
    psi = amp_psi * np.exp(1j * grid.xi[k_index] * grid.x)
    chi = amp_chi * np.exp(1j * grid.xi[k_index] * grid.x)
    return CauchyData(grid, psi, chi, t)


# ---------------------------------------------------------------------------
# the DFT pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("M", [4, 8, 32, 256])
@pytest.mark.parametrize("shape", [(), (3, 2)], ids=["1d", "batched"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_dft_pair_is_numpy_fft_bit_for_bit(M, shape, dtype):
    # the pair calls numpy.fft's pocketfft gufuncs directly: a NumPy whose gufuncs
    # change arguments or results fails here instead of moving the program's numbers
    rng = np.random.default_rng(M)
    a = rng.standard_normal((*shape, M)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal(a.shape)

    def same(x, y):
        assert x.dtype == y.dtype == complex and x.shape == y.shape and x.tobytes() == y.tobytes()

    same(_fft(a), np.fft.fft(a))
    same(_ifft(a, 1 / M), np.fft.ifft(a))
    same(_ifft(a, 1.0), np.fft.ifft(a, norm="forward"))
    # in place, as the chart kernel runs its inverse transform
    for transform, reference in (
        (lambda b: _fft(b, out=b), np.fft.fft(a)),
        (lambda b: _ifft(b, 1 / M, out=b), np.fft.ifft(a)),
        (lambda b: _ifft(b, 1.0, out=b), np.fft.ifft(a, norm="forward")),
    ):
        b = a.astype(complex)
        assert transform(b) is b
        same(b, reference)


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(12, 1.0)
    with pytest.raises(ValueError):
        Grid(2, 1.0)
    assert Grid(8, 4.0).dx * 8 == 4.0
    # the largest xi, pi M / Lx, squared overflows
    for Lx in (1e-300, 5e-324):
        with pytest.raises(ValueError, match="overflows"):
            Grid(8, Lx)
    assert np.all(np.isfinite(Grid(8, 1e-150).xi ** 2))


def test_dispersion_mass_must_have_a_finite_square():
    # eps forms m**2: a mass past ~1.3e154 is refused where it is given
    for m in (1e160, 1.4e154, np.inf, np.nan):
        with pytest.raises(ValueError, match="no finite square"):
            DispersionRelation("klein_gordon", m)
    assert np.all(np.isfinite(DispersionRelation("klein_gordon", 1.3e154).eps(Grid(8, 4.0).xi)))


def test_grid_arrays_are_built_once_and_read_only():
    grid = Grid(8, 4.0)
    assert grid.xi is grid.xi and grid.x is grid.x
    np.testing.assert_array_equal(grid.xi, 2 * np.pi * np.fft.fftfreq(8, d=0.5))
    np.testing.assert_array_equal(grid.x, 0.5 * np.arange(8))
    for arr in (grid.xi, grid.x):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert grid == Grid(8, 4.0) and hash(grid) == hash(Grid(8, 4.0))


def test_kg_zero_mode_quarter_period():
    # m=1, xi=0 mode: after pi/2 the (psi, chi) pair rotates to (0, -1)
    data = mode_data(GRID, 0, amp_psi=1.0, amp_chi=0.0)
    out = propagate(KG1, data, np.pi / 2)
    np.testing.assert_allclose(out.psi, 0.0, atol=1e-12)
    np.testing.assert_allclose(out.chi, -np.ones(GRID.M), atol=1e-12)


def test_identity_at_equal_times():
    rng = np.random.default_rng(0)
    data = random_data(rng, t=0.4)
    out = propagate(KG1, data, 0.4)
    np.testing.assert_array_equal(out.psi, data.psi)
    np.testing.assert_array_equal(out.chi, data.chi)


def test_massless_zero_mode_sinc_limit():
    data = mode_data(GRID, 0, amp_psi=0.0, amp_chi=1.0)
    out = propagate(KG0, data, 0.3)
    np.testing.assert_allclose(out.psi, 0.3 * np.ones(GRID.M), atol=1e-13)
    np.testing.assert_allclose(out.chi, np.ones(GRID.M), atol=1e-13)


def test_group_law_path_independence():
    rng = np.random.default_rng(1)
    for disp in (KG1, KG0, SCH):
        data = random_data(rng, disp=disp)
        taus = rng.uniform(-10, 10, size=3)
        path = data
        for tau in taus:
            path = propagate(disp, path, tau)
        direct = propagate(disp, data, taus[-1])
        np.testing.assert_allclose(path.psi, direct.psi, atol=1e-12)
        if disp.second_order:
            np.testing.assert_allclose(path.chi, direct.chi, atol=1e-12)


def test_time_reversal():
    rng = np.random.default_rng(2)
    for disp in (KG1, SCH):
        data = random_data(rng, disp=disp)
        back = propagate(disp, propagate(disp, data, 1.7), 0.0)
        np.testing.assert_allclose(back.psi, data.psi, atol=1e-12)
        if disp.second_order:
            np.testing.assert_allclose(back.chi, data.chi, atol=1e-12)


def test_schrodinger_unitarity():
    rng = np.random.default_rng(3)
    data = random_data(rng, disp=SCH)
    out = propagate(SCH, data, 2.3)
    n0 = cau_norm(SCH, data, 0.0, 1.0)
    n1 = cau_norm(SCH, out, 0.0, 1.0)
    assert n1 == pytest.approx(n0, rel=1e-12)


def test_kg_single_mode_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = int(rng.integers(0, GRID.M))
        tau = float(rng.uniform(-5, 5))
        a, b = rng.standard_normal(2)
        data = mode_data(GRID, k, a, b)
        out = propagate(KG1, data, tau)
        eps = KG1.eps(GRID.xi[k])
        expect_psi = np.cos(eps * tau) * a + np.sin(eps * tau) / eps * b
        expect_chi = -eps * np.sin(eps * tau) * a + np.cos(eps * tau) * b
        wave = np.exp(1j * GRID.xi[k] * GRID.x)
        np.testing.assert_allclose(out.psi, expect_psi * wave, atol=1e-12)
        np.testing.assert_allclose(out.chi, expect_chi * wave, atol=1e-12)


# ---------------------------------------------------------------------------
# free solutions and the Green lift
# ---------------------------------------------------------------------------


def test_free_solution_chart_anchor():
    rng = np.random.default_rng(5)
    data = random_data(rng, t=0.0)
    fs = make_free_solution(KG1, data)
    np.testing.assert_array_equal(fs.chart_data.psi, data.psi)


def test_free_solution_round_trip():
    rng = np.random.default_rng(6)
    data = random_data(rng, t=0.7)
    fs = make_free_solution(KG1, data)
    back = sample_at(KG1, fs, 0.7)
    np.testing.assert_allclose(back.psi, data.psi, atol=1e-12)
    np.testing.assert_allclose(back.chi, data.chi, atol=1e-12)


def test_green_of_zero_source():
    fs = green_apply(KG1, GRID, 0.3, np.zeros(GRID.M))
    assert not fs.chart_data.psi.any() and not fs.chart_data.chi.any()


def test_green_zero_mode_closed_form():
    # source = unit zero mode at time t; after elapsed pi/2 the field is
    # sin(pi/2)/eps = 1 (m = 1)
    t = 0.4
    fs = green_apply(KG1, GRID, t, np.ones(GRID.M))
    out = sample_at(KG1, fs, t + np.pi / 2)
    np.testing.assert_allclose(out.psi, np.ones(GRID.M), atol=1e-12)


def test_green_massless_mode_closed_form():
    k = 3
    s = 0.9
    wave = np.exp(1j * GRID.xi[k] * GRID.x)
    fs = green_apply(KG0, GRID, 0.0, wave)
    out = sample_at(KG0, fs, s)
    absk = abs(GRID.xi[k])
    np.testing.assert_allclose(out.psi, np.sin(absk * s) / absk * wave, atol=1e-12)


def test_green_matches_make_free_solution():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(GRID.M)
    fs = green_apply(KG1, GRID, 0.2, f)
    fs2 = make_free_solution(KG1, CauchyData(GRID, np.zeros(GRID.M), f, 0.2))
    np.testing.assert_allclose(fs.chart_data.psi, fs2.chart_data.psi, atol=1e-14)
    np.testing.assert_allclose(fs.chart_data.chi, fs2.chart_data.chi, atol=1e-14)


def test_schrodinger_green_is_identity_lift():
    f = np.exp(1j * GRID.xi[2] * GRID.x)
    fs = green_apply(SCH, GRID, 0.5, f)
    out = sample_at(SCH, fs, 0.5)
    np.testing.assert_allclose(out.psi, f, atol=1e-12)


# ---------------------------------------------------------------------------
# norms and energy
# ---------------------------------------------------------------------------


def test_norm_constant_field():
    c = 0.7
    data = CauchyData(GRID, c * np.ones(GRID.M), np.zeros(GRID.M), 0.0)
    assert cau_norm(KG1, data, 0.0, 1.0) == pytest.approx(c * np.sqrt(GRID.Lx), rel=1e-13)


@pytest.mark.parametrize("a", [1e-300, 1e160], ids=["tiny", "huge"])
def test_norm_neither_underflows_nor_overflows(a):
    # squaring a mode of 1e-300 underflows to 0 and one of 1e160 overflows to inf
    grid = Grid(4, 2 * np.pi)
    data = CauchyData(grid, a * np.cos(grid.x), np.zeros(grid.M), 0.0)
    assert cau_norm(KG1, data, 0.0, 1.0) == pytest.approx(a * np.sqrt(np.pi), rel=1e-15)


def test_norm_zero_data():
    zero = CauchyData(GRID, np.zeros(GRID.M), np.zeros(GRID.M), 0.0)
    assert cau_norm(KG1, zero, 1.5, 1.0) == 0.0


def test_norm_single_mode_weights():
    k = 5
    a = 1.3
    data = CauchyData(GRID, a * np.exp(1j * GRID.xi[k] * GRID.x), np.zeros(GRID.M), 0.0)
    expect = a * np.sqrt(GRID.Lx) * np.sqrt(1 + GRID.xi[k] ** 2)
    assert cau_norm(KG1, data, 1.0, 1.0) == pytest.approx(expect, rel=1e-12)


def test_norm_parseval_at_s0():
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(GRID.M)
    data = CauchyData(GRID, psi, None, 0.0)
    grid_l2 = np.sqrt(np.sum(psi**2) * GRID.dx)
    assert cau_norm(KG1, data, 0.0, 2.0) == pytest.approx(grid_l2, rel=1e-12)


def test_energy_zero():
    assert energy(KG1, CauchyData(GRID, np.zeros(GRID.M), np.zeros(GRID.M), 0.0)) == 0.0


def test_energy_single_mode_normalization():
    data = mode_data(GRID, 0, amp_psi=1.0, amp_chi=0.0)
    assert energy(KG1, data) == pytest.approx(0.5 * GRID.Lx, rel=1e-13)


def test_energy_conserved():
    rng = np.random.default_rng(9)
    data = random_data(rng)
    e0 = energy(KG1, data)
    for tau in rng.uniform(-8, 8, size=5):
        assert energy(KG1, propagate(KG1, data, tau)) == pytest.approx(e0, rel=1e-12)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    data = random_data(rng, t=0.25)
    path = tmp_path / "snap.csv"
    save_snapshot(KG1, data, str(path))
    disp2, data2 = load_snapshot(str(path))
    assert disp2.kind == "klein_gordon" and disp2.m == 1.0
    assert data2.t == 0.25
    np.testing.assert_allclose(data2.psi, data.psi, rtol=0, atol=0)
    np.testing.assert_allclose(data2.chi, data.chi, rtol=0, atol=0)


def test_first_order_snapshot_roundtrip_in_float_cells(tmp_path):
    # Schrodinger data is complex: each row holds x, Re psi and Im psi, every cell a float
    rng = np.random.default_rng(12)
    data = random_data(rng, disp=SCH, t=0.5)
    assert np.iscomplexobj(data.psi) and data.chi is None
    path = tmp_path / "snap.csv"
    save_snapshot(SCH, data, str(path))
    lines = path.read_text().splitlines()
    assert lines[1] == "x,psi_re,psi_im"
    cells = [[float(c) for c in line.split(",")] for line in lines[2:]]
    assert np.array_equal(np.array(cells)[:, 1] + 1j * np.array(cells)[:, 2], data.psi)
    disp2, data2 = load_snapshot(str(path))
    assert disp2 == SCH and data2.t == 0.5 and data2.chi is None
    np.testing.assert_array_equal(data2.psi, data.psi)
