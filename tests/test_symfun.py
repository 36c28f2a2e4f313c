"""Symmetric multilinear algebra tests."""

import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from chrono_duhamel.series import derivative as series_derivative
from chrono_duhamel.series import eval_series as series_eval
from chrono_duhamel.symfun import (
    SymFunctional,
    SymTensor,
    VectorNorm,
    _compose_factored,
    _growth,
    _products,
    _rank_map,
    coefficient_l1,
    compose_first_slot,
    eval_diagonal,
    eval_series,
    extend_table,
    load_tensor,
    majorant_of,
    monomials,
    multiplicities,
    num_canonical,
    save_tensor,
)

from oracles import canonical_indices, contract_slot, directional_derivative, eval_homogeneous, polarize


def random_tensor(rng, d, p, codomain_dim=1, scale=1.0):
    return SymTensor(p, d, scale * rng.standard_normal((codomain_dim, num_canonical(d, p))))


def random_functional(rng, d, degrees, scale=1.0):
    return SymFunctional([random_tensor(rng, d, p, 1, scale) for p in degrees])


# ---------------------------------------------------------------------------
# index machinery
# ---------------------------------------------------------------------------


def test_canonical_indices_match_itertools():
    # the rows that _growth encodes, grown one letter at a time from its (parent, last)
    for d in range(1, 7):
        for p in range(0, 6):
            expected = list(combinations_with_replacement(range(d), p))
            idx = np.zeros((1, 0), dtype=np.int64)
            for q in range(1, p + 1):
                parent, last = _growth(d, q)
                idx = np.column_stack((idx[parent], last))
            assert idx.dtype == np.int64 and idx.shape == (len(expected), p)
            assert list(map(tuple, idx.tolist())) == expected


def test_extend_table_ranks_each_extended_row():
    for d in range(1, 7):
        for p in range(0, 6):
            rank = {K: r for r, K in enumerate(combinations_with_replacement(range(d), p + 1))}
            ext = extend_table(d, p)
            assert ext.dtype == np.int64 and not ext.flags.writeable
            expected = [
                [rank[tuple(sorted(K + (j,)))] for j in range(d)]
                for K in combinations_with_replacement(range(d), p)
            ]
            np.testing.assert_array_equal(ext, expected)


@pytest.mark.filterwarnings("error")
def test_index_counts_exact_at_large_dim():
    # dim 64 (M = 32): ranks stay exact where central binomials such as C(67, 33) wrap in int64
    d = 64
    assert num_canonical(d, 5) == math.comb(68, 5)
    n3, n4 = num_canonical(d, 3), num_canonical(d, 4)
    ext = extend_table(d, 3)
    assert ext.shape == (n3, d)
    np.testing.assert_array_equal(ext[[0, n3 - 1, n3 - 1], [0, 62, 63]], [0, n4 - 2, n4 - 1])


def test_rank_maps_rank_each_product_and_are_c_ordered():
    # _collect ravels the map on every call, so one that is not C-ordered would be
    # copied each time
    for d, p, q in [(1, 2, 2), (3, 1, 2), (3, 3, 0), (4, 2, 3), (5, 3, 2), (16, 3, 3)]:
        rank = _rank_map(d, p, q)
        assert rank.dtype == np.int32 and rank.flags.c_contiguous and not rank.flags.writeable
        if d > 5:
            continue
        ranks = {K: r for r, K in enumerate(combinations_with_replacement(range(d), p + q - 1))}
        expected = [
            [ranks[tuple(sorted(K + S))] for S in combinations_with_replacement(range(d), q)]
            for K in combinations_with_replacement(range(d), p - 1)
        ]
        np.testing.assert_array_equal(rank, expected)


def test_multiplicities_sum_to_full_count():
    for d, p in [(2, 2), (3, 3), (4, 5)]:
        assert multiplicities(d, p).sum() == d**p


def test_multiplicities_match_factorial_brute_force():
    for d in range(1, 6):
        for p in range(0, 6):
            expected = [
                math.factorial(p) // math.prod(math.factorial(c) for c in Counter(row).values())
                for row in map(tuple, canonical_indices(d, p))
            ]
            np.testing.assert_array_equal(multiplicities(d, p), expected)


def test_monomials_equal_the_per_row_product():
    # built degree by degree, the factors multiply in the order np.prod takes
    # them along each canonical row, so the bits agree; the matmuls downstream
    # see a C-ordered array
    rng = np.random.default_rng(4)
    for d, p, n in [(1, 3, 2), (3, 0, 4), (4, 1, 3), (5, 4, 6), (8, 3, 4), (16, 3, 2)]:
        X = rng.standard_normal((n, d))
        idx = canonical_indices(d, p)
        expected = np.array([np.prod(x[idx], axis=1) for x in X]) * multiplicities(d, p)
        out = monomials(X, p)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------------------
# evaluation and polarization
# ---------------------------------------------------------------------------


def test_offdiagonal_example():
    # f(x) = x1 x2 on R^2: canonical coefficients {(0,0):0, (0,1):1/2, (1,1):0}
    f = SymTensor(2, 2, [0.0, 0.5, 0.0])
    e1, e2 = np.eye(2)
    assert eval_homogeneous(f, [e1, e2])[0] == pytest.approx(0.5)
    x = np.array([3.0, 5.0])
    assert eval_diagonal(f, x)[0] == pytest.approx(15.0)


def test_multilinearity_zero_argument():
    rng = np.random.default_rng(0)
    f = random_tensor(rng, 3, 3)
    args = [rng.standard_normal(3), np.zeros(3), rng.standard_normal(3)]
    assert eval_homogeneous(f, args)[0] == pytest.approx(0.0, abs=1e-14)


def test_degree3_scalar_example():
    # d=1, p=3, coefficient 2: f(a, b, c) = 2 a b c
    f = SymTensor(3, 1, [2.0])
    val = eval_homogeneous(f, [np.array([3.0]), np.array([1.0]), np.array([1.0])])
    assert val[0] == pytest.approx(6.0)


def test_polarize_linear_is_identity():
    vec = np.array([2.0, -1.0, 0.5])
    f = lambda x: np.array([vec @ x])
    phi = np.array([1.0, 2.0, 3.0])
    assert polarize(f, 1, [phi])[0] == pytest.approx(vec @ phi)


def test_polarize_square_scalar():
    f = lambda x: np.array([x[0] ** 2])
    a, b = np.array([3.0]), np.array([5.0])
    # ((a+b)^2 - (a-b)^2)/8 = ab
    assert polarize(f, 2, [a, b])[0] == pytest.approx(15.0)


def test_polarize_cube_scalar():
    f = lambda x: np.array([x[0] ** 3])
    args = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    # oracle: the signed 8-term sum evaluates to a*b*c = 6 for x -> x^3
    signed = 0.0
    for mask in range(8):
        signs = [1 if (mask >> j) & 1 == 0 else -1 for j in range(3)]
        signed += np.prod(signs) * (sum(s * a[0] for s, a in zip(signs, args))) ** 3
    signed /= 8 * 6
    assert signed == pytest.approx(6.0)
    assert polarize(f, 3, args)[0] == pytest.approx(6.0)


def test_polarization_consistency_random():
    rng = np.random.default_rng(42)
    for _ in range(40):
        d = int(rng.integers(1, 9))
        p = int(rng.integers(1, 6))
        f = random_tensor(rng, d, p)
        args = [rng.standard_normal(d) for _ in range(p)]
        via_polar = polarize(lambda x: eval_diagonal(f, x), p, args)
        direct = eval_homogeneous(f, args)
        np.testing.assert_allclose(via_polar, direct, rtol=1e-10, atol=1e-10)


def test_contract_slot_matches_polarized_eval():
    rng = np.random.default_rng(1)
    f = random_tensor(rng, 4, 3, codomain_dim=2)
    v, a, b = (rng.standard_normal(4) for _ in range(3))
    lhs = eval_homogeneous(contract_slot(f, v), [a, b])
    rhs = eval_homogeneous(f, [v, a, b])
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


# ---------------------------------------------------------------------------
# tensor norms
# ---------------------------------------------------------------------------


def test_norm_scalar_single_coefficient():
    assert coefficient_l1(SymTensor(2, 1, [[-3.5]])) == pytest.approx(3.5)


def test_norm_zero_tensor():
    assert coefficient_l1(SymTensor(3, 4, np.zeros(num_canonical(4, 3)))) == 0.0


def test_norm_linear_form_euclidean():
    assert coefficient_l1(SymTensor(1, 2, [[3.0, 4.0]])) == pytest.approx(7.0)


def test_norm_upper_is_valid_on_random_arguments():
    # |f(phi_1 ... phi_p)| <= coefficient_l1(f) * prod ||phi_j|| for unit-block norms
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        norm = VectorNorm.two_block(d, d // 2) if d >= 2 and rng.random() < 0.5 else VectorNorm.euclidean(d)
        f = random_tensor(rng, d, p, codomain_dim=int(rng.integers(1, 3)))
        upper = coefficient_l1(f)
        for _ in range(20):
            args = [v / norm.norm(v) for v in rng.standard_normal((p, d))]
            val = np.linalg.norm(eval_homogeneous(f, args))
            assert val <= upper * (1 + 1e-10)


# ---------------------------------------------------------------------------
# series of tensors
# ---------------------------------------------------------------------------


def test_eval_series_constant_only():
    one = SymFunctional([SymTensor(0, 3, [[1.0]])])
    assert eval_series(one, np.array([5.0, 1.0, -2.0]))[0] == pytest.approx(1.0)


def test_eval_series_coordinate_projection():
    d = 4
    coeffs = np.zeros(d)
    coeffs[2] = 1.0
    f = SymFunctional([SymTensor(1, d, coeffs)])
    e2 = np.eye(d)[2]
    assert eval_series(f, e2)[0] == pytest.approx(1.0)


def test_eval_series_degrees_1_and_3():
    # f(x) = x + x^3 on R^1 at x = 2 -> 10
    f = SymFunctional([SymTensor(1, 1, [1.0]), SymTensor(3, 1, [1.0])])
    assert eval_series(f, np.array([2.0]))[0] == pytest.approx(10.0)


def test_majorant_bound_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        degrees = sorted(rng.choice(np.arange(0, 5), size=rng.integers(1, 4), replace=False))
        f = random_functional(rng, d, degrees)
        norm = VectorNorm.euclidean(d)
        maj = majorant_of(f)
        phi = rng.standard_normal(d) * rng.uniform(0, 2)
        val = np.linalg.norm(eval_series(f, phi))
        assert val <= series_eval(maj, norm.norm(phi)) * (1 + 1e-10)


def test_lipschitz_bound_property():
    rng = np.random.default_rng(6)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        f = random_functional(rng, d, [0, 1, 2, 3])
        norm = VectorNorm.euclidean(d)
        maj = majorant_of(f)
        phi = rng.standard_normal(d)
        psi = rng.standard_normal(d)
        h = rng.uniform(-0.5, 0.5)
        r = max(norm.norm(phi), norm.norm(phi + h * psi))
        lhs = np.linalg.norm(eval_series(f, phi + h * psi) - eval_series(f, phi))
        rhs = series_eval(series_derivative(maj, 1), r) * norm.norm(h * psi)
        assert lhs <= rhs * (1 + 1e-10)


# ---------------------------------------------------------------------------
# directional derivative
# ---------------------------------------------------------------------------


def test_directional_derivative_cube():
    f = SymFunctional([SymTensor(3, 1, [1.0])])
    val = directional_derivative(f, np.array([2.0]), np.array([1.0]))
    assert val[0] == pytest.approx(12.0)


def test_directional_derivative_linear():
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(5)
    f = SymFunctional([SymTensor(1, 5, coeffs)])
    phi, psi = rng.standard_normal(5), rng.standard_normal(5)
    assert directional_derivative(f, phi, psi)[0] == pytest.approx(coeffs @ psi)


def test_directional_derivative_bilinear_gradient():
    # f(x) = x1 x2 on R^2, gradient (x2, x1)
    f = SymFunctional([SymTensor(2, 2, [0.0, 0.5, 0.0])])
    val = directional_derivative(f, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert val[0] == pytest.approx(2.0)


def test_directional_derivative_matches_finite_difference():
    rng = np.random.default_rng(13)
    f = random_functional(rng, 4, [0, 1, 2, 3, 4], scale=0.3)
    phi, psi = rng.standard_normal(4), rng.standard_normal(4)
    h = 1e-6
    fd = (eval_series(f, phi + h * psi) - eval_series(f, phi)) / h
    np.testing.assert_allclose(directional_derivative(f, phi, psi), fd, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# composition (the building block of the first-order operator action)
# ---------------------------------------------------------------------------


def test_compose_first_slot_against_polarization():
    # brute-force oracle: (V.f)-type composition evaluated on equal points
    # must agree with p * f(V(x), x, ..., x) / p ... i.e. the diagonal of the
    # symmetrized composition is f(V(x), x^{p-1}).
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, 4))
        f = random_tensor(rng, d, p)
        V = random_tensor(rng, d, q, codomain_dim=d)
        comp = compose_first_slot(f, V)
        assert comp.degree == p + q - 1
        x = rng.standard_normal(d)
        vx = eval_diagonal(V, x)
        args = [vx] + [x] * (p - 1)
        expected = eval_homogeneous(f, args)[0]
        assert eval_diagonal(comp, x)[0] == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("d, p, q", [(1, 1, 0), (3, 1, 3), (3, 2, 2), (4, 3, 0), (5, 3, 3), (2, 4, 1)])
def test_compose_first_slot_full_polarized_oracle(d, p, q):
    # the composed tensor's polarized values must equal the explicit
    # symmetrization over argument subsets, for a field given as a tensor
    # (compose_first_slot) and as rank-one factors scaled by per-node
    # diagonals (_compose_factored at one node)
    from itertools import combinations

    rng = np.random.default_rng(8)
    f = random_tensor(rng, d, p)
    V = random_tensor(rng, d, q, codomain_dim=d)
    A = rng.standard_normal((3, d))
    B = rng.standard_normal((d, 3))
    a, b = rng.standard_normal((1, d)), rng.standard_normal((1, d))

    def rank_one_field(v_args):
        # sum_x diag(b) B[:, x] prod_j (A diag(a) v_j)[x]
        u = np.ones(A.shape[0])
        for v in v_args:
            u = u * (A @ (a[0] * v))
        return b[0] * (B @ u)

    m = p + q - 1
    args = [rng.standard_normal(d) for _ in range(m)]
    factored = _compose_factored(f.coeffs, p, b, B, 0.7 * monomials(A, q), _products(a, q), q)
    subjects = [
        (compose_first_slot(f, V), lambda v_args: eval_homogeneous(V, v_args)),
        (SymTensor(m, d, factored), lambda v_args: 0.7 * rank_one_field(v_args)),
    ]
    for comp, field in subjects:
        assert comp.degree == m
        total = 0.0
        count = 0
        for pos in combinations(range(m), q):
            v_args = [args[a] for a in pos]
            rest = [args[a] for a in range(m) if a not in pos]
            total += eval_homogeneous(f, [field(v_args)] + rest)[0]
            count += 1
        expected = total / count
        assert eval_homogeneous(comp, args)[0] == pytest.approx(expected, rel=1e-10)


def test_compose_first_slot_diagonal_at_chart_dimension():
    # d = 32 is the chart of an M = 16 grid; degree 5 out has 376,992 indices
    rng = np.random.default_rng(12)
    d = 32
    f = random_tensor(rng, d, 3)
    V = random_tensor(rng, d, 3, codomain_dim=d)
    comp = compose_first_slot(f, V)
    assert comp.degree == 5
    x = rng.standard_normal(d) / math.sqrt(d)
    expected = eval_homogeneous(f, [eval_diagonal(V, x), x, x])[0]
    assert eval_diagonal(comp, x)[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------


def test_tensor_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    f = random_tensor(rng, 5, 3, codomain_dim=2)
    path = tmp_path / "t.bin"
    save_tensor(f, str(path))
    g = load_tensor(str(path))
    assert (g.degree, g.dim, g.codomain_dim) == (f.degree, f.dim, f.codomain_dim)
    np.testing.assert_allclose(g.coeffs, f.coeffs, rtol=0, atol=0)
