"""Symmetric multilinear algebra on a finite-dimensional state space.

A homogeneous polynomial map of degree ``p`` on R^d is stored through its
unique symmetric polarized form: only the coefficients at nondecreasing
multi-indices ``j_1 <= ... <= j_p`` are kept (``C(d+p-1, p)`` numbers per
codomain component instead of ``d^p``), and the multinomial multiplicity
of each index class is applied at evaluation time.

Worked example (``d = 2``, ``p = 2``): the map ``f(x) = x1 x2`` has the
polarized form ``f((a1,a2),(b1,b2)) = (a1 b2 + a2 b1)/2``, so the stored
canonical coefficients are ``{(0,0): 0, (0,1): 1/2, (1,1): 0}``.  The
diagonal evaluation recovers ``mult((0,1)) * 1/2 * x1 x2 = x1 x2``.

Tensor norms are reported as a pair (sampled lower bound, certified upper
bound).  The upper bound is the coefficient l1 mass over the full index
expansion, which dominates the operator norm for every ambient norm that
dominates the coordinate sup-norm (all norms used here do).  Computing
the exact norm is not attempted.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable, Sequence

import numpy as np

from .series import MajorantSeries

__all__ = [
    "VectorNorm",
    "SymTensor",
    "SymFunctional",
    "TensorNormBounds",
    "eval_homogeneous",
    "polarize",
    "tensor_norm",
    "eval_series",
    "directional_derivative",
    "majorant_of",
    "compose_first_slot",
    "save_tensor",
    "load_tensor",
]


# ---------------------------------------------------------------------------
# canonical multi-index machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _binomial_table(n_max: int, k_max: int) -> np.ndarray:
    """``C[n, k] = binom(n, k)`` for n <= n_max and k <= k_max.

    Bounding the columns keeps the int64 entries exact: the central
    binomials of large n would wrap.
    """
    C = np.zeros((n_max + 1, k_max + 1), dtype=np.int64)
    C[:, 0] = 1
    for n in range(1, n_max + 1):
        C[n, 1:] = C[n - 1, :-1] + C[n - 1, 1:]
    return C


def num_canonical(d: int, p: int) -> int:
    """Number of nondecreasing multi-indices: C(d+p-1, p)."""
    return math.comb(d + p - 1, p)


@lru_cache(maxsize=None)
def canonical_indices(d: int, p: int) -> np.ndarray:
    """All nondecreasing multi-indices of length p over {0..d-1}, lexicographic."""
    if p == 0:
        return np.zeros((1, 0), dtype=np.int64)
    rows = np.array(list(combinations_with_replacement(range(d), p)), dtype=np.int64)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def multiplicities(d: int, p: int) -> np.ndarray:
    """Multinomial weight p!/prod(counts!) of each canonical multi-index."""
    rows = canonical_indices(d, p)
    if p == 0:
        out = np.ones(1)
    else:
        out = np.empty(rows.shape[0])
        from math import factorial

        fact = [factorial(i) for i in range(p + 1)]
        for i, row in enumerate(rows):
            m = fact[p]
            run = 1
            for a in range(1, p):
                if row[a] == row[a - 1]:
                    run += 1
                else:
                    m //= fact[run]
                    run = 1
            m //= fact[run]
            out[i] = m
    out.setflags(write=False)
    return out


def rank_rows(d: int, p: int, rows: np.ndarray) -> np.ndarray:
    """Lexicographic rank of nondecreasing rows among canonical_indices(d, p).

    Vectorised through the bijection with strictly increasing tuples and
    hockey-stick prefix sums.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if p == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    D = d + p - 1
    C = _binomial_table(D + 1, p)
    c = rows + np.arange(p, dtype=np.int64)
    rank = np.zeros(rows.shape[0], dtype=np.int64)
    prev = np.full(rows.shape[0], -1, dtype=np.int64)
    for a in range(p):
        rem = p - a
        rank += C[D - prev - 1, rem] - C[D - c[:, a], rem]
        prev = c[:, a]
    return rank


@lru_cache(maxsize=None)
def extend_table(d: int, p: int) -> np.ndarray:
    """Rank in degree p+1 of each canonical degree-p index extended by one letter.

    ``extend_table(d, p)[K, j]`` is the canonical rank of ``sorted(K + (j,))``.
    """
    base = canonical_indices(d, p)
    n = base.shape[0]
    ext = np.empty((n, d), dtype=np.int64)
    stacked = np.empty((n, p + 1), dtype=np.int64)
    for j in range(d):
        stacked[:, :p] = base
        stacked[:, p] = j
        stacked.sort(axis=1)
        ext[:, j] = rank_rows(d, p + 1, stacked)
    ext.setflags(write=False)
    return ext


@lru_cache(maxsize=None)
def compose_table(d: int, p: int, q: int):
    """Index plumbing for the symmetrized composition f o (V (x) id^{p-1}).

    For output degree ``m = p + q - 1`` returns flat arrays over all pairs
    (canonical output index J, distinct sub-multiset S of J with |S| = q):
    output row, count of position subsets realising S, rank of S in degree
    q, rank of J \\ S in degree p-1.
    """
    m = p + q - 1
    out_idx = canonical_indices(d, m)
    rows_out, counts, s_ranks, rest_ranks = [], [], [], []
    pos_subsets = list(combinations(range(m), q))
    for J_rank, J in enumerate(map(tuple, out_idx)):
        seen: dict[tuple, int] = {}
        for pos in pos_subsets:
            S = tuple(J[a] for a in pos)
            seen[S] = seen.get(S, 0) + 1
        for S, cnt in seen.items():
            rest = list(J)
            for v in S:
                rest.remove(v)
            rows_out.append(J_rank)
            counts.append(cnt)
            s_ranks.append(_rank_single(d, q, S))
            rest_ranks.append(_rank_single(d, p - 1, tuple(rest)))
    return (
        np.asarray(rows_out, dtype=np.int64),
        np.asarray(counts, dtype=np.float64),
        np.asarray(s_ranks, dtype=np.int64),
        np.asarray(rest_ranks, dtype=np.int64),
    )


def _rank_single(d: int, p: int, idx: tuple) -> int:
    if p == 0:
        return 0
    return int(rank_rows(d, p, np.asarray(idx, dtype=np.int64)[None, :])[0])


# ---------------------------------------------------------------------------
# ambient norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorNorm:
    """Ambient norm: sum over blocks of the Euclidean norm of each block.

    A single block is the plain Euclidean norm; two blocks model a
    Cauchy-data norm (field part + velocity part).  Every such norm
    dominates the coordinate sup-norm, which is what the certified upper
    tensor-norm bound requires.
    """

    dim: int
    blocks: tuple[tuple[int, int], ...]

    @staticmethod
    def euclidean(dim: int) -> "VectorNorm":
        return VectorNorm(dim, ((0, dim),))

    @staticmethod
    def two_block(dim: int, split: int) -> "VectorNorm":
        return VectorNorm(dim, ((0, split), (split, dim)))

    def norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(sum(np.linalg.norm(v[a:b]) for a, b in self.blocks))

    def norms(self, V: np.ndarray) -> np.ndarray:
        """Row-wise norm of a batch, shape (n, dim) -> (n,)."""
        V = np.asarray(V, dtype=float)
        return sum(np.linalg.norm(V[:, a:b], axis=1) for a, b in self.blocks)

    def normalize(self, v: np.ndarray) -> np.ndarray:
        n = self.norm(v)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return np.asarray(v, dtype=float) / n


# ---------------------------------------------------------------------------
# symmetric tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymTensor:
    """Symmetric coefficient storage of a degree-p homogeneous map R^d -> R^e.

    ``coeffs[i, K]`` is the value of the polarized form on the basis
    vectors of the K-th canonical multi-index, output component ``i``.
    Symmetry is structural: only canonical indices are stored.
    """

    degree: int
    dim: int
    coeffs: np.ndarray  # shape (codomain_dim, num_canonical(d, p))

    def __init__(self, degree: int, dim: int, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        n = num_canonical(dim, degree)
        if arr.shape[1] != n:
            raise ValueError(
                f"degree {degree} over dim {dim} needs {n} canonical coefficients, got {arr.shape[1]}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "coeffs", arr)

    @property
    def codomain_dim(self) -> int:
        return self.coeffs.shape[0]

    @staticmethod
    def zero(degree: int, dim: int, codomain_dim: int = 1) -> "SymTensor":
        return SymTensor(degree, dim, np.zeros((codomain_dim, num_canonical(dim, degree))))

    @staticmethod
    def from_rank_one_sum(B: np.ndarray, A: np.ndarray, degree: int, scale: float = 1.0) -> "SymTensor":
        """Assemble ``scale * sum_x B[:, x] (x) A[x, :]^{(x) degree}``.

        ``B`` has shape (codomain_dim, n_terms) and ``A`` shape (n_terms, dim).
        """
        B = np.asarray(B, dtype=float)
        A = np.asarray(A, dtype=float)
        d = A.shape[1]
        idx = canonical_indices(d, degree)
        if degree == 0:
            prod = np.ones((A.shape[0], 1))
        else:
            prod = A[:, idx].prod(axis=2)  # (n_terms, n_canonical)
        return SymTensor(degree, d, scale * (B @ prod))

    def scaled(self, a: float) -> "SymTensor":
        return SymTensor(self.degree, self.dim, a * self.coeffs)

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if (self.degree, self.dim, self.codomain_dim) != (other.degree, other.dim, other.codomain_dim):
            raise ValueError("tensor shape mismatch")
        return SymTensor(self.degree, self.dim, self.coeffs + other.coeffs)


def contract_slot(f: SymTensor, vec: np.ndarray) -> SymTensor:
    """Polarized evaluation with one argument fixed: a degree-(p-1) tensor."""
    if f.degree == 0:
        raise ValueError("cannot contract a degree-0 tensor")
    vec = np.asarray(vec, dtype=float)
    ext = extend_table(f.dim, f.degree - 1)  # (n_{p-1}, d) ranks into degree p
    return SymTensor(f.degree - 1, f.dim, f.coeffs[:, ext] @ vec)


def eval_homogeneous(f: SymTensor, args: Sequence[np.ndarray]) -> np.ndarray:
    """Fully symmetric multilinear evaluation on ``degree`` argument vectors."""
    if len(args) != f.degree:
        raise ValueError(f"expected {f.degree} arguments, got {len(args)}")
    for v in args:
        if np.asarray(v).shape != (f.dim,):
            raise ValueError("argument dimension mismatch")
    g = f
    for v in args:
        g = contract_slot(g, v)
    return g.coeffs[:, 0].copy()


def eval_diagonal(f: SymTensor, phi: np.ndarray) -> np.ndarray:
    """Evaluate the homogeneous map on equal arguments (the monomial expansion)."""
    phi = np.asarray(phi, dtype=float)
    if f.degree == 0:
        return f.coeffs[:, 0].copy()
    idx = canonical_indices(f.dim, f.degree)
    mono = phi[idx].prod(axis=1) * multiplicities(f.dim, f.degree)
    return f.coeffs @ mono


def eval_diagonal_batch(f: SymTensor, phis: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Diagonal evaluation on a batch of points, shape (n, d) -> (n, e)."""
    phis = np.asarray(phis, dtype=float)
    idx = canonical_indices(f.dim, f.degree)
    mult = multiplicities(f.dim, f.degree)
    out = np.empty((phis.shape[0], f.codomain_dim))
    for lo in range(0, phis.shape[0], chunk):
        block = phis[lo : lo + chunk]
        if f.degree == 0:
            mono = np.ones((block.shape[0], 1))
        else:
            mono = block[:, idx].prod(axis=2)
        out[lo : lo + chunk] = (mono * mult) @ f.coeffs.T
    return out


def diagonal_jacobian(f: SymTensor, phi: np.ndarray) -> np.ndarray:
    """Jacobian of the diagonal map at phi: p * f(., phi, ..., phi), shape (e, d)."""
    if f.degree == 0:
        return np.zeros((f.codomain_dim, f.dim))
    g = f
    for _ in range(f.degree - 1):
        g = contract_slot(g, phi)
    # g has degree 1; its coefficients are exactly f(e_j, phi^{p-1})
    return f.degree * g.coeffs


def polarize(f_diag: Callable[[np.ndarray], np.ndarray], degree: int, args: Sequence[np.ndarray]):
    """Recover the symmetric polarized value from the diagonal map.

    Implements ``1/(2^p p!) sum_{eps in {+-1}^p} (prod eps) f(sum eps_j phi_j)``.
    The caller is responsible for ``f_diag`` being homogeneous of the
    declared degree.
    """
    from math import factorial

    p = degree
    if p < 1:
        raise ValueError("polarize needs degree >= 1")
    if len(args) != p:
        raise ValueError("polarize needs exactly `degree` arguments")
    args = [np.asarray(a, dtype=float) for a in args]
    total = None
    for mask in range(1 << p):
        signs = [1.0 if (mask >> j) & 1 == 0 else -1.0 for j in range(p)]
        point = sum(s * a for s, a in zip(signs, args))
        term = np.prod(signs) * np.asarray(f_diag(point), dtype=float)
        total = term if total is None else total + term
    return total / (2**p * factorial(p))


# ---------------------------------------------------------------------------
# tensor norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorNormBounds:
    lower: float
    upper: float


def coefficient_l1(f: SymTensor) -> float:
    """l1 mass of the full (multiplicity-expanded) coefficient array."""
    return float((np.abs(f.coeffs) * multiplicities(f.dim, f.degree)).sum())


def tensor_norm(
    f: SymTensor,
    norm_spec: VectorNorm,
    *,
    codomain_norm: VectorNorm | None = None,
    n_samples: int = 4096,
    seed: int = 0,
    ascent_steps: int = 60,
) -> TensorNormBounds:
    """Certified upper bound and sampled lower bound for the tensor norm.

    upper: the l1 coefficient mass, valid because every ambient norm here
    dominates the coordinate sup-norm and every codomain norm is dominated
    by the coordinate l1-norm.  lower: the best diagonal evaluation over a
    fixed-seed direction set, polished by projected gradient ascent.
    """
    if f.degree < 1:
        raise ValueError("tensor_norm requires degree >= 1")
    if codomain_norm is None:
        codomain_norm = VectorNorm.euclidean(f.codomain_dim)
    upper = float((np.abs(f.coeffs) * multiplicities(f.dim, f.degree)).sum())
    if not f.coeffs.any():
        return TensorNormBounds(0.0, 0.0)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_samples, f.dim))
    dirs /= norm_spec.norms(dirs)[:, None]
    vals = eval_diagonal_batch(f, dirs)
    mags = np.array([codomain_norm.norm(v) for v in vals])
    order = np.argsort(mags)[::-1]
    best = float(mags[order[0]])

    # local ascent from the few best starting directions
    for start in order[:4]:
        phi = dirs[start].copy()
        val = mags[start]
        step = 0.25
        for _ in range(ascent_steps):
            out = eval_diagonal(f, phi)
            nrm = codomain_norm.norm(out)
            if nrm == 0:
                break
            dual = _dual_vector(out, codomain_norm)
            grad = diagonal_jacobian(f, phi).T @ dual
            cand = norm_spec.normalize(phi + step * grad / max(np.linalg.norm(grad), 1e-300))
            cand_val = codomain_norm.norm(eval_diagonal(f, cand))
            if cand_val > val:
                phi, val = cand, cand_val
                step = min(step * 1.5, 0.5)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        best = max(best, float(val))
    return TensorNormBounds(lower=min(best, upper), upper=upper)


def _dual_vector(v: np.ndarray, norm_spec: VectorNorm) -> np.ndarray:
    """Gradient of the block norm at v (any subgradient at kinks)."""
    out = np.zeros_like(v, dtype=float)
    for a, b in norm_spec.blocks:
        blk = v[a:b]
        n = np.linalg.norm(blk)
        if n > 0:
            out[a:b] = blk / n
    return out


# ---------------------------------------------------------------------------
# truncated formal series of symmetric tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymFunctional:
    """Truncated formal series: at most one symmetric tensor per degree."""

    terms: tuple[SymTensor, ...]

    def __init__(self, terms: Iterable[SymTensor]):
        terms = tuple(sorted(terms, key=lambda t: t.degree))
        if terms:
            dims = {t.dim for t in terms}
            codims = {t.codomain_dim for t in terms}
            degs = [t.degree for t in terms]
            if len(dims) != 1 or len(codims) != 1:
                raise ValueError("all terms must share dim and codomain_dim")
            if len(set(degs)) != len(degs):
                raise ValueError("at most one term per degree")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.terms[0].dim if self.terms else 0

    @property
    def codomain_dim(self) -> int:
        return self.terms[0].codomain_dim if self.terms else 1

    @property
    def max_degree(self) -> int:
        return self.terms[-1].degree if self.terms else 0

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(t.degree for t in self.terms)

    def term(self, degree: int) -> SymTensor | None:
        for t in self.terms:
            if t.degree == degree:
                return t
        return None

    def map_coeffs(self, fn) -> "SymFunctional":
        return SymFunctional(SymTensor(t.degree, t.dim, fn(t.coeffs)) for t in self.terms)


def eval_series(f: SymFunctional, phi: np.ndarray) -> np.ndarray:
    """Finite sum over the stored degrees of the homogeneous evaluations."""
    if not f.terms:
        return np.zeros(1)
    out = np.zeros(f.codomain_dim)
    for t in f.terms:
        out += eval_diagonal(t, phi)
    return out


def directional_derivative(f: SymFunctional, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """sum_p p f^(p)(psi, phi, ..., phi)."""
    out = np.zeros(f.codomain_dim)
    for t in f.terms:
        if t.degree == 0:
            continue
        out += t.degree * eval_diagonal(contract_slot(t, psi), phi)
    return out


def majorant_of(
    f: SymFunctional,
    norm_spec: VectorNorm,
    *,
    codomain_norm: VectorNorm | None = None,
) -> MajorantSeries:
    """One-variable majorant collecting the per-degree upper tensor norms."""
    if codomain_norm is None:
        codomain_norm = VectorNorm.euclidean(f.codomain_dim)
    coeffs = np.zeros(f.max_degree + 1 if f.terms else 1)
    for t in f.terms:
        if t.degree == 0:
            coeffs[0] = codomain_norm.norm(t.coeffs[:, 0])
        else:
            coeffs[t.degree] = tensor_norm(t, norm_spec, codomain_norm=codomain_norm, n_samples=2).upper
    return MajorantSeries(coeffs)


def functional_add(f: SymFunctional, g: SymFunctional, scale: float = 1.0) -> SymFunctional:
    """f + scale * g, aligning degrees."""
    by_deg: dict[int, SymTensor] = {t.degree: t for t in f.terms}
    for t in g.terms:
        if t.degree in by_deg:
            by_deg[t.degree] = by_deg[t.degree] + t.scaled(scale)
        else:
            by_deg[t.degree] = t.scaled(scale)
    return SymFunctional(by_deg.values())


def functional_scale(f: SymFunctional, a: float) -> SymFunctional:
    return SymFunctional(t.scaled(a) for t in f.terms)


def compose_first_slot(f: SymTensor, V: SymTensor) -> SymTensor:
    """Symmetrization of ``f o (V (x) id^{p-1})`` for scalar-valued f.

    ``V`` is a degree-q tensor with codomain dimension d; the result has
    degree ``p + q - 1``.  This is one summand of the first-order operator
    action on functionals; the caller supplies the factor ``p``.
    """
    if f.codomain_dim != 1:
        raise ValueError("compose_first_slot expects a scalar-valued tensor")
    if V.dim != f.dim or V.codomain_dim != f.dim:
        raise ValueError("V must be a vector field on the same space")
    d, p, q = f.dim, f.degree, V.degree
    if p < 1:
        raise ValueError("f must have degree >= 1")
    m = p + q - 1
    out_row, counts, s_rank, rest_rank = compose_table(d, p, q)
    ext = extend_table(d, p - 1)  # (n_{p-1}, d) -> rank in degree p
    f_flat = f.coeffs[0]
    f_ext = f_flat[ext[rest_rank]]  # (r, d)
    v_cols = V.coeffs[:, s_rank]  # (d, r)
    vals = np.einsum("rd,dr->r", f_ext, v_cols)
    n_m = num_canonical(d, m)
    out = np.bincount(out_row, weights=counts * vals, minlength=n_m) / float(math.comb(m, q))
    return SymTensor(m, d, out)


# ---------------------------------------------------------------------------
# dump format: header (degree, dim, codomain_dim) + canonical coefficients
# ---------------------------------------------------------------------------

_MAGIC = b"SYMT"


def save_tensor(f: SymTensor, path: str, binary: bool = True) -> None:
    if binary:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<qqq", f.degree, f.dim, f.codomain_dim))
            fh.write(np.ascontiguousarray(f.coeffs, dtype="<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(f"{f.degree} {f.dim} {f.codomain_dim}\n")
            for row in f.coeffs:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_tensor(path: str, binary: bool = True) -> SymTensor:
    if binary:
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise ValueError("not a tensor dump")
            degree, dim, codim = struct.unpack("<qqq", fh.read(24))
            data = np.frombuffer(fh.read(), dtype="<f8").reshape(codim, -1)
        return SymTensor(degree, dim, data)
    with open(path) as fh:
        degree, dim, codim = map(int, fh.readline().split())
        rows = [np.array(line.split(), dtype=float) for line in fh if line.strip()]
    return SymTensor(degree, dim, np.vstack(rows))
