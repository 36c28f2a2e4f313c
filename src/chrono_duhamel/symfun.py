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

In general the polarized coefficient at K times ``multiplicities(K)`` is
the monomial coefficient of ``x^K`` in the diagonal map.  The operator
kernel :func:`compose_first_slot` rests on this: it multiplies monomial
coefficients in one matmul, finds the rank of each product monomial by
chained ``extend_table`` gathers, sums them with one ``bincount`` and
divides by the output multiplicities.  ``canonical_indices``,
``multiplicities`` and ``extend_table`` are the only index structures.

The one tensor norm is :func:`coefficient_l1`, the coefficient l1 mass
over the full index expansion (polarized coefficient times multiplicity).
It bounds ``|f(phi_1, ..., phi_p)|`` by ``coefficient_l1(f) prod ||phi_j||``
for every ambient norm that dominates the coordinate sup-norm and every
codomain norm dominated by the coordinate l1 norm (all norms used here
are).  :func:`majorant_of` and ``chrono.transport_majorant`` build every
majorant the certificate uses from it; the exact norm is not computed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .series import MajorantSeries

__all__ = [
    "VectorNorm",
    "SymTensor",
    "SymFunctional",
    "eval_homogeneous",
    "coefficient_l1",
    "eval_series",
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
    """All nondecreasing multi-indices of length p over {0..d-1}, lexicographic.

    Grown one letter at a time: each row is followed by every letter from
    its last one up to d-1, in order, which keeps the rows lexicographic.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    for _ in range(p):
        counts = d - last
        parent = np.repeat(np.arange(rows.shape[0]), counts)
        # position of each new row among its parent's children
        offset = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        last = last[parent] + offset
        rows = np.column_stack((rows[parent], last))
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def multiplicities(d: int, p: int) -> np.ndarray:
    """Multinomial weight p!/prod(counts!) of each canonical multi-index.

    Along a sorted row the run counter climbs 1, 2, ..., c over a run of
    c equal letters, so the product of the counters is prod(counts!).
    """
    rows = canonical_indices(d, p)
    run = np.ones(rows.shape[0], dtype=np.int64)
    denom = np.ones(rows.shape[0], dtype=np.int64)
    for a in range(1, p):
        run = np.where(rows[:, a] == rows[:, a - 1], run + 1, 1)
        denom *= run
    out = float(math.factorial(p)) / denom
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


# ---------------------------------------------------------------------------
# ambient norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorNorm:
    """Ambient norm: sum over blocks of the Euclidean norm of each block.

    A single block is the plain Euclidean norm; two blocks model a
    Cauchy-data norm (field part + velocity part).  Every such norm
    dominates the coordinate sup-norm, which is what the coefficient-l1
    tensor norm requires.
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


# ---------------------------------------------------------------------------
# the tensor norm
# ---------------------------------------------------------------------------


def coefficient_l1(f: SymTensor) -> float:
    """l1 mass of the full (multiplicity-expanded) coefficient array."""
    return float((np.abs(f.coeffs) * multiplicities(f.dim, f.degree)).sum())


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



def eval_series(f: SymFunctional, phi: np.ndarray) -> np.ndarray:
    """Finite sum over the stored degrees of the homogeneous evaluations."""
    if not f.terms:
        return np.zeros(1)
    out = np.zeros(f.codomain_dim)
    for t in f.terms:
        out += eval_diagonal(t, phi)
    return out


def majorant_of(f: SymFunctional, norm_spec: VectorNorm) -> MajorantSeries:
    """One-variable majorant collecting the per-degree tensor norms.

    Each degree's entry is :func:`coefficient_l1` of that degree's term;
    it holds for every ``norm_spec`` (each dominates the coordinate
    sup-norm).
    """
    coeffs = np.zeros(f.max_degree + 1 if f.terms else 1)
    for t in f.terms:
        coeffs[t.degree] = coefficient_l1(t)
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


def compose_first_slot(f: SymTensor, V: SymTensor) -> SymTensor:
    """Symmetrization of ``f o (V (x) id^{p-1})`` for scalar-valued f.

    ``V`` is a degree-q tensor with codomain dimension d; the result has
    degree ``m = p + q - 1``.  This is one summand of the first-order
    operator action on functionals; the caller supplies the factor ``p``.

    The kernel works on monomial coefficients (polarized coefficient times
    multiplicity).  The diagonal ``f(V(x), x, ..., x)`` has the monomial
    coefficient ``prod[K, S]`` at ``x^K x^S`` for every canonical K of
    degree p-1 and S of degree q; a chain of ``extend_table`` gathers ranks
    ``K + S`` in degree m, one ``bincount`` sums the products landing on
    each output index, and dividing by the degree-m multiplicities returns
    polarized coefficients.
    """
    if f.codomain_dim != 1:
        raise ValueError("compose_first_slot expects a scalar-valued tensor")
    if V.dim != f.dim or V.codomain_dim != f.dim:
        raise ValueError("V must be a vector field on the same space")
    d, p, q = f.dim, f.degree, V.degree
    if p < 1:
        raise ValueError("f must have degree >= 1")
    m = p + q - 1
    ext = extend_table(d, p - 1)  # (n_{p-1}, d) -> rank in degree p
    prod = (f.coeffs[0][ext] * multiplicities(d, p - 1)[:, None]) @ (V.coeffs * multiplicities(d, q))
    rank = np.broadcast_to(np.arange(ext.shape[0])[:, None], prod.shape)
    for i, letters in enumerate(canonical_indices(d, q).T):
        rank = extend_table(d, p - 1 + i)[rank, letters]
    out = np.bincount(rank.ravel(), weights=prod.ravel(), minlength=num_canonical(d, m))
    return SymTensor(m, d, out / multiplicities(d, m))


# ---------------------------------------------------------------------------
# dump format: header (degree, dim, codomain_dim) + canonical coefficients
# ---------------------------------------------------------------------------

_MAGIC = b"SYMT"


def save_tensor(f: SymTensor, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qqq", f.degree, f.dim, f.codomain_dim))
        fh.write(np.ascontiguousarray(f.coeffs, dtype="<f8").tobytes())


def load_tensor(path: str) -> SymTensor:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a tensor dump")
        degree, dim, codim = struct.unpack("<qqq", fh.read(24))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(codim, -1)
    return SymTensor(degree, dim, data)
