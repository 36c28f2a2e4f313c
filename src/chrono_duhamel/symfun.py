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
kernel rests on this: it multiplies monomial coefficients in one matmul,
finds the rank of each product monomial by chained ``extend_table``
gathers, sums them with one ``bincount`` and divides by the output
multiplicities.  :func:`compose_rank_one` takes the field as two factors
and never forms it.  ``canonical_indices``, ``multiplicities`` and
``extend_table`` are the only index structures.

The one tensor norm is :func:`coefficient_l1`, the coefficient l1 mass
over the full index expansion (polarized coefficient times multiplicity).
It bounds ``|f(phi_1, ..., phi_p)|`` by ``coefficient_l1(f) prod ||phi_j||``
for every ambient norm that dominates the coordinate sup-norm and every
codomain norm dominated by the coordinate l1 norm (all norms used here
are).  :func:`majorant_of` builds a functional's majorant from it; the
exact norm is not computed.
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
    "compose_rank_one",
    "monomials",
    "save_tensor",
    "load_tensor",
]


# ---------------------------------------------------------------------------
# canonical multi-index machinery
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def extend_table(d: int, p: int) -> np.ndarray:
    """Rank in degree p+1 of each canonical degree-p index extended by one letter.

    ``extend_table(d, p)[K, j]`` is the canonical rank of ``sorted(K + (j,))``.
    Built from the degree-(p-1) table by the growth rule of
    :func:`canonical_indices`.  With ``l = last(K)``, ``K + (l,)`` is K's
    first child, so a letter ``j >= l`` lands ``j - l`` rows after it.  A
    smaller letter goes inside: the previous table ranks K's prefix
    extended by j, and l, still the largest letter, is appended to that.
    """
    if p == 0:
        ext = np.arange(d, dtype=np.int64)[None]
    else:
        last = canonical_indices(d, p)[:, -1]
        counts = d - last
        start = np.cumsum(counts) - counts  # rank of K + (l,) in degree p+1
        # the prefix's rank: the degree-(p-1) row that K grew from
        prev_last = canonical_indices(d, p - 1)[:, -1] if p > 1 else 0
        prefix = np.repeat(np.arange(num_canonical(d, p - 1)), d - prev_last)
        inner = extend_table(d, p - 1)
        ext = np.empty((last.size, d), dtype=np.int64)
        for j in range(d):
            q = inner[prefix, j]
            ext[:, j] = np.where(j >= last, start + (j - last), start[q] + (last - last[q]))
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


def monomials(X: np.ndarray, degree: int) -> np.ndarray:
    """``(len(X), n_canonical)``: multiplicity times each canonical monomial of each row of ``X``.

    Filled row by row, so no ``(len(X), n_canonical, degree)`` gather is made."""
    idx = canonical_indices(X.shape[1], degree)
    out = np.empty((X.shape[0], idx.shape[0]))
    for row, x in zip(out, X):
        np.prod(x[idx], axis=1, out=row)
    out *= multiplicities(X.shape[1], degree)
    return out


def eval_diagonal(f: SymTensor, phi: np.ndarray) -> np.ndarray:
    """Evaluate the homogeneous map on equal arguments (the monomial expansion)."""
    return f.coeffs @ monomials(np.asarray(phi)[None, :], f.degree)[0]


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


def _open_slot(f: SymTensor) -> np.ndarray:
    """Monomial coefficients of scalar ``f`` with the first slot open: ``(n_{p-1}, d)``."""
    if f.codomain_dim != 1:
        raise ValueError("composition expects a scalar-valued tensor")
    if f.degree < 1:
        raise ValueError("f must have degree >= 1")
    ext = extend_table(f.dim, f.degree - 1)  # (n_{p-1}, d) -> rank in degree p
    return f.coeffs[0][ext] * multiplicities(f.dim, f.degree - 1)[:, None]


def _collect(prod: np.ndarray, d: int, p: int, q: int) -> SymTensor:
    """Degree-``p + q - 1`` tensor from the monomial products ``prod[K, S]`` at ``x^K x^S``:
    ``extend_table`` gathers rank ``K + S``, one ``bincount`` sums by rank,
    and dividing by the multiplicities returns polarized coefficients."""
    m = p + q - 1
    rank = np.broadcast_to(np.arange(prod.shape[0])[:, None], prod.shape)
    for i, letters in enumerate(canonical_indices(d, q).T):
        rank = extend_table(d, p - 1 + i)[rank, letters]
    out = np.bincount(rank.ravel(), weights=prod.ravel(), minlength=num_canonical(d, m))
    return SymTensor(m, d, out / multiplicities(d, m))


def compose_first_slot(f: SymTensor, V: SymTensor) -> SymTensor:
    """Symmetrization of ``f o (V (x) id^{p-1})`` for scalar-valued f.

    ``V`` is a degree-q tensor with codomain dimension d; the result has
    degree ``m = p + q - 1``.  This is one summand of the first-order
    operator action on functionals; the caller supplies the factor ``p``.

    The kernel works on monomial coefficients (polarized coefficient times
    multiplicity).  The diagonal ``f(V(x), x, ..., x)`` has the monomial
    coefficient ``prod[K, S]`` at ``x^K x^S`` for every canonical K of
    degree p-1 and S of degree q, one matmul of the open-slot coefficients
    of ``f`` with those of ``V``; :func:`_collect` sums them by output index.
    """
    if V.dim != f.dim or V.codomain_dim != f.dim:
        raise ValueError("V must be a vector field on the same space")
    prod = _open_slot(f) @ (V.coeffs * multiplicities(V.dim, V.degree))
    return _collect(prod, f.dim, f.degree, V.degree)


def compose_rank_one(f: SymTensor, B: np.ndarray, W: np.ndarray, q: int) -> SymTensor:
    """:func:`compose_first_slot` of ``f`` with ``V = sum_x B[:, x] (x) W[x]``, never formed.

    ``B`` is (d, n); row ``x`` of ``W`` holds the monomial coefficients of a
    degree-q scalar map, e.g. ``W = lam * monomials(A, q)`` for
    ``V = lam sum_x B[:, x] (x) A[x]^{(x) q}``.
    """
    return _collect((_open_slot(f) @ B) @ W, f.dim, f.degree, q)


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
