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
sums the products by the rank of each product monomial with one
``bincount`` and divides by the output multiplicities.  The ranks of a
degree pair ``(p, q)`` are chained ``extend_table`` gathers, built once
as a read-only int32 map (``_rank_map``, a bounded cache).
``_compose_factored`` takes the field as two factors and never forms it,
for a stack of nodes whose factors are two fixed matrices scaled by
per-node diagonals, with one matmul pair and one ``bincount`` for the
whole stack.
``_growth``, the ``(parent, last)`` pair that grows each canonical
index from one of degree one less, and ``extend_table`` are the only
index structures; the multiplicities, the monomials and the rank maps are
built along them.

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
from typing import Iterable

import numpy as np

from .series import MajorantSeries

__all__ = [
    "VectorNorm",
    "SymTensor",
    "SymFunctional",
    "coefficient_l1",
    "eval_series",
    "majorant_of",
    "compose_first_slot",
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
def _growth(d: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(parent, last)`` of each canonical degree-p index, ``p >= 1``.

    The canonical rows grow one letter at a time: each degree-(p-1) row is
    followed by every letter from its last one up to d-1, in order, which
    keeps the rows lexicographic.  ``parent`` is the degree-(p-1) rank a row
    grew from and ``last`` the letter it appended.
    """
    prev_last = _growth(d, p - 1)[1] if p > 1 else np.zeros(1, dtype=np.int64)
    counts = d - prev_last
    parent = np.repeat(np.arange(prev_last.size), counts)
    # position of each new row among its parent's children
    offset = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
    last = prev_last[parent] + offset
    parent.setflags(write=False)
    last.setflags(write=False)
    return parent, last


@lru_cache(maxsize=None)
def multiplicities(d: int, p: int) -> np.ndarray:
    """Multinomial weight p!/prod(counts!) of each canonical multi-index.

    Built along :func:`_growth`: appending a letter that ends a run of
    ``run`` equal letters to a degree-(q-1) row multiplies its weight by
    ``q / run``.  Every weight is an exact integer.
    """
    out, run, last = np.ones(1), np.zeros(1, dtype=np.int64), np.full(1, -1)
    for q in range(1, p + 1):
        parent, grown = _growth(d, q)
        run = np.where(grown == last[parent], run[parent] + 1, 1)
        out, last = out[parent] * q / run, grown
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def extend_table(d: int, p: int) -> np.ndarray:
    """Rank in degree p+1 of each canonical degree-p index extended by one letter.

    ``extend_table(d, p)[K, j]`` is the canonical rank of ``sorted(K + (j,))``.
    Built from the degree-(p-1) table by the growth rule of
    :func:`_growth`.  With ``l = last(K)``, ``K + (l,)`` is K's
    first child, so a letter ``j >= l`` lands ``j - l`` rows after it.  A
    smaller letter goes inside: the previous table ranks K's prefix
    extended by j, and l, still the largest letter, is appended to that.
    """
    if p == 0:
        ext = np.arange(d, dtype=np.int64)[None]
    else:
        # the prefix's rank: the degree-(p-1) row that K grew from
        prefix, last = _growth(d, p)
        counts = d - last
        start = np.cumsum(counts) - counts  # rank of K + (l,) in degree p+1
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
    Symmetry is structural: only canonical indices are stored.  A tensor is a
    value with no arithmetic: a caller scales or adds ``coeffs`` and builds a
    new tensor from them.
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


def monomials(X: np.ndarray, degree: int) -> np.ndarray:
    """``(len(X), n_canonical)``: multiplicity times each canonical monomial of each row of ``X``.

    :func:`_products` times the multiplicities.  The result is C-ordered."""
    return _products(X, degree) * multiplicities(X.shape[-1], degree)


def _products(X: np.ndarray, degree: int) -> np.ndarray:
    """``(..., n_canonical)``: each canonical monomial of each row of ``X``, without multiplicity.

    Built degree by degree on the growth rule: a monomial is its parent's
    times the appended letter, one gather and one multiply per degree, in the
    letters' order."""
    d = X.shape[-1]
    out = np.ones((*X.shape[:-1], 1))
    for q in range(1, degree + 1):
        parent, last = _growth(d, q)
        out = np.multiply(out.take(parent, axis=-1), X.take(last, axis=-1), order="C")
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


def majorant_of(f: SymFunctional) -> MajorantSeries:
    """One-variable majorant collecting the per-degree tensor norms.

    Each degree's entry is :func:`coefficient_l1` of that degree's term, so
    the majorant holds for every ambient norm that dominates the coordinate
    sup-norm (every :class:`VectorNorm` does).
    """
    coeffs = np.zeros(f.max_degree + 1 if f.terms else 1)
    for t in f.terms:
        coeffs[t.degree] = coefficient_l1(t)
    return MajorantSeries(coeffs)


def _open_polarized(coeffs: np.ndarray, d: int, p: int) -> np.ndarray:
    """``(..., n_{p-1}, d)``: each row of the degree-p ``coeffs`` with the first slot open, the
    polarized coefficient of ``sorted(K + (j,))`` at ``[K, j]``."""
    return coeffs[..., extend_table(d, p - 1)]


def _open(coeffs: np.ndarray, d: int, p: int) -> np.ndarray:
    """``_open_polarized`` as monomial coefficients: row ``K`` times ``multiplicities(K)``."""
    return _open_polarized(coeffs, d, p) * multiplicities(d, p - 1)[:, None]


# rank maps kept by _rank_map; each is as large as one node's product of its degrees
_RANK_MAPS = 8


@lru_cache(maxsize=_RANK_MAPS)
def _rank_map(d: int, p: int, q: int) -> np.ndarray:
    """``(n_{p-1}, n_q)`` int32: the degree-``p + q - 1`` rank of ``x^K x^S``, read-only.

    ``extend_table`` gathers the letters of S onto K one at a time, along
    :func:`_growth`: the rank of ``x^K x^S`` extends that of S's parent by
    S's last letter.  ``OverflowError`` is raised when the ranks do not fit
    int32.  The map is C-ordered, so ``_collect`` ravels it without a copy."""
    if num_canonical(d, p + q - 1) >= 2**31:
        raise OverflowError(
            f"degree {p + q - 1} over dimension {d} has more canonical indices than int32 ranks"
        )
    rank = np.arange(num_canonical(d, p - 1))[:, None]
    for i in range(1, q + 1):
        parent, last = _growth(d, i)
        rank = extend_table(d, p - 2 + i)[rank[:, parent], last]
    rank = rank.astype(np.int32, order="C")
    rank.setflags(write=False)
    return rank


def _collect(prod: np.ndarray, d: int, p: int, q: int) -> np.ndarray:
    """Degree-``p + q - 1`` coefficients from the monomial products ``prod[..., K, S]`` at ``x^K x^S``.

    A stack of products ``(c, n_{p-1}, n_q)`` gives ``(c, n_m)``: one
    ``bincount`` sums every product by :func:`_rank_map`, offset by its
    place in the stack, and dividing by the multiplicities returns
    polarized coefficients."""
    m = p + q - 1
    n_m = num_canonical(d, m)
    rank = _rank_map(d, p, q)
    c = prod.size // rank.size
    if c > 1:
        rank = rank + (np.arange(c) * n_m)[:, None, None]
    out = np.bincount(rank.ravel(), weights=prod.ravel(), minlength=c * n_m)
    out = out.reshape(*prod.shape[:-2], n_m)
    out /= multiplicities(d, m)
    return out


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
    if f.codomain_dim != 1:
        raise ValueError("composition expects a scalar-valued tensor")
    if f.degree < 1:
        raise ValueError("f must have degree >= 1")
    if V.dim != f.dim or V.codomain_dim != f.dim:
        raise ValueError("V must be a vector field on the same space")
    prod = _open(f.coeffs[0], f.dim, f.degree) @ (V.coeffs * multiplicities(V.dim, V.degree))
    return SymTensor(f.degree + V.degree - 1, f.dim, _collect(prod, f.dim, f.degree, V.degree))


def _compose_factored(
    coeffs: np.ndarray, p: int, b: np.ndarray, B0: np.ndarray, W0: np.ndarray, pi: np.ndarray, q: int
) -> np.ndarray:
    """:func:`compose_first_slot` at a stack of nodes whose fields share two fixed factors: ``(c, n_m)``.

    Node ``l`` composes its degree-p coefficients ``coeffs[l]`` with the
    field ``V = sum_x B[:, x] (x) W[x]``, never formed, where
    ``B = diag(b[l]) B0`` and row ``x`` of ``W = W0 diag(pi[l])`` holds the
    monomial coefficients of a degree-q scalar map.  The diagonals stay
    outside the fixed factors: the products are
    ``((open-slot o b) @ B0 @ W0) o pi``, one matmul pair for the stack,
    and :func:`_collect` sums them with one ``bincount``.
    """
    d = B0.shape[0]
    u = (_open(coeffs, d, p) * b[:, None, :]).reshape(-1, d)
    prod = _gemm(_gemm(u, B0), W0).reshape(len(b), -1, W0.shape[1])
    prod *= pi[:, None, :]
    return _collect(prod, d, p, q)


def _gemm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` by gemm whatever the shapes.

    NumPy hands a one-row or one-column product to gemv, which rounds
    unlike gemm and rounds a row by where it sits among the others; gemm's
    rows do not depend on how many share the call.  A repeated row or
    column keeps the product on gemm, so a node's bits do not depend on the
    nodes composed with it."""
    r, c = x.shape[0], y.shape[1]
    x = np.vstack([x, x]) if r == 1 else x
    y = np.hstack([y, y]) if c == 1 else y
    return (x @ y)[:r, :c]


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
