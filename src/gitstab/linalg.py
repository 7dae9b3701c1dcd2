"""Exact linear algebra over the rationals.

A subspace of Q^a is stored by the reduced row echelon basis of its spanning
vectors.  That form is unique, so two ``Subspace`` values describe the same
set of vectors exactly when they compare equal, and both types here are
hashable, which lets the lattice operations be memoized.  Nothing in this
module touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_CACHE = 1 << 16


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces, or row widths disagree."""


def parse_rational(value) -> Fraction:
    """Accept "p/q", integer and decimal strings, ints, and Fractions.

    bools are not numbers here, and exponent strings are refused because
    a few characters such as "1e200000" would expand to a huge integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():
            raise ValueError(f"exponent notation not accepted: {value!r}")
        return Fraction(value.strip())
    raise TypeError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _to_vector(row: Sequence) -> Vector:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)


def _rref(rows: list[list[Fraction]]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduce in place; return (nonzero echelon rows, pivot columns)."""
    if not rows:
        return (), ()
    width = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][col]
        if lead != 1:
            inv = 1 / lead
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - c * b for a, b in zip(ri, rr)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Fractions, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, data: Iterable[Sequence]) -> "RationalMatrix":
        vecs = [_to_vector(row) for row in data]
        if not vecs:
            return cls(0, 0, ())
        width = len(vecs[0])
        for v in vecs:
            if len(v) != width:
                raise DimensionMismatchError("ragged rows")
        flat = tuple(x for v in vecs for x in v)
        return cls(len(vecs), width, flat)

    @classmethod
    def from_columns(cls, data: Iterable[Sequence]) -> "RationalMatrix":
        return cls.from_rows(data).transpose()

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        flat = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(n, n, flat)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def column_list(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RationalMatrix":
        flat = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return RationalMatrix(self.cols, self.rows, flat)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("matmul shape mismatch")
        out: list[Fraction] = []
        ocols = other.cols
        for i in range(self.rows):
            base = i * self.cols
            for j in range(ocols):
                acc = Fraction(0)
                for k in range(self.cols):
                    a = self.entries[base + k]
                    if a:
                        acc += a * other.entries[k * ocols + j]
                out.append(acc)
        return RationalMatrix(self.rows, ocols, tuple(out))

    def mul_vector(self, v: Sequence) -> Vector:
        vec = _to_vector(v)
        if len(vec) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        return tuple(
            sum((self.entries[i * self.cols + k] * vec[k] for k in range(self.cols)),
                Fraction(0))
            for i in range(self.rows)
        )

    def rank(self) -> int:
        reduced, _ = _rref([list(r) for r in self.row_list()])
        return len(reduced)

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatchError("determinant of non-square matrix")
        n = self.rows
        rows = [list(self.row(i)) for i in range(n)]
        sign = 1
        det = Fraction(1)
        for col in range(n):
            pivot = None
            for i in range(col, n):
                if rows[i][col] != 0:
                    pivot = i
                    break
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                sign = -sign
            lead = rows[col][col]
            det *= lead
            for i in range(col + 1, n):
                if rows[i][col] != 0:
                    c = rows[i][col] / lead
                    rows[i] = [a - c * b for a, b in zip(rows[i], rows[col])]
        return det * sign

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise DimensionMismatchError("inverse of non-square matrix")
        n = self.rows
        zero, one = Fraction(0), Fraction(1)
        aug = [
            list(self.row(i)) + [one if i == j else zero for j in range(n)]
            for i in range(n)
        ]
        reduced, pivots = _rref(aug)
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        flat = tuple(x for row in reduced for x in row[n:])
        return RationalMatrix(n, n, flat)

    def to_strings(self) -> list[list[str]]:
        return [[format_rational(x) for x in self.row(i)] for i in range(self.rows)]


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient_dim, held as its unique echelon basis.

    ``rows`` are the reduced row echelon basis vectors; ``pivots`` the
    corresponding pivot coordinates, strictly increasing.  Construct through
    ``span``/``canonicalize``/``zero``/``full`` so the invariant holds.
    """

    ambient_dim: int
    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    @property
    def basis(self) -> RationalMatrix:
        """Canonical basis as columns (reduced column echelon form)."""
        return RationalMatrix.from_rows(self.rows).transpose()

    def basis_rows(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.rows]

    def reduce_vector(self, v: Sequence) -> Vector:
        """Residual of v after eliminating this subspace's pivot coordinates."""
        vec = list(_to_vector(v))
        if len(vec) != self.ambient_dim:
            raise DimensionMismatchError("vector length mismatch")
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
        return tuple(vec)

    def contains_vector(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("ambient mismatch")
        if other.dim > self.dim:
            return False
        return all(self.contains_vector(row) for row in other.rows)

    def coordinates_of(self, v: Sequence) -> Vector:
        """Coordinates of a member vector in the canonical basis.

        Echelon rows have identity on the pivot coordinates, so coordinates
        are read off there.  Raises if v is not in the subspace.
        """
        vec = _to_vector(v)
        if not self.contains_vector(vec):
            raise ValueError("vector not in subspace")
        return tuple(vec[p] for p in self.pivots)

    def __repr__(self):
        inner = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.rows
        )
        return f"Subspace({self.dim}/{self.ambient_dim}: {inner})"


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Subspace spanned by the given vectors (zero vectors allowed)."""
    rows = []
    for v in vectors:
        vec = [x if isinstance(x, Fraction) else Fraction(x) for x in v]
        if len(vec) != ambient_dim:
            raise DimensionMismatchError(
                f"vector length {len(vec)} != ambient {ambient_dim}"
            )
        rows.append(vec)
    reduced, pivots = _rref(rows)
    return Subspace(ambient_dim, reduced, pivots)


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, (), ())


def full_subspace(ambient_dim: int) -> Subspace:
    zero, one = Fraction(0), Fraction(1)
    rows = tuple(
        tuple(one if i == j else zero for j in range(ambient_dim))
        for i in range(ambient_dim)
    )
    return Subspace(ambient_dim, rows, tuple(range(ambient_dim)))


def canonicalize(m: RationalMatrix) -> Subspace:
    """Subspace spanned by the columns of m, in canonical form."""
    return span(m.column_list(), m.rows)


@lru_cache(maxsize=_CACHE)
def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both (the sum a + b)."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return span(list(a.rows) + list(b.rows), a.ambient_dim)


@lru_cache(maxsize=_CACHE)
def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, by the double-block echelon trick.

    Rows [u | u] for u spanning a and [v | 0] for v spanning b are reduced
    together; rows whose left half has vanished carry a basis of the
    intersection in their right half.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    amb = a.ambient_dim
    if a.is_zero or b.is_zero:
        return zero_subspace(amb)
    if a.is_full:
        return b
    if b.is_full:
        return a
    zero = Fraction(0)
    zeros = [zero] * amb
    rows = [list(u) + list(u) for u in a.rows]
    rows += [list(v) + zeros for v in b.rows]
    reduced, _ = _rref(rows)
    inter = [row[amb:] for row in reduced if all(x == 0 for x in row[:amb])]
    return span(inter, amb)


def kernel(m: RationalMatrix) -> Subspace:
    """Null space {x : m x = 0} as a subspace of Q^cols."""
    reduced, pivots = _rref([list(r) for r in m.row_list()])
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in free:
        vec = [zero] * m.cols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return span(basis, m.cols)


def complement_chart(h: Subspace) -> Subspace:
    """The coordinate subspace on h's non-pivot coordinates.

    It meets h in 0 and joins it to the full space.  Its unit rows at
    increasing coordinates are already in reduced echelon form.
    """
    pivot_set = set(h.pivots)
    chart = [j for j in range(h.ambient_dim) if j not in pivot_set]
    zero, one = Fraction(0), Fraction(1)
    rows = tuple(
        tuple(one if t == j else zero for t in range(h.ambient_dim)) for j in chart
    )
    return Subspace(h.ambient_dim, rows, tuple(chart))


def quotient_image(k: Subspace, h: Subspace) -> Subspace:
    """Image of k in the quotient by h, in the complement chart.

    The chart drops h's pivot coordinates after eliminating them; the
    remaining coordinates index a canonical copy of the quotient space.
    """
    if k.ambient_dim != h.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    chart = complement_chart(h).pivots
    images = []
    for v in k.rows:
        w = h.reduce_vector(v)
        images.append([w[j] for j in chart])
    return span(images, len(chart))


def lift_from_quotient(y: Sequence, h: Subspace) -> Vector:
    """Section of the quotient chart: coordinates back to a full vector.

    The lifted vector has zeros at h's pivot coordinates, so quotienting it
    again returns y.
    """
    vec = _to_vector(y)
    chart = complement_chart(h).pivots
    if len(vec) != len(chart):
        raise DimensionMismatchError("quotient coordinate length mismatch")
    zero = Fraction(0)
    out = [zero] * h.ambient_dim
    for coord, j in zip(vec, chart):
        out[j] = coord
    return tuple(out)


def restrict_to(inner: Subspace, outer: Subspace) -> Subspace:
    """inner, a subspace of outer, written in outer's canonical coordinates."""
    coords = [outer.coordinates_of(v) for v in inner.rows]
    return span(coords, outer.dim)


def lift_into(sub: Subspace, outer: Subspace) -> Subspace:
    """A subspace given in outer's coordinates, as a subspace of the ambient."""
    lifted = []
    for y in sub.rows:
        vec = [Fraction(0)] * outer.ambient_dim
        for coef, row in zip(y, outer.rows):
            if coef:
                vec = [a + coef * b for a, b in zip(vec, row)]
        lifted.append(vec)
    return span(lifted, outer.ambient_dim)


def subspace_digest(subspaces: Iterable[Subspace]) -> str:
    """Stable hex digest of a list of canonical bases, for verdict records."""
    import hashlib

    h = hashlib.sha256()
    for s in subspaces:
        h.update(f"{s.ambient_dim}:".encode())
        for row in s.rows:
            h.update(";".join(format_rational(x) for x in row).encode())
            h.update(b"|")
        h.update(b"#")
    return h.hexdigest()
