"""Exact linear algebra over the rationals.

A subspace of Q^a is stored by the reduced row echelon basis of its spanning
vectors.  That form is unique, so two ``Subspace`` values describe the same
set of vectors exactly when they compare equal, and both types here are
hashable, which lets the lattice operations be memoized.

Row reduction is fraction-free: each row is scaled once to a primitive
integer row, eliminated with integer combinations and divided by its content
after every step (Bareiss-style).  The canonical Fraction rows are built once,
when a result becomes a ``Subspace``, which also keeps the integer rows for
later meets, joins and dimension counts.  Nothing in this module touches
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

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


def _integer_row(row: Sequence) -> tuple[list[int], int]:
    """(den * row, den) for den the lcm of the entries' denominators.

    Entries are ints or Fractions.
    """
    den = 1
    for x in row:
        q = x.denominator
        if den % q:
            den = lcm(den, q)
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


def _primitive_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """Each nonzero row scaled to its primitive integer multiple."""
    out = []
    for row in rows:
        ints, _ = _integer_row(row)
        g = gcd(*ints)
        if g == 1:
            out.append(ints)
        elif g:
            out.append([x // g for x in ints])
    return out


def _lead(row: Sequence[int], start: int) -> Optional[int]:
    for j in range(start, len(row)):
        if row[j]:
            return j
    return None


def _cancel(x: Sequence[int], y: Sequence[int], col: int) -> list[int]:
    """A primitive multiple of aa*x - bb*y, chosen so column col vanishes."""
    a, b = y[col], x[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = [a * s - b * t for s, t in zip(x, y)]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _echelon(rows: Iterable[Sequence[int]]) -> dict[int, Sequence[int]]:
    """Forward-only fraction-free elimination of integer rows.

    Each row is reduced against the rows kept so far until its leading
    column is new, and kept unless it vanished.  Rows stay integral, and
    primitive when the input rows are (Bareiss-style, with gcd normalisation
    after each step).  Returns the kept rows keyed by leading column; their
    number is the rank.
    """
    basis: dict[int, Sequence[int]] = {}
    for row in rows:
        lead = _lead(row, 0)
        while lead in basis:
            row = _cancel(row, basis[lead], lead)
            lead = _lead(row, lead + 1)
        if lead is not None:
            basis[lead] = row
    return basis


def _reduced_ints(
    rows: Iterable[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Integer form of the reduced row echelon basis of primitive rows.

    Back-substitution clears every pivot column above its pivot; each row
    is then the primitive integer multiple, with positive pivot entry, of
    the corresponding canonical RREF row.
    """
    basis = _echelon(rows)
    pivots = tuple(sorted(basis))
    reduced = [basis[p] for p in pivots]
    for i in range(len(pivots) - 1, 0, -1):
        p, below = pivots[i], reduced[i]
        for k in range(i):
            if reduced[k][p]:
                reduced[k] = _cancel(reduced[k], below, p)
    ints = tuple(
        tuple(row) if row[p] > 0 else tuple(-x for x in row)
        for row, p in zip(reduced, pivots)
    )
    return ints, pivots


_ZERO = Fraction(0)
# canonical entries repeat across subspaces, so equal ones share one object
_fraction = lru_cache(maxsize=1 << 12)(Fraction)


def _canonical_rows(
    ints: Sequence[Sequence[int]], pivots: Sequence[int]
) -> tuple[Vector, ...]:
    """The canonical Fraction RREF rows: each integer row over its pivot."""
    return tuple(
        tuple(_fraction(x, row[p]) if x else _ZERO for x in row)
        for row, p in zip(ints, pivots)
    )


def _rref(rows: Iterable[Sequence]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """(nonzero reduced row echelon rows, pivot columns) of ints/Fractions."""
    ints, pivots = _reduced_ints(_primitive_rows(rows))
    return _canonical_rows(ints, pivots), pivots


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
        return len(_echelon(_primitive_rows(self.row_list())))

    def det(self) -> Fraction:
        """Bareiss elimination on the rows scaled to integers.

        Every intermediate entry is a minor of the integer matrix, so each
        division is exact and the last pivot is its determinant.
        """
        if self.rows != self.cols:
            raise DimensionMismatchError("determinant of non-square matrix")
        n = self.rows
        rows, scale, sign = [], 1, 1
        for i in range(n):
            ints, den = _integer_row(self.row(i))
            rows.append(ints)
            scale *= den
        prev = 1
        for k in range(n):
            pivot = _lead([row[k] for row in rows[k:]], 0)
            if pivot is None:
                return Fraction(0)
            if pivot:
                rows[k], rows[k + pivot] = rows[k + pivot], rows[k]
                sign = -sign
            top, lead = rows[k], rows[k][k]
            for i in range(k + 1, n):
                row, c = rows[i], rows[i][k]
                rows[i] = [
                    (lead * row[j] - c * top[j]) // prev if j > k else 0
                    for j in range(n)
                ]
            prev = lead
        return Fraction(sign * prev, scale)

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


@dataclass(frozen=True, slots=True)
class Subspace:
    """Subspace of Q^ambient_dim, held as its unique echelon basis.

    ``rows`` are the reduced row echelon basis vectors; ``pivots`` the
    corresponding pivot coordinates, strictly increasing.  Construct through
    ``span``/``canonicalize``/``zero``/``full`` so the invariant holds.
    """

    ambient_dim: int
    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]
    # filled on first use; span fills _ints from its own elimination
    _ints: Optional[tuple[tuple[int, ...], ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each echelon row scaled to its primitive integer multiple.

        A row with pivot entry 1 scaled by the lcm of its denominators is
        already primitive.
        """
        ints = self._ints
        if ints is None:
            ints = tuple(tuple(_integer_row(row)[0]) for row in self.rows)
            object.__setattr__(self, "_ints", ints)
        return ints

    # equal canonical rows and equal integer rows determine each other, so
    # both compare the cheaper integers; the hash is computed once
    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return self is other or (
            self.ambient_dim == other.ambient_dim and self.int_rows == other.int_rows
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ambient_dim, self.int_rows))
            object.__setattr__(self, "_hash", h)
        return h

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

    def _residual(self, v: Sequence[int]) -> Sequence[int]:
        """A multiple of the integer row v with this subspace's pivot
        coordinates eliminated; zero exactly when v lies in the subspace."""
        for row, p in zip(self.int_rows, self.pivots):
            if v[p]:
                v = _cancel(v, row, p)
        return v

    def contains_vector(self, v: Sequence) -> bool:
        vec = _to_vector(v)
        if len(vec) != self.ambient_dim:
            raise DimensionMismatchError("vector length mismatch")
        return not any(self._residual(_integer_row(vec)[0]))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("ambient mismatch")
        if other.dim > self.dim:
            return False
        return not any(any(self._residual(row)) for row in other.int_rows)

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
        vec = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
        if len(vec) != ambient_dim:
            raise DimensionMismatchError(
                f"vector length {len(vec)} != ambient {ambient_dim}"
            )
        rows.append(vec)
    return _span_ints(_primitive_rows(rows), ambient_dim)


def _span_ints(rows: Iterable[Sequence[int]], ambient_dim: int) -> Subspace:
    """Subspace spanned by primitive integer rows of the right width."""
    ints, pivots = _reduced_ints(rows)
    sub = Subspace(ambient_dim, _canonical_rows(ints, pivots), pivots)
    object.__setattr__(sub, "_ints", ints)
    return sub


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
    return _span_ints(a.int_rows + b.int_rows, a.ambient_dim)


@lru_cache(maxsize=_CACHE)
def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, by the double-block echelon trick.

    Rows [u | u] for u spanning a and [v | 0] for v spanning b are brought
    to echelon form together; rows whose left half has vanished carry a
    basis of the intersection in their right half.
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
    zeros = (0,) * amb
    rows = [u + u for u in a.int_rows] + [v + zeros for v in b.int_rows]
    basis = _echelon(rows)
    return _span_ints([row[amb:] for p, row in basis.items() if p >= amb], amb)


def meet_dim(a: Subspace, b: Subspace) -> int:
    """dim(a meet b) = dim a + dim b - dim(a + b), by forward elimination."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    return a.dim + b.dim - len(_echelon(a.int_rows + b.int_rows))


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
    # residuals vanish on h's pivots, so dropping them keeps rows primitive
    images = [[w[j] for j in chart] for w in map(h._residual, k.int_rows)]
    return _span_ints(images, len(chart))


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
    if not outer.contains(inner):
        raise ValueError("vector not in subspace")
    coords = [[v[p] for p in outer.pivots] for v in inner.int_rows]
    return _span_ints(_primitive_rows(coords), outer.dim)


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
