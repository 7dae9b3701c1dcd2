"""Weighted configurations of subspaces of V tensor W.

V = Q^n carries the group action, W = Q^d is a fixed multiplicity factor.
Tensor coordinates are V-major: a vector x in Q^(n*d) is the flattening of
the n-by-d array X with x[i*d + l] = X[i, l], so membership in h tensor W
means every column of X lies in h.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .linalg import (
    DimensionMismatchError,
    RationalMatrix,
    Subspace,
    _integer_row,
    format_rational,
    full_subspace,
    kron,
    meet,
    meet_dim,
    parse_rational,
    quotient_image,
    restrict_to,
    span,
    zero_subspace,
)

_CACHE = 1 << 16
# largest ambient dimension a file may declare: the cost of a declared
# dimension grows with its square even when no vector backs it
MAX_AMBIENT = 1024


class ConfigSchemaError(ValueError):
    """Raised on malformed configuration data; message carries the field path."""


@dataclass(frozen=True)
class WeightedConfiguration:
    """Items (K_i, w_i) with K_i a subspace of Q^(n*d) and w_i > 0.

    ``integer_weights`` is derived once: (W, D, T) with W_i = D * w_i
    integers for D the lcm of the weights' denominators, and T the integer
    sum(W_i dim K_i).  It takes no part in equality, hashing or repr.
    """

    n: int
    d: int
    items: tuple[tuple[Subspace, Fraction], ...]
    integer_weights: tuple[tuple[int, ...], int, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n < 1:
            raise ConfigSchemaError("n must be >= 1")
        if self.d < 1:
            raise ConfigSchemaError("d must be >= 1")
        if not self.items:
            raise ConfigSchemaError("empty configuration (m = 0) rejected")
        for idx, (sub, w) in enumerate(self.items):
            if sub.ambient_dim != self.n * self.d:
                raise ConfigSchemaError(
                    f"items[{idx}]: ambient {sub.ambient_dim} != n*d = {self.n * self.d}"
                )
            if w <= 0:
                raise ConfigSchemaError(f"items[{idx}].weight: must be positive")
        ints, den = _integer_row([w for _, w in self.items])
        total = sum(w * sub.dim for (sub, _), w in zip(self.items, ints))
        object.__setattr__(self, "integer_weights", (tuple(ints), den, total))

    @property
    def m(self) -> int:
        return len(self.items)

    def subspaces(self) -> list[Subspace]:
        return [sub for sub, _ in self.items]

    def weights(self) -> list[Fraction]:
        return [w for _, w in self.items]

    def scale_weights(self, factor: Fraction) -> "WeightedConfiguration":
        factor = parse_rational(factor)
        if factor <= 0:
            raise ValueError("weight scale must be positive")
        return WeightedConfiguration(
            self.n, self.d, tuple((sub, w * factor) for sub, w in self.items)
        )

    def with_weights(self, weights: Sequence) -> "WeightedConfiguration":
        ws = [parse_rational(w) for w in weights]
        if len(ws) != self.m:
            raise ConfigSchemaError("weight count mismatch")
        return WeightedConfiguration(
            self.n, self.d, tuple((sub, w) for (sub, _), w in zip(self.items, ws))
        )


def configuration(
    n: int, d: int, items: Iterable[tuple[Subspace, object]]
) -> WeightedConfiguration:
    packed = tuple((sub, parse_rational(w)) for sub, w in items)
    return WeightedConfiguration(n, d, packed)


@lru_cache(maxsize=_CACHE)
def tensor_with_full_w(h: Subspace, d: int) -> Subspace:
    """h tensor W inside Q^(ambient*d), the Kronecker product with Q^d."""
    return h if d == 1 else kron(h, full_subspace(d))


def supp_v(k: Subspace, n: int, d: int) -> Subspace:
    """Smallest h with k contained in h tensor W (column span of reshapes)."""
    if k.ambient_dim != n * d:
        raise DimensionMismatchError("ambient mismatch")
    return span([v[l::d] for v in k.int_rows for l in range(d)], n)


def intersection_dims(c: WeightedConfiguration, h: Subspace) -> tuple[int, ...]:
    """dim(K_i meet (h tensor W)) for every item."""
    if h.ambient_dim != c.n:
        raise DimensionMismatchError("h must live in Q^n")
    hw = tensor_with_full_w(h, c.d)
    return tuple(meet_dim(hw, sub) for sub, _ in c.items)


def slope_total(c: WeightedConfiguration) -> Fraction:
    """Weighted average dimension per ambient dimension: sum(w_i dim K_i)/n."""
    _, den, total = c.integer_weights
    return Fraction(total, den * c.n)


def slope_at(c: WeightedConfiguration, h: Subspace) -> Fraction:
    """Same functional for the configuration cut down to h (h nonzero)."""
    if h.is_zero:
        raise ValueError("slope_at undefined at the zero subspace")
    ints, den, _ = c.integer_weights
    return Fraction(sum(map(mul, ints, intersection_dims(c, h))), den * h.dim)


def induced_sub(c: WeightedConfiguration, h: Subspace) -> WeightedConfiguration:
    """Configuration {K_i meet (h tensor W)} in adapted coordinates of h.

    Coordinates in h tensor W are read off at the pivot positions of its
    echelon basis, which makes the result canonical and keeps the W factor
    convention intact.
    """
    if h.ambient_dim != c.n:
        raise DimensionMismatchError("h must live in Q^n")
    if h.is_zero:
        raise ValueError("induced_sub needs a nonzero h")
    hw = tensor_with_full_w(h, c.d)
    items = tuple((restrict_to(meet(sub, hw), hw), w) for sub, w in c.items)
    return WeightedConfiguration(h.dim, c.d, items)


def induced_quotient(c: WeightedConfiguration, h: Subspace) -> WeightedConfiguration:
    """Configuration of item images in (V/h) tensor W, in the chart that
    drops h's pivot coordinates."""
    if h.ambient_dim != c.n:
        raise DimensionMismatchError("h must live in Q^n")
    if h.is_full:
        raise ValueError("induced_quotient needs a proper h")
    hw = tensor_with_full_w(h, c.d)
    items = tuple((quotient_image(sub, hw), w) for sub, w in c.items)
    return WeightedConfiguration(c.n - h.dim, c.d, items)


def split_item(
    c: WeightedConfiguration, index: int, s, t
) -> WeightedConfiguration:
    """Replace item i of weight s+t by two copies with weights s and t."""
    s, t = parse_rational(s), parse_rational(t)
    sub, w = c.items[index]
    if s <= 0 or t <= 0:
        raise ValueError("split weights must be positive")
    if s + t != w:
        raise ValueError("split weights must sum to the original weight")
    items = (
        c.items[:index] + ((sub, s), (sub, t)) + c.items[index + 1 :]
    )
    return WeightedConfiguration(c.n, c.d, items)


def merge_items(c: WeightedConfiguration, i: int, j: int) -> WeightedConfiguration:
    """Combine two items carrying the same subspace into one, adding weights."""
    if i == j:
        raise ValueError("merge needs two distinct items")
    i, j = min(i, j), max(i, j)
    sub_i, w_i = c.items[i]
    sub_j, w_j = c.items[j]
    if sub_i != sub_j:
        raise ValueError("merge requires identical subspaces")
    items = list(c.items)
    items[i] = (sub_i, w_i + w_j)
    del items[j]
    return WeightedConfiguration(c.n, c.d, tuple(items))


def apply_gl(c: WeightedConfiguration, g: RationalMatrix) -> WeightedConfiguration:
    """Act by g on the V factor (g tensor identity on W)."""
    if g.rows != c.n or g.cols != c.n:
        raise DimensionMismatchError("g must be n x n")
    if g.rank() != c.n:
        raise ValueError("g must be invertible")
    items = tuple(
        (span(act_on_rows(g, sub.int_rows, c.d), c.n * c.d), w) for sub, w in c.items
    )
    return WeightedConfiguration(c.n, c.d, items)


def act_on_rows(
    g: RationalMatrix, rows: Sequence[Sequence[int]], d: int
) -> list[list[int]]:
    """g tensor identity applied to each V-major integer vector of Q^(n*d).

    g is first scaled to an integer matrix, so each result is a common
    positive multiple of the true image and spans the same subspace.
    """
    flat, _ = _integer_row(g.entries)
    n = g.cols
    gi = [flat[i * n : (i + 1) * n] for i in range(g.rows)]
    moved = []
    for v in rows:
        cols = [v[l::d] for l in range(d)]
        moved.append([sum(map(mul, row, col)) for row in gi for col in cols])
    return moved


def config_to_dict(c: WeightedConfiguration) -> dict:
    return {
        "n": c.n,
        "d": c.d,
        "items": [
            {"weight": format_rational(w), "basis": sub.basis_rows()}
            for sub, w in c.items
        ],
    }


def _parse_basis(data, ambient: int, path: str) -> Subspace:
    if not isinstance(data, list):
        raise ConfigSchemaError(f"{path}: basis must be a list of vectors")
    vectors = []
    for vi, vec in enumerate(data):
        if not isinstance(vec, list) or len(vec) != ambient:
            raise ConfigSchemaError(
                f"{path}[{vi}]: expected a vector of length {ambient}"
            )
        try:
            vectors.append([parse_rational(x) for x in vec])
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ConfigSchemaError(f"{path}[{vi}]: bad rational ({exc})") from exc
    return span(vectors, ambient)


def _is_count(value) -> bool:
    """A positive JSON integer; JSON true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def config_from_dict(data: dict) -> WeightedConfiguration:
    if not isinstance(data, dict):
        raise ConfigSchemaError("top level: expected an object")
    for key in ("n", "d", "items"):
        if key not in data:
            raise ConfigSchemaError(f"missing field: {key}")
    n, d = data["n"], data["d"]
    if not _is_count(n):
        raise ConfigSchemaError("n: must be a positive integer")
    if not _is_count(d):
        raise ConfigSchemaError("d: must be a positive integer")
    if n * d > MAX_AMBIENT:
        raise ConfigSchemaError(f"n*d: must be at most {MAX_AMBIENT}")
    raw_items = data["items"]
    if not isinstance(raw_items, list) or not raw_items:
        raise ConfigSchemaError("items: must be a non-empty list")
    items = []
    for idx, entry in enumerate(raw_items):
        path = f"items[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigSchemaError(f"{path}: expected an object")
        if "weight" not in entry or "basis" not in entry:
            raise ConfigSchemaError(f"{path}: needs weight and basis")
        try:
            w = parse_rational(entry["weight"])
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ConfigSchemaError(f"{path}.weight: bad rational ({exc})") from exc
        if w <= 0:
            raise ConfigSchemaError(f"{path}.weight: must be positive")
        sub = _parse_basis(entry["basis"], n * d, f"{path}.basis")
        items.append((sub, w))
    return WeightedConfiguration(n, d, tuple(items))


def subspace_from_lists(data, ambient: int, path: str = "subspace") -> Subspace:
    """Parse a basis given as a list of rational-string vectors."""
    return _parse_basis(data, ambient, path)


def zero_item(n: int, d: int) -> Subspace:
    return zero_subspace(n * d)
