"""Exact checks on gitstab outputs that share no code with gitstab.linalg.

Everything here rests on one routine, ``rank``: forward Gaussian elimination
over ``Fraction`` without back-substitution, a different algorithm from the
reduced echelon form the package uses.  Dimensions of intersections come
from dim A + dim B - dim(A + B), so a bug in the package's kernel cannot
hide itself by also being the referee.

Subspaces are plain lists of spanning rows (Fractions); configurations are
the parsed form of the JSON files the benchmark writes.
"""

from __future__ import annotations

from fractions import Fraction


def rank(rows) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    r = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col]
            if f:
                q = f / top[col]
                m[i] = [a - q * b for a, b in zip(m[i], top)]
        r += 1
        if r == len(m):
            break
    return r


def meet_dim(a, b) -> int:
    return rank(a) + rank(b) - rank(list(a) + list(b))


def same_space(a, b) -> bool:
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(list(a) + list(b))


def contains(outer, inner) -> bool:
    return rank(list(outer) + list(inner)) == rank(outer)


def rows_of(basis) -> list[list[Fraction]]:
    """JSON basis (rational strings or ints) to Fraction rows."""
    return [[Fraction(x) for x in row] for row in (basis or [])]


def tensor_w(h, n: int, d: int):
    """Rows spanning h tensor W in Q^(n*d), V-major coordinates."""
    if d == 1:
        return [list(u) for u in h]
    zero = Fraction(0)
    out = []
    for u in h:
        for l in range(d):
            row = [zero] * (n * d)
            for i, x in enumerate(u):
                row[i * d + l] = x
            out.append(row)
    return out


def act(g, rows, n: int, d: int):
    """g (n x n) acting on the V factor of vectors in Q^(n*d)."""
    out = []
    for v in rows:
        w = [Fraction(0)] * (n * d)
        for i in range(n):
            for l in range(d):
                w[i * d + l] = sum(
                    (g[i][j] * v[j * d + l] for j in range(n)), Fraction(0)
                )
        out.append(w)
    return out


class Config:
    """Parsed configuration: n, d, [(rows, weight)] and each item's dim."""

    def __init__(self, data: dict):
        self.n = data["n"]
        self.d = data["d"]
        self.items = [
            (rows_of(it["basis"]), Fraction(it["weight"])) for it in data["items"]
        ]
        self.dims = [rank(rows) for rows, _ in self.items]

    def weighted_dim(self) -> Fraction:
        return sum((w * k for (_, w), k in zip(self.items, self.dims)), Fraction(0))

    def slope(self) -> Fraction:
        return self.weighted_dim() / self.n

    def inner(self, h) -> Fraction:
        """sum w_i dim(K_i meet (h tensor W))."""
        hw = tensor_w(h, self.n, self.d)
        rhw = rank(hw)
        total = Fraction(0)
        for (rows, w), k in zip(self.items, self.dims):
            total += w * (k + rhw - rank(rows + hw))
        return total

    def mu(self, h) -> Fraction:
        return self.n * self.inner(h) - rank(h) * self.weighted_dim()

    def graded_slopes(self, steps) -> list[Fraction]:
        inners = [self.inner(s) if s else Fraction(0) for s in steps]
        dims = [rank(s) for s in steps]
        return [
            (inners[j] - inners[j - 1]) / (dims[j] - dims[j - 1])
            for j in range(1, len(steps))
        ]

    def max_normalized_weight(self) -> Fraction:
        """max x_i with x_i = n w_i / sum_j k_j w_j (semistable forces <= 1)."""
        total = self.weighted_dim()
        return max(self.n * w / total for _, w in self.items)


SEMISTABLE = ("StrictlySemistable", "Stable", "Polystable")


def check_verdict(c: Config, v: dict) -> list[str]:
    """Failed check kinds for one verdict record (the CLI ``result``)."""
    bad = []
    status = v["status"]
    if status == "Unstable":
        h = rows_of(v["certificate"])
        mu = c.mu(h) if h else Fraction(0)
        if not (0 < rank(h) < c.n) or mu <= 0 or Fraction(v["mu"]) != mu:
            bad.append("unstable_certificate")
    elif status == "StrictlySemistable":
        h = rows_of(v["certificate"])
        if not (0 < rank(h) < c.n) or c.mu(h) != 0:
            bad.append("equality_certificate")
    if status in SEMISTABLE:
        if c.d == 1 and all(c.dims) and c.max_normalized_weight() > 1:
            bad.append("normalized_weight")
    if v["slope"] is not None and Fraction(v["slope"]) != c.slope():
        bad.append("total_slope")
    return bad


def check_flag(c: Config, flag: list, slopes: list) -> list[str]:
    """Flag runs 0 < ... < V strictly nested; reported slopes match ours."""
    steps = [rows_of(s) for s in flag]
    dims = [rank(s) for s in steps]
    if dims[0] != 0 or dims[-1] != c.n:
        return ["flag_nested"]
    for a, b, da, db in zip(steps, steps[1:], dims, dims[1:]):
        if da >= db or (a and not contains(b, a)):
            return ["flag_nested"]
    if [Fraction(s) for s in slopes] != c.graded_slopes(steps):
        return ["graded_slope"]
    return []


def check_hn(c: Config, out: dict) -> list[str]:
    bad = check_flag(c, out["flag"], out["slopes"])
    slopes = [Fraction(s) for s in out["slopes"]]
    if any(a <= b for a, b in zip(slopes, slopes[1:])):
        bad.append("hn_slopes_decrease")
    if any(g["status"] not in SEMISTABLE for g in out["graded"]):
        bad.append("hn_graded_semistable")
    return bad


def check_transport(c: Config, g, flag: list, moved_flag: list) -> list[str]:
    if len(flag) != len(moved_flag):
        return ["hn_transport"]
    for s, t in zip(flag, moved_flag):
        moved = act(g, rows_of(s), c.n, 1)
        if not same_space(moved, rows_of(t)):
            return ["hn_transport"]
    return []


def check_jh(c: Config, out: dict) -> list[str]:
    bad = check_flag(c, out["flag"], out["slopes"])
    total = c.slope()
    if any(Fraction(s) != total for s in out["slopes"]):
        bad.append("jh_slope")
    if any(g["status"] != "Stable" for g in out["graded"]):
        bad.append("jh_graded_stable")
    return bad


def check_split(c: Config, summands: list) -> list[str]:
    """Summands form a direct sum of V that splits every item, each piece
    carrying the total slope."""
    parts = [rows_of(s) for s in summands]
    dims = [rank(p) for p in parts]
    if sum(dims) != c.n or rank([r for p in parts for r in p]) != c.n:
        return ["split_direct_sum"]
    for (rows, _), k in zip(c.items, c.dims):
        pieces = sum(meet_dim(rows, tensor_w(p, c.n, c.d)) for p in parts)
        if pieces != k:
            return ["split_items"]
    total = c.slope()
    if any(c.inner(p) / k != total for p, k in zip(parts, dims)):
        return ["split_slope"]
    return []
