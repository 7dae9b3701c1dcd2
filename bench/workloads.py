"""Seeded input generators for the three benchmark workloads.

A workload is an endless stream of rounds; a round is a fixed list of input
classes, each drawn fresh from the seeded generator.  Runs consume whole
rounds, so the class mix of every run is the same whatever its length.
Every input is written as the JSON the CLI reads; the extra keys on an op
(``expect``, ``g``) are what the oracle needs to check the output.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import rank, tensor_w

# Classes per round and how many of each.  The shares are part of the
# benchmark's definition: change them and the numbers are not comparable.
# They are chosen so that the median and p90 of op latency fall inside a
# class with many samples, not in the gap between two classes, where they
# would jump from seed to seed.
ROUNDS = {
    # generic configurations with large lattices, the d = 2 closure branch,
    # semistable tensor products and the transverse-plane families
    "lattice-scan": [
        ("lines3_m5", 2),
        ("lines3_m6", 1),
        ("lines4_m6", 1),
        ("planes5_m4", 1),
        ("mixed4", 1),
        ("tensor6", 1),
        ("tensor9", 1),
        ("d2", 5),
        ("transverse3", 3),
        ("transverse4", 3),
        ("foth", 4),
    ],
    # nested/coincident items give 2-5 step HN towers; three ops in ten are
    # direct sums of stable blocks, so jh and split have work to do
    "filtration-tower": [
        ("nested", 7),
        ("blocks3", 1),
        ("blocks4", 2),
    ],
    # solver outcomes: Balanced (stable lines), Diverged (a violator the
    # depth-1 lattice misses; hints rationalized and re-verified) and
    # MaxIter (semistable, does not split)
    "numeric-check": [
        ("balanced2", 7),
        ("balanced3", 6),
        ("hidden_violator", 4),
        ("balanced4", 2),
        ("semistable_nonsplit", 1),
    ],
}


def _vec(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-9, 9) for _ in range(n)]


def rand_rows(rng: random.Random, n: int, dim: int) -> list[list[int]]:
    """dim independent integer rows in Q^n."""
    while True:
        rows = [_vec(rng, n) for _ in range(dim)]
        if rank([[Fraction(x) for x in r] for r in rows]) == dim:
            return rows


def rand_invertible(rng: random.Random, n: int) -> list[list[int]]:
    return rand_rows(rng, n, n)


def _mul_rows(rows, g) -> list[list[int]]:
    """Each row v replaced by g v (g acting on column vectors, d = 1)."""
    n = len(g)
    return [[sum(g[i][j] * v[j] for j in range(n)) for i in range(n)] for v in rows]


def _combine(rows, coeffs):
    """Integer rows of coeffs @ rows."""
    return [
        [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(len(rows[0]))]
        for cs in coeffs
    ]


def config(n: int, d: int, items) -> dict:
    return {
        "n": n,
        "d": d,
        "items": [
            {"weight": str(w), "basis": [[str(x) for x in row] for row in rows]}
            for rows, w in items
        ],
    }


def _interior(rng: random.Random, n: int, dims):
    """Weights with every normalized weight n w_i / sum k_j w_j below 1."""
    while True:
        ws = [rng.randint(1, 9) for _ in dims]
        total = sum(k * w for k, w in zip(dims, ws))
        if all(n * w < total for w in ws):
            return ws


def _generic(rng, n, dims, weights=None):
    ws = weights or [rng.randint(1, 9) for _ in dims]
    return config(n, 1, [(rand_rows(rng, n, k), w) for k, w in zip(dims, ws)])


def _transverse_planes(rng: random.Random, m: int):
    planes: list = []
    while len(planes) < m:
        cand = rand_rows(rng, 4, 2)
        if all(rank([[Fraction(x) for x in r] for r in cand + p]) == 4 for p in planes):
            planes.append(cand)
    return planes


# Filtration families (n, chains), each chain a list of (dim, weight) steps
# from larger to smaller: generic positions make every one semistable.  The
# shapes are fixed because the cost of a product grows steeply with its item
# count (a 3 x 3 product with 10 items takes 6-10 s, as long as a round).
TWO_LINES = (2, [[(1, 1)], [(1, 1)]])
FLAGS = (3, [[(2, 1), (1, 2)], [(2, 2), (1, 1)]])
LINE_PLANE = (3, [[(1, 1)], [(2, 1)]])
LINE_PLANE_2 = (3, [[(1, 2)], [(2, 2)]])
TENSOR_SHAPES = {
    "tensor6": (TWO_LINES, FLAGS),  # Q^6, 8 items
    "tensor9": (LINE_PLANE, LINE_PLANE_2),  # Q^9, 6 items
}


def _tensor_input(rng: random.Random, shape_a, shape_b) -> dict:
    """Flattened tensor product of two semistable filtration families, the
    generator of acceptance criterion 10 with fixed chain shapes."""
    from gitstab.config import config_to_dict
    from gitstab.filtration import (
        mfiltration,
        mfiltration_to_config,
        tensor_filtrations,
    )
    from gitstab.linalg import span
    from gitstab.stability import decide

    def chain(n, steps):
        out, outer = [], None
        for k, w in steps:
            rows = rand_rows(rng, n, k) if outer is None else _combine(
                outer, rand_rows(rng, len(outer), k)
            )
            out.append((span(rows, n), Fraction(w)))
            outer = rows
        return out

    def family(shape):
        n, chains = shape
        while True:
            f = mfiltration(n, [chain(n, steps) for steps in chains])
            if decide(mfiltration_to_config(f)).is_semistable:
                return f

    flat = mfiltration_to_config(tensor_filtrations(family(shape_a), family(shape_b)))
    return config_to_dict(flat)


def _nested(rng: random.Random) -> dict:
    """Items drawn from one random full flag, some repeated, plus one
    generic item: HN towers of several steps."""
    n = rng.randint(3, 5)
    basis = rand_invertible(rng, n)
    items = []
    for _ in range(rng.randint(3, 4)):
        if items and rng.random() < 0.25:
            rows, _ = rng.choice(items)
        else:
            rows = basis[: rng.randint(1, n - 1)]
        items.append((rows, rng.randint(1, 9)))
    items.append((rand_rows(rng, n, rng.randint(1, n - 1)), rng.randint(1, 3)))
    return config(n, 1, items)


def _general_position(rng: random.Random, k: int) -> list[list[int]]:
    """k + 1 vectors in Q^k, any k of them a basis (two equal lines if k = 1)."""
    if k == 1:
        return [[1], [1]]
    while True:
        vs = [_vec(rng, k) for _ in range(k + 1)]
        if all(
            rank([[Fraction(x) for x in v] for j, v in enumerate(vs) if j != skip]) == k
            for skip in range(k + 1)
        ):
            return vs


def _blocks(rng: random.Random, n: int) -> dict:
    """Direct sum of two stable blocks of equal slope in Q^n (n = 3 or 4),
    in a random basis.  Q^4 is always split 2 + 2: 1 + 3 costs differently,
    and a two-valued cost would put the p90 of filtration-tower between
    the two.

    A block of dim k carries k + 1 generic lines of equal weight, which is
    stable with slope (k + 1) w / k; the weights make both slopes equal.
    """
    ka, kb = rng.choice([(1, 2), (2, 1)]) if n == 3 else (2, 2)
    n = ka + kb
    g = rand_invertible(rng, n)
    items = []
    for lo, k, w in ((0, ka, ka * (kb + 1)), (ka, kb, kb * (ka + 1))):
        for coords in _general_position(rng, k):
            v = [0] * n
            v[lo : lo + k] = coords
            items.append((_mul_rows([v], g), w))
    rng.shuffle(items)
    return config(n, 1, items)


def _d2(rng: random.Random) -> dict:
    """n = 3, d = 2 items, each inside h tensor W for a random proper h, so
    the item V-supports seed a lattice that the supp_v round grows."""
    n, d = 3, 2
    items = []
    for _ in range(4):
        hw = tensor_w(rand_rows(rng, n, rng.randint(1, 2)), n, d)
        k = rng.randint(1, len(hw))
        items.append((_combine(hw, rand_rows(rng, len(hw), k)), rng.randint(1, 9)))
    return config(n, d, items)


# generic classes: (n, item dims)
GENERIC = {
    "lines3_m5": (3, [1] * 5),
    "lines3_m6": (3, [1] * 6),
    "lines4_m6": (4, [1] * 6),
    "planes5_m4": (5, [2] * 4),
}


def make_op(kind: str, rng: random.Random) -> dict:
    """One op: its input config and what the checks need to know."""
    op: dict = {"kind": kind, "extra": None, "g": None, "expect": (), "depth": 3}
    if kind in GENERIC:
        # equal weights: generic and interior, so the verdict is Stable and
        # the scan visits the whole lattice; random weights would make half
        # the inputs stop at an early violator and the cost bimodal
        n, dims = GENERIC[kind]
        op["config"] = _generic(rng, n, dims, [rng.randint(1, 9)] * len(dims))
    elif kind == "mixed4":
        op["config"] = _generic(rng, 4, [1, 1, 2, 2, 3])
    elif kind in TENSOR_SHAPES:
        op["config"] = _tensor_input(rng, *TENSOR_SHAPES[kind])
        op["expect"] = ("semistable",)
    elif kind == "d2":
        op["config"] = _d2(rng)
    elif kind in ("transverse3", "transverse4"):
        m = 3 if kind == "transverse3" else 4
        planes = _transverse_planes(rng, m)
        ws = _interior(rng, 4, [2] * m)
        op["config"] = config(4, 1, list(zip(planes, ws)))
        op["expect"] = ("semistable", "not_stable")
    elif kind == "foth":
        # Foth's family: planes span(e1 + t e2, e3 + t e4), distinct t, all
        # meeting span(e1, e2) in a line; moved by a random g, with the
        # moved fixed plane offered through --extra-h.
        m = 4
        ts = rng.sample(range(-6, 7), m)
        g = rand_invertible(rng, 4)
        planes = [_mul_rows([[1, t, 0, 0], [0, 0, 1, t]], g) for t in ts]
        ws = _interior(rng, 4, [2] * m)
        op["config"] = config(4, 1, list(zip(planes, ws)))
        op["extra"] = [_mul_rows([[1, 0, 0, 0], [0, 1, 0, 0]], g)]
        op["expect"] = ("semistable", "not_stable")
    elif kind == "nested":
        op["config"] = _nested(rng)
        op["g"] = rand_invertible(rng, op["config"]["n"])
    elif kind in ("blocks3", "blocks4"):
        op["config"] = _blocks(rng, int(kind[-1]))
        op["g"] = rand_invertible(rng, op["config"]["n"])
        op["expect"] = ("semistable",)
    elif kind in ("balanced2", "balanced3", "balanced4"):
        # n + 1 lines in general position with equal weights: stable, so
        # the descent reaches a zero of the moment map
        n = int(kind[-1])
        w = rng.randint(1, 9)
        op["config"] = config(n, 1, [([v], w) for v in _general_position(rng, n)])
    elif kind == "hidden_violator":
        # three lines a, b, c, a 3-space and a plane in generic position:
        # a + b + c violates (mu = 4 * 39 - 3 * 49 = 9) but is a join of
        # depth 2, so the depth-1 scan misses it and the descent diverges
        op["config"] = _generic(rng, 4, [1, 1, 1, 3, 2], [5, 8, 8, 8, 2])
        op["depth"] = 1
    elif kind == "semistable_nonsplit":
        # L1 of weight 2 and two other lines of weight 1 in Q^2: L1 is an
        # equality witness with no complement splitting both other lines,
        # so the moment map has no zero and the descent never settles
        lines = []
        while len(lines) < 3:
            v = _vec(rng, 2)
            if any(v) and all(v[0] * u[1] != v[1] * u[0] for u in lines):
                lines.append(v)
        op["config"] = config(2, 1, [([lines[0]], 2), ([lines[1]], 1), ([lines[2]], 1)])
        op["expect"] = ("semistable", "not_stable")
    else:
        raise ValueError(f"unknown input class {kind}")
    return op


def rounds(workload: str, seed: int):
    """Endless generator of rounds (lists of ops) for a workload."""
    plan = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield [make_op(kind, rng) for kind, count in plan for _ in range(count)]
