"""Effective-weight region tests and empirical probes.

The admissible weight region for configurations of fixed item dimensions
k_i in Q^n normalizes to x_i = n*w_i / sum(k_j*w_j); the region is cut out
by 0 <= x_i <= 1 with sum(k_i*x_i) = n holding identically.  The inequality
x_i <= 1 is a proven consequence of semistability, so any semistable sample
with max x_i > 1 is a hard internal error, never a data point.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .config import WeightedConfiguration, slope_total
from .linalg import Subspace, meet, parse_rational, span
from .stability import (
    InternalSoundnessError,
    Status,
    Verdict,
    decide,
    mu_lambda_s,
)


@dataclass(frozen=True)
class ConeSpec:
    n: int
    k: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.k or any(x < 1 for x in self.k):
            raise ValueError("every k_i must be >= 1")

    @property
    def m(self) -> int:
        return len(self.k)


class Region(str, enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class MembershipReport:
    region: Region
    x: tuple[Fraction, ...]


def hypersimplex_membership(spec: ConeSpec, weights: Sequence) -> MembershipReport:
    """Exact normalized coordinates and which side of the region they land on."""
    ws = [parse_rational(w) for w in weights]
    if len(ws) != spec.m:
        raise ValueError("one weight per k entry required")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    denom = sum((k * w for k, w in zip(spec.k, ws)), Fraction(0))
    x = tuple(spec.n * w / denom for w in ws)
    top = max(x)
    if top < 1:
        region = Region.INTERIOR
    elif top == 1:
        region = Region.BOUNDARY
    else:
        region = Region.OUTSIDE
    return MembershipReport(region=region, x=x)


@dataclass(frozen=True)
class NecessaryDirectionReport:
    verdict: Verdict
    margins: tuple[Optional[Fraction], ...]
    membership: Optional[MembershipReport]


def necessary_direction_check(
    c: WeightedConfiguration, depth: int = 3
) -> NecessaryDirectionReport:
    """Check the proven inequality w_i <= slope_total on semistable input.

    Margins are slope_total - w_i per nonzero item (a nonzero item's own
    span witnesses slope_at >= w_i).  A semistable verdict together with a
    negative margin is impossible; hitting that combination raises, it is
    never reported as data.
    """
    if c.d != 1:
        raise ValueError("defined for d = 1 configurations")
    verdict = decide(c, depth)
    total = slope_total(c)
    margins = tuple(
        (total - w) if sub.dim > 0 else None for sub, w in c.items
    )
    membership = None
    if all(sub.dim > 0 for sub, _ in c.items):
        spec = ConeSpec(c.n, tuple(sub.dim for sub, _ in c.items))
        membership = hypersimplex_membership(spec, [w for _, w in c.items])
    if verdict.is_semistable:
        for idx, margin in enumerate(margins):
            if margin is not None and margin < 0:
                raise InternalSoundnessError(
                    f"semistable verdict with negative margin at item {idx}"
                )
    return NecessaryDirectionReport(
        verdict=verdict, margins=margins, membership=membership
    )


@dataclass(frozen=True)
class ProbeReport:
    spec: ConeSpec
    weights: tuple[Fraction, ...]
    membership: MembershipReport
    trials: int
    seed: int
    counts: dict
    fraction_semistable: float
    fraction_stable: float


def _random_item(rng: random.Random, n: int, k: int) -> Subspace:
    while True:
        vectors = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        sub = span(vectors, n)
        if sub.dim == k:
            return sub


def sample_configuration(
    spec: ConeSpec, weights: Sequence, rng: random.Random
) -> WeightedConfiguration:
    ws = [parse_rational(w) for w in weights]
    items = tuple(
        (_random_item(rng, spec.n, k), w) for k, w in zip(spec.k, ws)
    )
    return WeightedConfiguration(spec.n, 1, items)


def probe_trial(
    spec: ConeSpec, weights: Sequence, seed: int, index: int, depth: int = 3
) -> Status:
    rng = random.Random(f"{seed}:{index}")
    c = sample_configuration(spec, weights, rng)
    return decide(c, depth).status


def conjecture_probe(
    spec: ConeSpec,
    weights: Sequence,
    trials: int,
    seed: int = 0,
    depth: int = 3,
) -> ProbeReport:
    """Sample random configurations of the given shape and tally verdicts.

    Evidence only: the sufficiency direction is never asserted.  Trials are
    independently seeded.  A semistable sample with weights outside the
    region raises.
    """
    if spec.n >= sum(spec.k):
        raise ValueError("requires n < sum k_i")
    ws = tuple(parse_rational(w) for w in weights)
    membership = hypersimplex_membership(spec, ws)
    statuses = [probe_trial(spec, ws, seed, t, depth) for t in range(trials)]
    counts = {status.value: 0 for status in Status}
    for s in statuses:
        counts[s.value] += 1
    semi = sum(
        1 for s in statuses if s != Status.UNSTABLE
    )
    stable = counts[Status.STABLE.value]
    if semi and membership.region == Region.OUTSIDE:
        raise InternalSoundnessError(
            "semistable sample with weights outside the admissible region"
        )
    return ProbeReport(
        spec=spec,
        weights=ws,
        membership=membership,
        trials=trials,
        seed=seed,
        counts=counts,
        fraction_semistable=semi / trials if trials else 0.0,
        fraction_stable=stable / trials if trials else 0.0,
    )


def foth_fixed_plane() -> Subspace:
    one, zero = Fraction(1), Fraction(0)
    return span([[one, zero, zero, zero], [zero, one, zero, zero]], 4)


def foth_witness(m: int, weights: Sequence) -> WeightedConfiguration:
    """Pairwise-transverse planes in Q^4 all meeting one fixed plane in
    distinct lines; strictly semistable for every admissible weight vector.

    Item i is span(e1 + t_i e2, e3 + t_i e4) with t_i = i - 1; the fixed
    plane is span(e1, e2).  The constructor re-checks its own claim: the
    verdict (with the fixed plane offered as an extra candidate) must be
    StrictlySemistable and the fixed plane must achieve equality exactly.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    ws = [parse_rational(w) for w in weights]
    if len(ws) != m:
        raise ValueError("one weight per plane required")
    membership = hypersimplex_membership(ConeSpec(4, tuple([2] * m)), ws)
    if membership.region == Region.OUTSIDE:
        raise ValueError("weights outside the admissible region")
    one, zero = Fraction(1), Fraction(0)
    items = []
    for i in range(m):
        t = Fraction(i)
        items.append(
            (
                span(
                    [[one, t, zero, zero], [zero, zero, one, t]],
                    4,
                ),
                ws[i],
            )
        )
    c = WeightedConfiguration(4, 1, tuple(items))
    fixed = foth_fixed_plane()
    verdict = decide(c, extra=[fixed])
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        raise AssertionError(
            f"witness construction failed: verdict {verdict.status}"
        )
    if mu_lambda_s(c, fixed) != 0:
        raise AssertionError("fixed plane is not an equality witness")
    for i in range(m):
        for j in range(i + 1, m):
            if meet(items[i][0], items[j][0]).dim != 0:
                raise AssertionError("planes are not pairwise transverse")
        if meet(items[i][0], fixed).dim != 1:
            raise AssertionError("plane does not meet the fixed plane in a line")
    return c
