"""Canonical filtrations of a configuration and filtration algebra.

The maximal-slope filtration (destabilizing tower) and the equal-slope
refinement of a semistable configuration are computed over the same
candidate lattice as the verdict engine, so their confidence caveats
match.  Also here: m-filtrations, their flattening to configurations,
and tensor products of filtration families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .config import (
    WeightedConfiguration,
    induced_quotient,
    induced_sub,
    intersection_dims,
    slope_at,
    slope_total,
)
from .linalg import (
    Subspace,
    complement_chart,
    full_subspace,
    join,
    lift_from_quotient,
    lift_into,
    meet,
    parse_rational,
    quotient_image,
    restrict_to,
    span,
    zero_subspace,
)
from .stability import (
    Confidence,
    Status,
    Verdict,
    candidate_subspaces,
    scan_margins,
)


@dataclass(frozen=True)
class Flag:
    """Strictly increasing chain of subspaces from 0 to the full space."""

    steps: tuple[Subspace, ...]

    def __post_init__(self):
        if len(self.steps) < 2:
            raise ValueError("flag needs at least 0 and V")
        if not self.steps[0].is_zero:
            raise ValueError("flag must start at 0")
        if not self.steps[-1].is_full:
            raise ValueError("flag must end at the full space")
        for prev, cur in zip(self.steps, self.steps[1:]):
            if prev.dim >= cur.dim or not cur.contains(prev):
                raise ValueError("flag steps must strictly increase")

    @property
    def length(self) -> int:
        return len(self.steps) - 1


@dataclass(frozen=True)
class GradedStep:
    config: WeightedConfiguration
    slope: Fraction
    verdict: Verdict


GradedReport = tuple[GradedStep, ...]


def _scan(
    c: WeightedConfiguration, depth: int, extra: Sequence[Subspace], seen: dict
) -> tuple[list[Subspace], Verdict, list[Subspace]]:
    """c's candidate lattice, with the verdict and equality witnesses of
    its margin scan.  seen keeps them per (configuration, extras) for the
    rest of one public call, so no lattice is built or scanned twice."""
    key = (c, tuple(extra))
    if key not in seen:
        cands = candidate_subspaces(c, depth, extra)
        seen[key] = (cands, *scan_margins(c, cands, depth))
    return seen[key]


def _graded_report(
    c: WeightedConfiguration, flag: Flag, depth: int, seen: dict
) -> GradedReport:
    out = []
    for prev, cur in zip(flag.steps, flag.steps[1:]):
        piece = induced_sub(c, cur)
        if not prev.is_zero:
            piece = induced_quotient(piece, restrict_to(prev, cur))
        out.append(
            GradedStep(
                config=piece,
                slope=slope_total(piece),
                verdict=_scan(piece, depth, (), seen)[1],
            )
        )
    return tuple(out)


def _map_extras_to_quotient(extra, v1: Subspace):
    mapped = []
    for e in extra:
        img = quotient_image(e, v1)
        if 0 < img.dim < e.ambient_dim - v1.dim:
            mapped.append(img)
    return tuple(mapped)


def _hn_steps(
    c: WeightedConfiguration, depth: int, extra: Sequence[Subspace], seen: dict
) -> list[Subspace]:
    """Proper nonzero flag steps in c's own coordinates, increasing."""
    cands, verdict, _ = _scan(c, depth, extra, seen)
    if verdict.is_semistable:
        return []
    # Candidates before the first violator have slope <= total, so the
    # slope maximizers all come at or after it.
    first = cands.index(verdict.certificate)
    best = verdict.certificate_slope
    maximizers = [verdict.certificate]
    for h in cands[first + 1 :]:
        s = slope_at(c, h)
        if s > best:
            best = s
            maximizers = [h]
        elif s == best:
            maximizers.append(h)
    v1 = maximizers[0]
    for h in maximizers[1:]:
        v1 = join(v1, h)
    if slope_at(c, v1) != best:
        raise AssertionError("join of maximizers stopped maximizing")
    if v1.is_full:
        raise AssertionError("maximal destabilizer cannot be the full space")
    quotient = induced_quotient(c, v1)
    sub_steps = _hn_steps(quotient, depth, _map_extras_to_quotient(extra, v1), seen)
    steps = [v1]
    for s in sub_steps:
        lifted = span(
            [lift_from_quotient(y, v1) for y in s.rows], c.n
        )
        steps.append(join(v1, lifted))
    return steps


def hn_filtration(
    c: WeightedConfiguration, depth: int = 3, extra: Sequence[Subspace] = ()
) -> tuple[Flag, GradedReport]:
    """Maximal-slope filtration: slopes of the gradeds strictly decrease.

    At each stage the join of all slope maximizers among the candidates is
    taken (maximizers are closed under join), then the quotient is
    processed.  Semistable input yields the trivial flag.
    """
    seen: dict = {}
    proper = _hn_steps(c, depth, extra, seen)
    flag = Flag(tuple([zero_subspace(c.n)] + proper + [full_subspace(c.n)]))
    return flag, _graded_report(c, flag, depth, seen)


class RefinementObstruction(ValueError):
    """Refinement discovered an exact violation missed at the outer depth."""

    def __init__(self, message: str, certificate: Optional[Subspace] = None):
        super().__init__(message)
        self.certificate = certificate


def _jh_steps(
    c: WeightedConfiguration, depth: int, extra: Sequence[Subspace], seen: dict
) -> list[Subspace]:
    """Proper nonzero steps (increasing) of one equal-slope refinement."""
    _, verdict, equalities = _scan(c, depth, extra, seen)
    if verdict.status == Status.UNSTABLE:
        raise RefinementObstruction(
            "violation found during refinement", certificate=verdict.certificate
        )
    if not equalities:
        return []
    head = max(equalities, key=lambda h: h.dim)  # first maximal-dim in order
    inner = _jh_steps(induced_sub(c, head), depth, _cut_extras(extra, head), seen)
    return [lift_into(s, head) for s in inner] + [head]


def jh_filtration(
    c: WeightedConfiguration, depth: int = 3, extra: Sequence[Subspace] = ()
) -> tuple[Flag, GradedReport]:
    """Equal-slope refinement of a semistable configuration.

    Repeatedly takes a maximal-dimension equality witness and recurses
    inside it; all gradeds are stable of slope equal to the total.  The
    output depends on the documented candidate ordering (the refinement is
    not unique).  Raises on Unstable input.
    """
    seen: dict = {}
    if _scan(c, depth, extra, seen)[1].status == Status.UNSTABLE:
        raise ValueError("input is Unstable; no equal-slope refinement exists")
    proper = _jh_steps(c, depth, extra, seen)
    flag = Flag(tuple([zero_subspace(c.n)] + proper + [full_subspace(c.n)]))
    return flag, _graded_report(c, flag, depth, seen)


def _split_summands(
    c: WeightedConfiguration, depth: int, extra: Sequence[Subspace], seen: dict
) -> tuple[Verdict, Optional[list[Subspace]]]:
    """c's exact verdict, and direct-sum pieces (in c's coordinates) with
    stable induced configs, or None when the verdict is Unstable or no
    decomposition is found in the candidate lattice."""
    cands, v, equalities = _scan(c, depth, extra, seen)
    if v.status == Status.UNSTABLE:
        return v, None
    if v.status == Status.STABLE:
        return v, [full_subspace(c.n)]
    for head in sorted(equalities, key=lambda h: -h.dim):
        want = c.n - head.dim
        # The coordinate chart transverse to head is always a legitimate
        # complement even when the lattice closure never produced it.
        comps = list(cands) + [complement_chart(head)]
        for comp in comps:
            if comp.dim != want or meet(head, comp).dim != 0:
                continue
            in_head = intersection_dims(c, head)
            in_comp = intersection_dims(c, comp)
            if any(
                a + b != sub.dim
                for (sub, _), a, b in zip(c.items, in_head, in_comp)
            ):
                continue
            _, left = _split_summands(
                induced_sub(c, head), depth, _cut_extras(extra, head), seen
            )
            if left is None:
                continue
            _, right = _split_summands(
                induced_sub(c, comp), depth, _cut_extras(extra, comp), seen
            )
            if right is None:
                continue
            return v, [lift_into(s, head) for s in left] + [
                lift_into(s, comp) for s in right
            ]
    return v, None


def _cut_extras(extra: Sequence[Subspace], outer: Subspace):
    out = []
    for e in extra:
        cut = meet(e, outer)
        if 0 < cut.dim < outer.dim:
            out.append(restrict_to(cut, outer))
    return tuple(out)


def polystable_split(
    c: WeightedConfiguration, depth: int = 3, extra: Sequence[Subspace] = ()
) -> Verdict:
    """Attempt to write V as a direct sum splitting every item, with all
    induced summand configurations stable of the same slope.

    Success upgrades the verdict to Polystable with the summand list;
    otherwise the exact decide verdict is returned unchanged (for a
    strictly semistable input its certificate is an equality witness and
    the full refinement is available from jh_filtration).
    """
    v, summands = _split_summands(c, depth, extra, {})
    if summands is None:
        return v
    for s in summands:
        piece = induced_sub(c, s)
        if slope_total(piece) != v.slope:
            raise AssertionError("summand slope drifted from the total")
    return Verdict(
        status=Status.POLYSTABLE,
        confidence=Confidence.EXACT_WITHIN_DEPTH,
        summands=tuple(summands),
        slope=v.slope,
        candidate_digest=v.candidate_digest,
        depth=depth,
    )


@dataclass(frozen=True)
class MFiltration:
    """Family of weakly decreasing weighted chains in Q^n.

    Each filtration is a tuple of (step, weight) pairs with every step
    contained in the previous one; the ambient space and 0 bracket the
    chain implicitly.  Trivial filtrations are empty tuples.
    """

    n: int
    filtrations: tuple[tuple[tuple[Subspace, Fraction], ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for s, chain in enumerate(self.filtrations):
            prev: Optional[Subspace] = None
            for j, (sub, w) in enumerate(chain):
                if sub.ambient_dim != self.n:
                    raise ValueError(f"filtration {s} step {j}: wrong ambient")
                if w <= 0:
                    raise ValueError(f"filtration {s} step {j}: weight must be > 0")
                if prev is not None and not prev.contains(sub):
                    raise ValueError(f"filtration {s}: steps must decrease")
                prev = sub

    @property
    def m(self) -> int:
        return len(self.filtrations)


def mfiltration(n: int, chains) -> MFiltration:
    packed = tuple(
        tuple((sub, parse_rational(w)) for sub, w in chain) for chain in chains
    )
    return MFiltration(n, packed)


def mfiltration_to_config(f: MFiltration) -> WeightedConfiguration:
    """Flatten every nonzero proper step into one weighted configuration.

    Duplicate steps are kept as separate items; merging them is a verdict-
    preserving operation, so either form decides identically.
    """
    items = []
    for chain in f.filtrations:
        for sub, w in chain:
            if 0 < sub.dim < f.n:
                items.append((sub, w))
    return WeightedConfiguration(f.n, 1, tuple(items))


def _kron_subspace(a: Subspace, b: Subspace) -> Subspace:
    q = b.ambient_dim
    if a.is_zero or b.is_zero:
        return zero_subspace(a.ambient_dim * q)
    vectors = []
    for u in a.rows:
        for v in b.rows:
            vec = [Fraction(0)] * (a.ambient_dim * q)
            for i, ux in enumerate(u):
                if ux:
                    for jj, vx in enumerate(v):
                        if vx:
                            vec[i * q + jj] = ux * vx
            vectors.append(vec)
    return span(vectors, a.ambient_dim * q)


def _unit_chain(n: int, chain, scale: int) -> list[Subspace]:
    """Full to zero, each step repeated (weight * scale) times."""
    out = [full_subspace(n)]
    for sub, w in chain:
        reps = w * scale
        if reps.denominator != 1:
            raise AssertionError("weight scaling failed to clear denominators")
        out.extend([sub] * int(reps))
    out.append(zero_subspace(n))
    return out


def tensor_filtrations(a: MFiltration, b: MFiltration) -> MFiltration:
    """Convolution of chains: level l of the product is the join over
    p + q = l of the Kronecker products of levels p and q.

    Rational weights are jointly scaled to integers first (unit-step
    expansion), and output multiplicities are scaled back, so the result
    is invariant under common rescaling of the inputs.
    """
    if a.m != b.m:
        raise ValueError("filtration families must have the same m")
    denoms = [
        w.denominator
        for f in (a, b)
        for chain in f.filtrations
        for _, w in chain
    ]
    scale = math.lcm(*denoms) if denoms else 1
    big_n = a.n * b.n
    out_chains = []
    for chain_a, chain_b in zip(a.filtrations, b.filtrations):
        ca = _unit_chain(a.n, chain_a, scale)
        cb = _unit_chain(b.n, chain_b, scale)
        p_max, q_max = len(ca) - 1, len(cb) - 1
        levels = []
        for l in range(1, p_max + q_max):
            acc = zero_subspace(big_n)
            for p in range(max(0, l - q_max), min(p_max, l) + 1):
                acc = join(acc, _kron_subspace(ca[p], cb[l - p]))
            levels.append(acc)
        steps: list[tuple[Subspace, Fraction]] = []
        for sub in levels:
            if sub.is_zero:
                continue
            if steps and steps[-1][0] == sub:
                steps[-1] = (sub, steps[-1][1] + Fraction(1, scale))
            else:
                steps.append((sub, Fraction(1, scale)))
        out_chains.append(tuple(steps))
    return MFiltration(big_n, tuple(out_chains))
