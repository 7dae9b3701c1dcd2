"""Canonical filtrations of a configuration and filtration algebra.

The maximal-slope filtration (destabilizing tower) and the equal-slope
refinement of a semistable configuration are computed over the same
candidate lattice as the verdict engine, so their confidence caveats
match.  Also here: m-filtrations, their flattening to configurations,
and tensor products of filtration families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .config import (
    MAX_AMBIENT,
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
    kron,
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
        in_head = intersection_dims(c, head)
        for comp in comps:
            if comp.dim != want or meet(head, comp).dim != 0:
                continue
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


def _breakpoints(n: int, chain) -> list[tuple[Fraction, Subspace]]:
    """(cumulative weight, step) pairs, led by (0, full space)."""
    out = [(Fraction(0), full_subspace(n))]
    for sub, w in chain:
        out.append((out[-1][0] + w, sub))
    return out


def tensor_filtrations(a: MFiltration, b: MFiltration) -> MFiltration:
    """Convolution of chains, evaluated at the weight breakpoints.

    With steps A_i at cumulative weights alpha_i in one chain and B_j at
    beta_j in the other, the chains decreasing, the product level at t > 0
    is the join of A_i (x) B_j over the pairs with alpha_i + beta_j >= t.
    So each distinct positive sum gives one level, weighted by its gap to
    the next smaller sum; zero levels are dropped and equal neighbours
    merged.  The cost is one kron and one join per pair of breakpoints,
    whatever the weights.
    """
    if a.m != b.m:
        raise ValueError("filtration families must have the same m")
    big_n = a.n * b.n
    if big_n > MAX_AMBIENT:
        raise ValueError(f"n: the product dimension must be at most {MAX_AMBIENT}")
    out_chains = []
    for chain_a, chain_b in zip(a.filtrations, b.filtrations):
        pairs = sorted(
            (
                (alpha + beta, sub_a, sub_b)
                for alpha, sub_a in _breakpoints(a.n, chain_a)
                for beta, sub_b in _breakpoints(b.n, chain_b)
            ),
            key=lambda pair: -pair[0],
        )
        # level at each sum, built from the largest sum down
        levels: dict[Fraction, Subspace] = {}
        acc = zero_subspace(big_n)
        for total, sub_a, sub_b in pairs:
            acc = levels[total] = join(acc, kron(sub_a, sub_b))
        steps: list[tuple[Subspace, Fraction]] = []
        sums = sorted(levels)
        for below, total in zip(sums, sums[1:]):
            sub, w = levels[total], total - below
            if sub.is_zero:
                continue
            if steps and steps[-1][0] == sub:
                steps[-1] = (sub, steps[-1][1] + w)
            else:
                steps.append((sub, w))
        out_chains.append(tuple(steps))
    return MFiltration(big_n, tuple(out_chains))
