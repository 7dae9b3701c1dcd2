"""Built-in reference suite of hand-derived cases with exact expectations.

Every expectation here was computed by hand from the slope definitions;
the suite is the regression anchor for the verdict engine, filtrations,
the numeric solver, and the weight-region tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .balance import SolveStatus, balance_solve
from .cone import ConeSpec, Region, foth_witness, hypersimplex_membership
from .config import WeightedConfiguration, configuration
from .filtration import hn_filtration, jh_filtration, polystable_split
from .linalg import Subspace, full_subspace, span
from .stability import (
    Status,
    decide,
    exactify_destabilizer,
    mu_lambda_s,
)


def _sub(n: int, *vectors) -> Subspace:
    return span([[Fraction(x) for x in v] for v in vectors], n)


def _f(x, y=1) -> Fraction:
    return Fraction(x, y)


@dataclass(frozen=True)
class Expected:
    status: Status
    certificate: Optional[Subspace] = None
    hn_slopes: Optional[tuple] = None
    jh_slopes: Optional[tuple] = None
    split_status: Optional[Status] = None
    summands: Optional[int] = None
    balance: Optional[SolveStatus] = None
    region: Optional[Region] = None


@dataclass(frozen=True)
class CorpusCase:
    name: str
    config: WeightedConfiguration
    expected: Expected
    extra: tuple = ()


@dataclass(frozen=True)
class CaseReport:
    name: str
    passed: bool
    failures: tuple = field(default_factory=tuple)


def all_cases() -> tuple[CorpusCase, ...]:
    e1_2 = _sub(2, [1, 0])
    e2_2 = _sub(2, [0, 1])
    diag_2 = _sub(2, [1, 1])
    e1_3 = _sub(3, [1, 0, 0])
    e2_3 = _sub(3, [0, 1, 0])
    e3_3 = _sub(3, [0, 0, 1])
    e23_3 = _sub(3, [0, 1, 0], [0, 0, 1])
    foth_f = _sub(4, [1, 0, 0, 0], [0, 1, 0, 0])

    cases = [
        CorpusCase(
            name="single-line",
            config=configuration(2, 1, [(e1_2, 1)]),
            expected=Expected(
                status=Status.UNSTABLE,
                certificate=e1_2,
                hn_slopes=(_f(1), _f(0)),
                balance=SolveStatus.DIVERGED,
                region=Region.OUTSIDE,
            ),
        ),
        CorpusCase(
            name="repeated-line",
            config=configuration(2, 1, [(e1_2, 1), (e1_2, 1)]),
            expected=Expected(
                status=Status.UNSTABLE,
                certificate=e1_2,
                hn_slopes=(_f(2), _f(0)),
                balance=SolveStatus.DIVERGED,
                # Dims and weights alone sit on the region boundary; the
                # instability comes from the coincident positions.
                region=Region.BOUNDARY,
            ),
        ),
        CorpusCase(
            name="transverse-pair",
            config=configuration(2, 1, [(e1_2, 1), (e2_2, 1)]),
            expected=Expected(
                status=Status.STRICTLY_SEMISTABLE,
                certificate=e2_2,
                hn_slopes=(_f(1),),
                jh_slopes=(_f(1), _f(1)),
                split_status=Status.POLYSTABLE,
                summands=2,
                balance=SolveStatus.BALANCED,
                region=Region.BOUNDARY,
            ),
        ),
        CorpusCase(
            name="generic-triple",
            config=configuration(2, 1, [(e1_2, 1), (e2_2, 1), (diag_2, 1)]),
            expected=Expected(
                status=Status.STABLE,
                hn_slopes=(_f(3, 2),),
                split_status=Status.POLYSTABLE,
                summands=1,
                balance=SolveStatus.BALANCED,
                region=Region.INTERIOR,
            ),
        ),
        CorpusCase(
            name="dominant-heavy-line",
            config=configuration(2, 1, [(e1_2, 10), (e2_2, 1), (diag_2, 1)]),
            expected=Expected(
                status=Status.UNSTABLE,
                certificate=e1_2,
                hn_slopes=(_f(10), _f(2)),
                balance=SolveStatus.DIVERGED,
                region=Region.OUTSIDE,
            ),
        ),
        CorpusCase(
            name="boundary-weights",
            config=configuration(2, 1, [(e1_2, 2), (e2_2, 1), (diag_2, 1)]),
            expected=Expected(
                status=Status.STRICTLY_SEMISTABLE,
                certificate=e1_2,
                jh_slopes=(_f(2), _f(2)),
                split_status=Status.STRICTLY_SEMISTABLE,
                region=Region.BOUNDARY,
            ),
        ),
        CorpusCase(
            name="full-space-item",
            config=configuration(2, 1, [(full_subspace(2), 1)]),
            expected=Expected(
                status=Status.STRICTLY_SEMISTABLE,
                certificate=e1_2,
                jh_slopes=(_f(1), _f(1)),
                split_status=Status.POLYSTABLE,
                summands=2,
                balance=SolveStatus.BALANCED,
                region=Region.BOUNDARY,
            ),
        ),
        CorpusCase(
            name="foth-three-planes",
            config=foth_witness(3, [1, 1, 1]),
            extra=(foth_f,),
            expected=Expected(
                status=Status.STRICTLY_SEMISTABLE,
                certificate=foth_f,
                hn_slopes=(_f(3, 2),),
                split_status=Status.POLYSTABLE,
                summands=2,
                balance=SolveStatus.BALANCED,
                region=Region.INTERIOR,
            ),
        ),
        CorpusCase(
            name="tensor-rank-one",
            config=configuration(2, 2, [(_sub(4, [1, 0, 0, 0]), 1)]),
            expected=Expected(
                status=Status.UNSTABLE,
                certificate=e1_2,
                hn_slopes=(_f(1), _f(0)),
                balance=SolveStatus.DIVERGED,
            ),
        ),
        CorpusCase(
            name="tensor-identity",
            config=configuration(2, 2, [(_sub(4, [1, 0, 0, 1]), 1)]),
            expected=Expected(
                status=Status.STABLE,
                hn_slopes=(_f(1, 2),),
                split_status=Status.POLYSTABLE,
                summands=1,
                balance=SolveStatus.BALANCED,
            ),
        ),
        CorpusCase(
            name="weighted-tower",
            config=configuration(3, 1, [(e1_3, 4), (e2_3, 2), (e3_3, 1)]),
            expected=Expected(
                status=Status.UNSTABLE,
                certificate=e1_3,
                hn_slopes=(_f(4), _f(2), _f(1)),
                balance=SolveStatus.DIVERGED,
                region=Region.OUTSIDE,
            ),
        ),
        CorpusCase(
            name="split-weights-pair",
            config=configuration(
                2, 1, [(e1_2, _f(1, 2)), (e1_2, _f(1, 2)), (e2_2, 1)]
            ),
            expected=Expected(
                status=Status.STRICTLY_SEMISTABLE,
                certificate=e2_2,
                split_status=Status.POLYSTABLE,
                summands=2,
                balance=SolveStatus.BALANCED,
                region=Region.BOUNDARY,
            ),
        ),
        CorpusCase(
            name="tensor-plane-support",
            config=configuration(
                3, 2, [(_sub(6, [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]), 1)]
            ),
            expected=Expected(
                status=Status.UNSTABLE,
                certificate=_sub(3, [1, 0, 0], [0, 1, 0]),
                balance=SolveStatus.DIVERGED,
            ),
        ),
        CorpusCase(
            name="coordinate-triple",
            config=configuration(3, 1, [(e1_3, 1), (e2_3, 1), (e3_3, 1)]),
            expected=Expected(
                status=Status.STRICTLY_SEMISTABLE,
                certificate=e3_3,
                jh_slopes=(_f(1), _f(1), _f(1)),
                split_status=Status.POLYSTABLE,
                summands=3,
                balance=SolveStatus.BALANCED,
                region=Region.BOUNDARY,
                hn_slopes=(_f(1),),
            ),
        ),
    ]
    assert len(cases) >= 12
    return tuple(cases)


def _region_of(c: WeightedConfiguration):
    if c.d != 1 or any(sub.dim == 0 for sub, _ in c.items):
        return None
    spec = ConeSpec(c.n, tuple(sub.dim for sub, _ in c.items))
    return hypersimplex_membership(spec, [w for _, w in c.items]).region


def check_case(
    case: CorpusCase, depth: int = 3, with_balance: bool = True
) -> CaseReport:
    c = case.config
    exp = case.expected
    failures: list[str] = []

    verdict = decide(c, depth, extra=case.extra)
    if verdict.status != exp.status:
        failures.append(f"decide: expected {exp.status.value}, got {verdict.status.value}")
    if exp.certificate is not None and verdict.certificate != exp.certificate:
        failures.append("decide: certificate differs from the hand-derived one")

    if exp.hn_slopes is not None:
        _, graded = hn_filtration(c, depth, extra=case.extra)
        slopes = tuple(step.slope for step in graded)
        if slopes != exp.hn_slopes:
            failures.append(f"hn: expected slopes {exp.hn_slopes}, got {slopes}")
        if any(not step.verdict.is_semistable for step in graded):
            failures.append("hn: a graded piece is not semistable")

    if exp.jh_slopes is not None:
        _, graded = jh_filtration(c, depth, extra=case.extra)
        slopes = tuple(step.slope for step in graded)
        if slopes != exp.jh_slopes:
            failures.append(f"jh: expected slopes {exp.jh_slopes}, got {slopes}")
        if any(step.verdict.status != Status.STABLE for step in graded):
            failures.append("jh: a graded piece is not stable")

    if exp.split_status is not None:
        split = polystable_split(c, depth, extra=case.extra)
        if split.status != exp.split_status:
            failures.append(
                f"split: expected {exp.split_status.value}, got {split.status.value}"
            )
        if exp.summands is not None and (
            split.summands is None or len(split.summands) != exp.summands
        ):
            failures.append("split: summand count differs")

    if exp.region is not None:
        region = _region_of(c)
        if region != exp.region:
            failures.append(f"region: expected {exp.region}, got {region}")

    if with_balance and exp.balance is not None:
        result = balance_solve(c)
        if result.status != exp.balance:
            failures.append(
                f"balance: expected {exp.balance.value}, got {result.status.value}"
            )
        elif result.status == SolveStatus.DIVERGED:
            ok = False
            for hint in result.destabilizer_hint or ():
                h = exactify_destabilizer(c, hint, depth, case.extra)
                if h is not None and mu_lambda_s(c, h) > 0:
                    ok = True
                    break
            if not ok:
                failures.append("balance: no divergence hint rationalized to a violation")
        elif result.status == SolveStatus.BALANCED and verdict.status == Status.UNSTABLE:
            failures.append("balance: converged on an unstable input")

    return CaseReport(name=case.name, passed=not failures, failures=tuple(failures))


def run_corpus(depth: int = 3, with_balance: bool = True) -> list[CaseReport]:
    return [check_case(case, depth, with_balance) for case in all_cases()]


def corpus_summary(reports) -> dict:
    return {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": [r.name for r in reports if not r.passed],
        "cases": [
            {"name": r.name, "passed": r.passed, "failures": list(r.failures)}
            for r in reports
        ],
    }
