"""Acceptance gate: ten end-to-end criteria, one test and one summary line
each.  Tolerances and time budgets are pinned in the assertions; the last
test audits the weight-region ledger that every earlier criterion feeds."""

import random
import time
from fractions import Fraction

import numpy as np

from gitstab.balance import (
    HermitianMetric,
    SolveStatus,
    balance_solve,
    kempf_ness_value,
    moment_map,
)
from gitstab.cone import ConeSpec, Region, foth_fixed_plane, foth_witness, hypersimplex_membership
from gitstab.config import (
    apply_gl,
    configuration,
    merge_items,
    slope_at,
    slope_total,
    split_item,
)
from gitstab.corpus import all_cases, run_corpus
from gitstab.filtration import (
    hn_filtration,
    mfiltration,
    mfiltration_to_config,
    polystable_split,
    tensor_filtrations,
)
from gitstab.gm import OrbitStatus, gale_transform, gm_backward, gm_forward, orbit_equivalent, PackedPointError
from gitstab.linalg import RationalMatrix, span
from gitstab.stability import (
    OnePS,
    Status,
    candidate_subspaces,
    decide,
    exactify_destabilizer,
    lambda_for_subspace,
    mu_general,
    mu_lambda_s,
)
from gitstab.filtration import lift_into

from util import (
    pairwise_transverse_planes,
    rand_config,
    rand_invertible,
    rand_subspace,
    transform_subspace,
)

F = Fraction

# Every semistable verdict produced below is logged with its largest
# normalized weight; the inequality max x_i <= 1 is a proven consequence of
# semistability, so one violation anywhere fails the suite.
_SEMISTABLE_LOG: list = []


def record_verdict(source: str, c, verdict) -> None:
    if c.d != 1 or not verdict.is_semistable:
        return
    if any(sub.dim == 0 for sub, _ in c.items):
        return
    spec = ConeSpec(c.n, tuple(sub.dim for sub, _ in c.items))
    report = hypersimplex_membership(spec, [w for _, w in c.items])
    top = max(report.x)
    assert top <= 1, f"{source}: semistable sample with max x = {top}"
    _SEMISTABLE_LOG.append((source, top))


def _interior_weights(rng: random.Random, spec: ConeSpec):
    while True:
        ws = [F(rng.randint(1, 9)) for _ in range(spec.m)]
        if hypersimplex_membership(spec, ws).region == Region.INTERIOR:
            return ws


def test_criterion_01_exact_corpus():
    t0 = time.monotonic()
    reports = run_corpus(with_balance=False)
    elapsed = time.monotonic() - t0
    assert len(reports) >= 12
    failed = [r.name for r in reports if not r.passed]
    assert failed == [], f"corpus failures: {failed}"
    for case in all_cases():
        v = decide(case.config, extra=case.extra)
        record_verdict(f"corpus:{case.name}", case.config, v)
        if case.name == "foth-three-planes":
            # the case is built by foth_witness; it must be the hand-written
            # planes span(e1 + t e2, e3 + t e4), t = 0, 1, 2, of weight 1
            planes = [span([[1, t, 0, 0], [0, 0, 1, t]], 4) for t in range(3)]
            assert case.config == configuration(4, 1, [(p, 1) for p in planes])
    assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"
    print(f"criterion 1 PASS: {len(reports)} corpus cases exact in {elapsed:.2f}s")


def test_criterion_02_plane_families():
    t0 = time.monotonic()
    rng = random.Random(202)
    checked = 0
    for idx in range(100):
        m = 3 if idx % 2 == 0 else 4
        planes = pairwise_transverse_planes(rng, m)
        spec = ConeSpec(4, tuple([2] * m))
        for _ in range(20):
            ws = _interior_weights(rng, spec)
            c = configuration(4, 1, list(zip(planes, ws)))
            v = decide(c)
            assert v.is_semistable, f"transverse {m}-tuple judged {v.status}"
            record_verdict("planes", c, v)
            checked += 1
    fixed = foth_fixed_plane()
    for m in (3, 4, 5):
        spec = ConeSpec(4, tuple([2] * m))
        for _ in range(10):
            ws = _interior_weights(rng, spec)
            c = foth_witness(m, ws)
            v = decide(c, extra=[fixed])
            assert v.status == Status.STRICTLY_SEMISTABLE
            assert v.certificate == fixed
            assert v.mu == 0
            record_verdict("fixed-plane-family", c, v)
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    print(
        f"criterion 2 PASS: {checked} transverse-family verdicts semistable, "
        f"30 fixed-plane witnesses certified in {elapsed:.1f}s"
    )


def test_criterion_03_balance_matches_polystability():
    t0 = time.monotonic()
    balanced = diverged = 0
    for case in all_cases():
        c = case.config
        split = polystable_split(c, extra=case.extra)
        if split.status == Status.POLYSTABLE:
            r = balance_solve(c, tol=1e-8, max_iter=10_000)
            assert r.status == SolveStatus.BALANCED, f"{case.name}: {r.status}"
            assert r.residual < 1e-8
            balanced += 1
        base = decide(c, extra=case.extra)
        if base.status == Status.UNSTABLE:
            r = balance_solve(c, tol=1e-8, max_iter=10_000)
            assert r.status == SolveStatus.DIVERGED, f"{case.name}: {r.status}"
            assert r.destabilizer_hint, f"{case.name}: no hints"
            ok = False
            for hint in r.destabilizer_hint:
                h = exactify_destabilizer(c, hint, candidate_subspaces(c))
                if h is not None and mu_lambda_s(c, h) > 0:
                    ok = True
                    break
            assert ok, f"{case.name}: hints failed exact re-verification"
            diverged += 1
    elapsed = time.monotonic() - t0
    assert balanced >= 4 and diverged >= 3
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(
        f"criterion 3 PASS: {balanced} polystable cases balanced to 1e-8, "
        f"{diverged} unstable cases diverged with exact certificates in {elapsed:.1f}s"
    )


def test_criterion_04_hn_properties():
    t0 = time.monotonic()
    rng = random.Random(204)
    for _ in range(200):
        c = rand_config(rng)
        flag, gradeds = hn_filtration(c)
        slopes = [g.slope for g in gradeds]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        for g in gradeds:
            assert g.verdict.is_semistable
            record_verdict("hn-graded", g.config, g.verdict)
            inner, _ = hn_filtration(g.config)
            assert inner.length == 1
        for _ in range(5):
            u = rand_invertible(rng, c.n)
            moved_flag, _ = hn_filtration(apply_gl(c, u))
            assert moved_flag.steps == tuple(
                transform_subspace(u, s) for s in flag.steps
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    print(
        "criterion 4 PASS: 200 filtrations decreasing/semistable/idempotent, "
        f"1000 basis-change transports exact in {elapsed:.1f}s"
    )


def test_criterion_05_direction_decomposition_identity():
    t0 = time.monotonic()
    rng = random.Random(205)
    for _ in range(100):
        c = rand_config(rng)
        n = c.n
        frame = rand_invertible(rng, n)
        raw = sorted((rng.randint(-4, 4) for _ in range(n)), reverse=True)
        shift = sum(raw)
        q = [n * x - shift for x in raw]
        if all(x == 0 for x in q):
            q = [n - 1] + [-1] * (n - 1)
        lam = OnePS(frame, tuple(q))
        total = F(0)
        cols = frame.column_list()
        for s in range(1, n):
            step = F(q[s - 1] - q[s], n)
            if step == 0:
                continue
            v_s = span([list(v) for v in cols[:s]], n)
            total += step * mu_lambda_s(c, v_s)
        assert mu_general(c, lam) == total
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s"
    print(f"criterion 5 PASS: 100 exact direction decompositions in {elapsed:.1f}s")


def test_criterion_06_packing_and_duality():
    t0 = time.monotonic()
    rng = random.Random(206)
    done = 0
    while done < 200:
        c = rand_config(rng)
        if c.n >= sum(s.dim for s, _ in c.items):
            continue
        assert gm_backward(gm_forward(c)) == c
        done += 1
    double_checked = 0
    while double_checked < 100:
        n = rng.randint(2, 3)
        m = rng.randint(n + 1, n + 3)
        items = []
        for _ in range(m):
            items.append((rand_subspace(rng, n, 1), F(rng.randint(1, 4))))
        c = configuration(n, 1, items)
        try:
            dd = gale_transform(gale_transform(c))
        except PackedPointError:
            continue
        r = orbit_equivalent(c, dd)
        assert r.status == OrbitStatus.YES
        for (sa, _), (sb, _) in zip(c.items, dd.items):
            assert transform_subspace(r.witness, sa) == sb
        double_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 20, f"took {elapsed:.1f}s"
    print(
        "criterion 6 PASS: 200 exact pack round trips, 100 double duals "
        f"orbit-equivalent with verified witnesses in {elapsed:.1f}s"
    )


def test_criterion_07_split_merge_invariance():
    t0 = time.monotonic()
    rng = random.Random(207)
    for _ in range(100):
        c = rand_config(rng)
        base = decide(c)
        record_verdict("split-merge", c, base)
        cands = candidate_subspaces(c)
        base_slopes = [slope_at(c, h) for h in cands]
        total = slope_total(c)
        cur = c
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                i = rng.randrange(cur.m)
                w = cur.items[i][1]
                part = w * F(rng.randint(1, 3), 4)
                cur = split_item(cur, i, part, w - part)
            else:
                pairs = [
                    (i, j)
                    for i in range(cur.m)
                    for j in range(i + 1, cur.m)
                    if cur.items[i][0] == cur.items[j][0]
                ]
                if not pairs:
                    continue
                i, j = pairs[rng.randrange(len(pairs))]
                cur = merge_items(cur, i, j)
            assert slope_total(cur) == total
            assert [slope_at(cur, h) for h in cands] == base_slopes
            assert decide(cur).status == base.status
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s"
    print(
        "criterion 7 PASS: verdict and slopes exactly invariant under 100 "
        f"split/merge sequences in {elapsed:.1f}s"
    )


def _rand_rational_orthogonal(rng: random.Random, n: int) -> RationalMatrix:
    # signed permutation times an exact Pythagorean rotation in a random
    # coordinate plane keeps every entry rational and the matrix orthogonal
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for i in range(n):
        rows.append(
            [F(0)] * perm[i]
            + [F(rng.choice((-1, 1)))]
            + [F(0)] * (n - perm[i] - 1)
        )
    u = RationalMatrix.from_rows(rows)
    if n >= 2:
        a, b, cc = rng.choice(((3, 4, 5), (5, 12, 13), (8, 15, 17)))
        i, j = rng.sample(range(n), 2)
        rot = [[F(1) if r == s else F(0) for s in range(n)] for r in range(n)]
        rot[i][i] = F(a, cc)
        rot[i][j] = F(-b, cc)
        rot[j][i] = F(b, cc)
        rot[j][j] = F(a, cc)
        u = u @ RationalMatrix.from_rows(rot)
    return u


def test_criterion_08_moment_map_numerics():
    t0 = time.monotonic()
    rng = random.Random(208)
    nprng = np.random.default_rng(208)
    for _ in range(100):
        c = rand_config(rng)
        phi = moment_map(c, HermitianMetric.identity(c.n)).matrix
        assert abs(complex(np.trace(phi))) <= 1e-10
        u = _rand_rational_orthogonal(rng, c.n)
        phi_u = moment_map(apply_gl(c, u), HermitianMetric.identity(c.n)).matrix
        uf = np.array(
            [[float(u.entry(i, j)) for j in range(c.n)] for i in range(c.n)]
        )
        assert float(np.abs(phi_u - uf @ phi @ uf.T).max()) <= 1e-10
    eps = 1e-5
    for _ in range(50):
        c = rand_config(rng, n_max=4, m_max=3)
        phi = moment_map(c, HermitianMetric.identity(c.n)).matrix
        x = nprng.standard_normal((c.n, c.n)) + 1j * nprng.standard_normal((c.n, c.n))
        a = (x + x.conj().T) / 2
        a -= (np.trace(a) / c.n) * np.eye(c.n)
        lam, vecs = np.linalg.eigh(a)
        up = kempf_ness_value(
            c, HermitianMetric.from_matrix((vecs * np.exp(eps * lam)) @ vecs.conj().T)
        )
        dn = kempf_ness_value(
            c, HermitianMetric.from_matrix((vecs * np.exp(-eps * lam)) @ vecs.conj().T)
        )
        numeric = (up - dn) / (2 * eps)
        exact = float(np.trace(phi @ a).real)
        assert abs(numeric - exact) / max(1.0, abs(exact)) < 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    print(
        "criterion 8 PASS: 100 trace/equivariance points at 1e-10, 50 "
        f"gradient directions at 1e-5 in {elapsed:.1f}s"
    )


def _rand_chain(rng: random.Random, n: int):
    length = rng.randint(0, 2)
    dims = sorted(rng.sample(range(1, n), min(length, n - 1)), reverse=True)
    steps = []
    outer = None
    for d in dims:
        if outer is None:
            sub = rand_subspace(rng, n, d)
        else:
            sub = lift_into(rand_subspace(rng, outer.dim, d), outer)
        steps.append((sub, F(rng.randint(1, 2))))
        outer = sub
    return steps


def _rand_semistable_family(rng: random.Random):
    while True:
        n = rng.randint(2, 3)
        chains = [_rand_chain(rng, n) for _ in range(2)]
        f = mfiltration(n, chains)
        try:
            c = mfiltration_to_config(f)
        except ValueError:
            continue
        if decide(c).is_semistable:
            return f, c


def test_criterion_10_tensor_preserves_semistability():
    t0 = time.monotonic()
    rng = random.Random(210)
    done = 0
    while done < 50:
        fa, ca = _rand_semistable_family(rng)
        fb, cb = _rand_semistable_family(rng)
        product = tensor_filtrations(fa, fb)
        try:
            flat = mfiltration_to_config(product)
        except ValueError:
            continue
        v = decide(flat, depth=3)
        assert v.is_semistable, (
            f"product of semistable families judged {v.status} "
            f"(inputs n={fa.n},{fb.n})"
        )
        record_verdict("tensor-product", flat, v)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    print(
        f"criterion 10 PASS: 50 tensor products of semistable families "
        f"semistable at depth 3 in {elapsed:.1f}s"
    )


def test_criterion_09_weight_region_soundness():
    # runs after the other criteria so the ledger covers every semistable
    # verdict the suite produced
    if not _SEMISTABLE_LOG:
        for case in all_cases():
            v = decide(case.config, extra=case.extra)
            record_verdict(f"corpus:{case.name}", case.config, v)
    assert _SEMISTABLE_LOG
    worst = max(x for _, x in _SEMISTABLE_LOG)
    assert worst <= 1
    print(
        f"criterion 9 PASS: {len(_SEMISTABLE_LOG)} semistable samples, "
        f"max normalized weight {worst} <= 1"
    )
