import random
from fractions import Fraction

import pytest

from gitstab.config import (
    configuration,
    intersection_dims,
    slope_at,
    slope_total,
    tensor_with_full_w,
)
from gitstab.corpus import all_cases
from gitstab.linalg import (
    RationalMatrix,
    complement_chart,
    full_subspace,
    join,
    meet,
    span,
    subspace_digest,
    zero_subspace,
)
from gitstab.stability import (
    Confidence,
    InternalSoundnessError,
    OnePS,
    Status,
    adapted_frame,
    candidate_subspaces,
    decide,
    dominant_weight_check,
    exactify_destabilizer,
    lambda_for_subspace,
    mu_general,
    mu_lambda_s,
)

from util import rand_config, rand_invertible, rand_subspace


def F(x, y=1):
    return Fraction(x, y)


def line(n, *coords):
    return span([[F(x) for x in coords]], n)


class TestMuLambdaS:
    def test_sign_matches_slope_comparison(self):
        rng = random.Random(41)
        for _ in range(40):
            c = rand_config(rng)
            h = rand_subspace(rng, c.n, rng.randint(1, c.n - 1))
            mu = mu_lambda_s(c, h)
            lhs = c.n * h.dim * (slope_at(c, h) - slope_total(c))
            assert lhs == mu

    def test_rejects_zero_and_full(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        with pytest.raises(ValueError):
            mu_lambda_s(c, span([], 2))
        with pytest.raises(ValueError):
            mu_lambda_s(c, full_subspace(2))

    def test_hand_value(self):
        c = configuration(2, 1, [(line(2, 1, 0), 3), (line(2, 0, 1), 1)])
        assert mu_lambda_s(c, line(2, 1, 0)) == F(2) * F(3) - F(4)


class TestOnePS:
    def test_valid(self):
        lam = OnePS(RationalMatrix.identity(2), (1, -1))
        assert lam.q == (1, -1)

    def test_sum_zero_required(self):
        with pytest.raises(ValueError):
            OnePS(RationalMatrix.identity(2), (1, 0))

    def test_sorted_required(self):
        with pytest.raises(ValueError):
            OnePS(RationalMatrix.identity(3), (-1, 0, 1))

    def test_invertible_frame_required(self):
        m = RationalMatrix.from_rows([[F(1), F(1)], [F(1), F(1)]])
        with pytest.raises(ValueError):
            OnePS(m, (1, -1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            OnePS(RationalMatrix.identity(2), (1, 0, -1))


class TestMuGeneral:
    def test_matches_subspace_direction(self):
        rng = random.Random(43)
        for _ in range(25):
            c = rand_config(rng, n_max=4, m_max=3)
            h = rand_subspace(rng, c.n, rng.randint(1, c.n - 1))
            assert mu_general(c, lambda_for_subspace(h)) == mu_lambda_s(c, h)

    def test_matches_subspace_direction_tensor(self):
        rng = random.Random(44)
        k = span([[F(1), F(0), F(0), F(1)], [F(0), F(1), F(0), F(0)]], 4)
        c = configuration(2, 2, [(k, F(2))])
        h = line(2, 1, 0)
        assert mu_general(c, lambda_for_subspace(h)) == mu_lambda_s(c, h)

    def test_decomposition_identity(self):
        rng = random.Random(45)
        for _ in range(25):
            c = rand_config(rng, n_max=4, m_max=3)
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

    def test_zero_items_contribute_nothing(self):
        from gitstab.config import zero_item

        c = configuration(2, 1, [(zero_item(2, 1), 5), (line(2, 1, 0), 1)])
        h = line(2, 1, 0)
        assert mu_general(c, lambda_for_subspace(h)) == mu_lambda_s(c, h)


class TestAdaptedFrame:
    def test_first_columns_span_h(self):
        rng = random.Random(47)
        for _ in range(10):
            h = rand_subspace(rng, 4, rng.randint(1, 3))
            frame = adapted_frame(h)
            assert frame.rank() == 4
            first = span([list(v) for v in frame.column_list()[: h.dim]], 4)
            assert first == h
            rest = span([list(v) for v in frame.column_list()[h.dim :]], 4)
            units = [
                [Fraction(int(i == j)) for i in range(4)]
                for j in range(4)
                if j not in h.pivots
            ]
            assert rest == span(units, 4) == complement_chart(h)
            assert meet(h, rest).is_zero
            assert join(h, rest) == full_subspace(4)


class TestCandidates:
    def test_items_present(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        cands = candidate_subspaces(c)
        assert line(2, 1, 0) in cands and line(2, 0, 1) in cands

    def test_excludes_zero_and_full(self):
        rng = random.Random(50)
        for _ in range(10):
            c = rand_config(rng)
            for h in candidate_subspaces(c):
                assert 0 < h.dim < c.n

    def test_closed_under_meet_join_one_round(self):
        rng = random.Random(51)
        c = rand_config(rng, n_max=4, m_max=3)
        cands = candidate_subspaces(c, depth=3)
        got = set(cands)
        import itertools

        for a, b in itertools.combinations(cands[: min(len(cands), 8)], 2):
            for x in (meet(a, b), join(a, b)):
                if 0 < x.dim < c.n:
                    assert x in got

    def test_sorted_by_dim_then_rows(self):
        rng = random.Random(52)
        c = rand_config(rng)
        cands = candidate_subspaces(c)
        keys = [(h.dim, h.rows) for h in cands]
        assert keys == sorted(keys)

    def test_probe_line_for_trivial_lattice(self):
        c = configuration(2, 1, [(full_subspace(2), 1)])
        cands = candidate_subspaces(c)
        assert cands == [line(2, 1, 0)]

    def test_extras_participate_in_closure(self):
        v1 = span([[F(1), F(0), F(0), F(0)], [F(0), F(0), F(1), F(0)]], 4)
        v2 = span([[F(1), F(1), F(0), F(0)], [F(0), F(0), F(1), F(1)]], 4)
        c = configuration(4, 1, [(v1, 1), (v2, 1)])
        f = span([[F(1), F(0), F(0), F(0)], [F(0), F(1), F(0), F(0)]], 4)
        with_f = candidate_subspaces(c, extra=[f])
        # meets of the extra with the items appear
        assert meet(v1, f) in with_f
        assert f in with_f
        assert meet(v1, f) not in candidate_subspaces(c)

    def test_extra_wrong_ambient_rejected(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        with pytest.raises(ValueError):
            candidate_subspaces(c, extra=[line(3, 1, 0, 0)])


class TestIntersectionDims:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_meet_with_tensor(self, d):
        rng = random.Random(60 + d)
        for _ in range(25):
            n = rng.randint(2, 4)
            items = [
                (rand_subspace(rng, n * d, rng.randint(0, n * d)), F(1))
                for _ in range(rng.randint(1, 4))
            ]
            c = configuration(n, d, items)
            hs = [zero_subspace(n), full_subspace(n)]
            hs += [rand_subspace(rng, n, rng.randint(1, n - 1)) for _ in range(3)]
            for h in hs:
                expected = tuple(
                    meet(k, tensor_with_full_w(h, d)).dim for k, _ in c.items
                )
                assert intersection_dims(c, h) == expected


# (case, digest of the candidate list in scan order, decide's
# candidate_digest), at depth 3 with the case's extras
CORPUS_CANDIDATE_DIGESTS = [
    ("single-line", "e207aa41dc2e9b0854d7ea8bf878f7415764c1ed957115b254a7536e23b36d70", None),
    ("repeated-line", "e207aa41dc2e9b0854d7ea8bf878f7415764c1ed957115b254a7536e23b36d70", None),
    ("transverse-pair", "4f64d292bc1ec58b45edd01f165d3e93c1ade0a429804540d91f00b4e4b7ddb3", None),
    ("generic-triple", "d4f73d201653060974a1b9d132e3049a589aaa532c1c53f4cd136164163b4ada",
     "d4f73d201653060974a1b9d132e3049a589aaa532c1c53f4cd136164163b4ada"),
    ("dominant-heavy-line", "d4f73d201653060974a1b9d132e3049a589aaa532c1c53f4cd136164163b4ada", None),
    ("boundary-weights", "d4f73d201653060974a1b9d132e3049a589aaa532c1c53f4cd136164163b4ada", None),
    ("full-space-item", "e207aa41dc2e9b0854d7ea8bf878f7415764c1ed957115b254a7536e23b36d70", None),
    ("foth-three-planes", "11b5ad3989a3bfe5467dcdeeb2b65aa0598bdcc9c4b20a3c50000cdbaa56803d", None),
    ("weighted-tower", "1aa65ab43cae606b63058033fac5a9534d7e875da3697bd2f70f282f6faf5de7", None),
    ("split-weights-pair", "4f64d292bc1ec58b45edd01f165d3e93c1ade0a429804540d91f00b4e4b7ddb3", None),
    ("coordinate-triple", "1aa65ab43cae606b63058033fac5a9534d7e875da3697bd2f70f282f6faf5de7", None),
]


class TestCandidateDigestsPinned:
    def test_every_d1_corpus_case_is_pinned(self):
        names = [case.name for case in all_cases() if case.config.d == 1]
        assert names == [name for name, _, _ in CORPUS_CANDIDATE_DIGESTS]

    @pytest.mark.parametrize("name, order, digest", CORPUS_CANDIDATE_DIGESTS)
    def test_corpus_case(self, name, order, digest):
        case = next(case for case in all_cases() if case.name == name)
        cands = candidate_subspaces(case.config, 3, case.extra)
        assert subspace_digest(cands) == order
        assert decide(case.config, 3, extra=case.extra).candidate_digest == digest

    def test_generic_lines_in_q3(self):
        # 30 candidates with fractional coordinates, fully scanned
        rng = random.Random(7)
        c = configuration(3, 1, [(rand_subspace(rng, 3, 1), 1) for _ in range(5)])
        v = decide(c, 2)
        assert v.status == Status.STABLE
        assert v.candidate_digest == (
            "6d479d58c538a7cd2e6ed92e2aca2703072e837b52aa477b8848b4c56a0d99ff"
        )


class TestDecide:
    def test_unstable_certificate_is_violator(self):
        rng = random.Random(53)
        seen = 0
        while seen < 10:
            c = rand_config(rng)
            v = decide(c)
            if v.status != Status.UNSTABLE:
                continue
            seen += 1
            assert v.confidence == Confidence.EXACT_COMPLETE
            assert mu_lambda_s(c, v.certificate) > 0
            assert slope_at(c, v.certificate) > slope_total(c)
            assert v.mu == mu_lambda_s(c, v.certificate)

    def test_equality_certificate_exact(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        v = decide(c)
        assert v.status == Status.STRICTLY_SEMISTABLE
        assert mu_lambda_s(c, v.certificate) == 0
        assert v.confidence == Confidence.EXACT_WITHIN_DEPTH

    def test_stable_reports_digest(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        v = decide(c)
        assert v.status == Status.STABLE
        assert v.certificate is None
        assert v.candidate_digest is not None

    def test_extra_changes_verdict_when_needed(self):
        # pairwise transverse planes whose equality witness is outside
        # the meet/join closure of the items
        planes = []
        for t in range(3):
            planes.append(
                (
                    span(
                        [[F(1), F(t), F(0), F(0)], [F(0), F(0), F(1), F(t)]], 4
                    ),
                    F(1),
                )
            )
        c = configuration(4, 1, planes)
        f = span([[F(1), F(0), F(0), F(0)], [F(0), F(1), F(0), F(0)]], 4)
        without = decide(c)
        with_f = decide(c, extra=[f])
        assert without.status == Status.STABLE
        assert with_f.status == Status.STRICTLY_SEMISTABLE
        assert with_f.certificate == f

    def test_verdict_invariant_under_weight_scaling(self):
        rng = random.Random(54)
        for _ in range(10):
            c = rand_config(rng)
            scaled = c.scale_weights(F(7, 3))
            assert decide(c).status == decide(scaled).status


class TestNumericCorroboration:
    def test_stable_gets_numeric_tag(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        v = decide(c, numeric=True)
        assert v.status == Status.STABLE
        assert v.confidence == Confidence.NUMERICALLY_CORROBORATED

    def test_unstable_stays_exact(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        v = decide(c, numeric=True)
        assert v.status == Status.UNSTABLE
        assert v.confidence == Confidence.EXACT_COMPLETE


class TestExactify:
    def test_snaps_to_candidate(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        approx = [[1.0 + 1e-9], [1e-9]]
        h = exactify_destabilizer(c, approx)
        assert h == line(2, 1, 0)

    def test_continued_fraction_fallback(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        approx = [[1.0], [0.4999999999]]
        h = exactify_destabilizer(c, approx)
        assert h == span([[F(1), F(1, 2)]], 2)

    def test_rejects_complex_direction(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        approx = [[1.0 + 0.5j], [0.0]]
        assert exactify_destabilizer(c, approx) is None


class TestDominantWeight:
    def test_threshold_formula(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 10), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        rep = dominant_weight_check(c, 0)
        assert rep.threshold == F(2)
        assert rep.ratio_bound == F(2, 10)
        assert rep.is_dominant
        assert rep.singleton_verdict.status == Status.UNSTABLE
        assert rep.config_verdict.status == Status.UNSTABLE
        assert rep.consistent
        assert rep.transferred_certificate == line(2, 1, 0)
        assert mu_lambda_s(c, rep.transferred_certificate) > 0

    def test_not_dominant_at_threshold(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 2), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        rep = dominant_weight_check(c, 0)
        assert not rep.is_dominant
        assert rep.config_verdict.status == Status.STRICTLY_SEMISTABLE

    def test_every_index_reportable(self):
        rng = random.Random(55)
        c = rand_config(rng, n_max=3, m_max=3)
        while c.m < 2:
            c = rand_config(rng, n_max=3, m_max=3)
        for i in range(c.m):
            rep = dominant_weight_check(c, i)
            assert rep.index == i

    def test_single_item_rejected(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        with pytest.raises(ValueError):
            dominant_weight_check(c, 0)

    def test_dominance_transfer_random(self):
        # crank one weight far above threshold; config verdict must follow
        # the singleton's
        rng = random.Random(56)
        for _ in range(10):
            c = rand_config(rng, n_max=4, m_max=3)
            if c.m < 2:
                continue
            i = rng.randrange(c.m)
            threshold = (c.n - 1) * sum(
                w * sub.dim for j, (sub, w) in enumerate(c.items) if j != i
            )
            weights = [w for _, w in c.items]
            weights[i] = threshold + 1
            heavy = c.with_weights(weights)
            rep = dominant_weight_check(heavy, i)
            assert rep.is_dominant
            if rep.singleton_verdict.status == Status.UNSTABLE:
                assert rep.config_verdict.status == Status.UNSTABLE
                assert rep.consistent
