import math
import random
from fractions import Fraction

import pytest

from gitstab import filtration
from gitstab.config import (
    ConfigSchemaError,
    apply_gl,
    configuration,
    slope_at,
    slope_total,
)
from gitstab.filtration import (
    Flag,
    MFiltration,
    RefinementObstruction,
    hn_filtration,
    jh_filtration,
    lift_into,
    mfiltration,
    mfiltration_to_config,
    polystable_split,
    restrict_to,
    tensor_filtrations,
)
from gitstab.linalg import (
    RationalMatrix,
    full_subspace,
    join,
    kron,
    meet,
    span,
    zero_subspace,
)
from gitstab.stability import Status, candidate_subspaces, decide

from util import rand_config, rand_invertible, rand_subspace, transform_subspace


def F(x, y=1):
    return Fraction(x, y)


def line(n, *coords):
    return span([[F(x) for x in coords]], n)


class TestFlag:
    def test_needs_endpoints(self):
        with pytest.raises(ValueError):
            Flag((zero_subspace(2),))
        with pytest.raises(ValueError):
            Flag((line(2, 1, 0), full_subspace(2)))
        with pytest.raises(ValueError):
            Flag((zero_subspace(2), line(2, 1, 0)))

    def test_strict_increase(self):
        with pytest.raises(ValueError):
            Flag(
                (
                    zero_subspace(2),
                    line(2, 1, 0),
                    line(2, 0, 1),
                    full_subspace(2),
                )
            )

    def test_length(self):
        f = Flag((zero_subspace(2), line(2, 1, 0), full_subspace(2)))
        assert f.length == 2


class TestRestrictLift:
    def test_roundtrip(self):
        rng = random.Random(61)
        for _ in range(15):
            outer = rand_subspace(rng, 5, rng.randint(2, 4))
            inner_dim = rng.randint(1, outer.dim)
            coords = rand_subspace(rng, outer.dim, inner_dim)
            lifted = lift_into(coords, outer)
            assert lifted.dim == inner_dim
            assert meet(lifted, outer) == lifted
            assert restrict_to(lifted, outer) == coords


class TestHN:
    def test_semistable_gives_trivial_flag(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        flag, gradeds = hn_filtration(c)
        assert flag.length == 1
        assert len(gradeds) == 1
        assert gradeds[0].slope == slope_total(c)

    def test_heavy_line_example(self):
        c = configuration(2, 1, [(line(2, 1, 0), 3), (line(2, 0, 1), 1)])
        flag, gradeds = hn_filtration(c)
        assert flag.steps[1] == line(2, 1, 0)
        assert [g.slope for g in gradeds] == [F(3), F(1)]

    def test_singleton_quotient_slope_zero(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1)])
        flag, gradeds = hn_filtration(c)
        assert [g.slope for g in gradeds] == [F(1), F(0)]

    def test_slopes_strictly_decrease_and_gradeds_semistable(self):
        rng = random.Random(62)
        for _ in range(30):
            c = rand_config(rng)
            flag, gradeds = hn_filtration(c)
            slopes = [g.slope for g in gradeds]
            assert all(a > b for a, b in zip(slopes, slopes[1:]))
            assert all(g.verdict.is_semistable for g in gradeds)
            assert slopes[0] >= slope_total(c)

    def test_first_step_maximizes_slope(self):
        rng = random.Random(63)
        for _ in range(15):
            c = rand_config(rng)
            flag, _ = hn_filtration(c)
            if flag.length == 1:
                continue
            v1 = flag.steps[1]
            top = slope_at(c, v1)
            for h in candidate_subspaces(c):
                assert slope_at(c, h) <= top

    def test_idempotent_on_gradeds(self):
        rng = random.Random(64)
        for _ in range(10):
            c = rand_config(rng)
            _, gradeds = hn_filtration(c)
            for g in gradeds:
                inner_flag, _ = hn_filtration(g.config)
                assert inner_flag.length == 1

    def test_equivariance(self):
        rng = random.Random(65)
        for _ in range(5):
            c = rand_config(rng, n_max=3, m_max=3)
            g = rand_invertible(rng, c.n)
            moved = apply_gl(c, g)
            flag, _ = hn_filtration(c)
            flag_g, _ = hn_filtration(moved)
            assert flag_g.steps == tuple(
                transform_subspace(g, s) for s in flag.steps
            )


class TestJH:
    def test_unstable_rejected(self):
        c = configuration(2, 1, [(line(2, 1, 0), 3), (line(2, 0, 1), 1)])
        with pytest.raises(ValueError):
            jh_filtration(c)

    def test_stable_gives_trivial_flag(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        flag, gradeds = jh_filtration(c)
        assert flag.length == 1
        assert gradeds[0].verdict.status == Status.STABLE

    def test_coordinate_pair(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        flag, gradeds = jh_filtration(c)
        assert flag.length == 2
        total = slope_total(c)
        for g in gradeds:
            assert g.slope == total
            assert g.verdict.status == Status.STABLE

    def test_equal_slopes_and_stable_gradeds(self):
        rng = random.Random(66)
        checked = 0
        while checked < 12:
            c = rand_config(rng)
            v = decide(c)
            if v.status == Status.UNSTABLE:
                continue
            checked += 1
            flag, gradeds = jh_filtration(c)
            total = slope_total(c)
            for g in gradeds:
                assert g.slope == total
                assert g.verdict.status == Status.STABLE

    def test_obstruction_is_value_error(self):
        assert issubclass(RefinementObstruction, ValueError)


class TestPolystableSplit:
    def test_stable_is_polystable_whole(self):
        c = configuration(
            2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1), (line(2, 1, 1), 1)]
        )
        v = polystable_split(c)
        assert v.status == Status.POLYSTABLE
        assert v.summands == (full_subspace(2),)

    def test_unstable_passthrough(self):
        c = configuration(2, 1, [(line(2, 1, 0), 3), (line(2, 0, 1), 1)])
        v = polystable_split(c)
        assert v.status == Status.UNSTABLE

    def test_coordinate_pair_splits(self):
        c = configuration(2, 1, [(line(2, 1, 0), 1), (line(2, 0, 1), 1)])
        v = polystable_split(c)
        assert v.status == Status.POLYSTABLE
        assert set(v.summands) == {line(2, 1, 0), line(2, 0, 1)}

    def test_summand_invariants(self):
        rng = random.Random(67)
        found = 0
        while found < 8:
            c = rand_config(rng)
            v = polystable_split(c)
            if v.status != Status.POLYSTABLE:
                continue
            found += 1
            assert sum(s.dim for s in v.summands) == c.n
            acc = zero_subspace(c.n)
            for s in v.summands:
                assert meet(acc, s).dim == 0
                acc = join(acc, s)
            assert acc.is_full

    def test_transverse_planes_with_witness(self):
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
        v = polystable_split(c, extra=[f])
        assert v.status == Status.POLYSTABLE
        e34 = span([[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]], 4)
        assert set(v.summands) == {f, e34}

    def test_no_split_keeps_verdict(self):
        # four weighted lines with a doubled one: the doubled line is an
        # equality witness, but the skew line blocks every complement, so
        # the configuration stays StrictlySemistable
        c = configuration(
            2,
            1,
            [
                (line(2, 1, 0), 1),
                (line(2, 0, 1), 1),
                (line(2, 1, 0), 1),
                (line(2, 1, 1), 1),
            ],
        )
        v = polystable_split(c)
        assert v.status == Status.STRICTLY_SEMISTABLE
        assert v.certificate == line(2, 1, 0)
        assert v.summands is None


class TestLatticeSharing:
    """One public call builds each (configuration, depth, extras) lattice
    at most once, however its recursion and graded report are arranged."""

    CASES = ("transverse-pair", "coordinate-triple", "weighted-tower", "foth-three-planes")

    @pytest.fixture
    def builds(self, monkeypatch):
        import gitstab.filtration
        import gitstab.stability

        keys = []
        original = gitstab.stability.candidate_subspaces

        def counting(c, depth=3, extra=()):
            keys.append((c, depth, tuple(extra)))
            return original(c, depth, extra)

        monkeypatch.setattr(gitstab.stability, "candidate_subspaces", counting)
        monkeypatch.setattr(gitstab.filtration, "candidate_subspaces", counting)
        return keys

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("call", [hn_filtration, jh_filtration, polystable_split])
    def test_no_lattice_built_twice(self, builds, name, call):
        from gitstab.corpus import all_cases

        case = {case.name: case for case in all_cases()}[name]
        builds.clear()
        try:
            call(case.config, extra=case.extra)
        except ValueError:
            pass  # jh on an Unstable input; its builds still count
        assert builds
        repeated = [key for key in set(builds) if builds.count(key) > 1]
        assert repeated == []


class TestMFiltration:
    def test_validation(self):
        with pytest.raises(ValueError):
            mfiltration(2, [[(line(3, 1, 0, 0), 1)]])
        with pytest.raises(ValueError):
            mfiltration(2, [[(line(2, 1, 0), 0)]])
        with pytest.raises(ValueError):
            mfiltration(
                2,
                [[(line(2, 1, 0), 1), (line(2, 0, 1), 1)]],
            )

    def test_weakly_decreasing_allows_repeat(self):
        f = mfiltration(2, [[(line(2, 1, 0), 1), (line(2, 1, 0), 2)]])
        assert f.m == 1

    def test_trivial_chains(self):
        f = mfiltration(3, [[], []])
        assert f.m == 2

    def test_flatten(self):
        full2 = full_subspace(2)
        f = mfiltration(
            2,
            [
                [(full2, 5), (line(2, 1, 0), 1)],
                [(line(2, 0, 1), 2), (zero_subspace(2), 3)],
            ],
        )
        c = mfiltration_to_config(f)
        assert c.items == (
            (line(2, 1, 0), F(1)),
            (line(2, 0, 1), F(2)),
        )

    def test_flatten_all_trivial_rejected(self):
        f = mfiltration(2, [[], []])
        with pytest.raises(ConfigSchemaError):
            mfiltration_to_config(f)


class TestTensorFiltrations:
    def test_m_mismatch(self):
        a = mfiltration(2, [[(line(2, 1, 0), 1)]])
        b = mfiltration(2, [[], []])
        with pytest.raises(ValueError):
            tensor_filtrations(a, b)

    def test_line_times_line(self):
        a = mfiltration(2, [[(line(2, 1, 0), 1)]])
        t = tensor_filtrations(a, a)
        assert t.n == 4
        chain = t.filtrations[0]
        assert [s.dim for s, _ in chain] == [3, 1]
        assert [w for _, w in chain] == [F(1), F(1)]
        assert chain[1][0] == line(4, 1, 0, 0, 0)
        assert chain[0][0].contains(line(4, 0, 1, 0, 0))
        assert chain[0][0].contains(line(4, 0, 0, 1, 0))

    def test_trivial_times_trivial(self):
        a = mfiltration(2, [[]])
        t = tensor_filtrations(a, a)
        assert t.filtrations == ((),)

    def test_level_dim_bound(self):
        # level l of the product contains every kron of levels p, q with
        # p + q = l, so its dim is at least each product of dims
        rng = random.Random(68)
        for _ in range(6):
            n = rng.randint(2, 3)
            chains = []
            for _ in range(1):
                s1 = rand_subspace(rng, n, rng.randint(1, n - 1))
                chains.append([(s1, rng.randint(1, 2))])
            a = mfiltration(n, chains)
            t = tensor_filtrations(a, a)
            chain = t.filtrations[0]
            ca = [full_subspace(n)] + [s for s, _ in chains[0]] + [
                zero_subspace(n)
            ]
            dims = [s.dim for s in ca]
            reps = []
            for s, w in chains[0]:
                reps.extend([s.dim] * int(w))
            unit = [n] + reps + [0]
            levels = []
            for s, w in chain:
                levels.extend([s.dim] * int(w))
            for l, got in enumerate(levels, start=1):
                best = 0
                for p in range(0, min(l, len(unit) - 1) + 1):
                    q = l - p
                    if q < 0 or q > len(unit) - 1:
                        continue
                    best = max(best, unit[p] * unit[q])
                assert got >= best

    def test_common_rescaling_scales_weights(self):
        a = mfiltration(2, [[(line(2, 1, 0), 1)]])
        half = mfiltration(2, [[(line(2, 1, 0), F(1, 2))]])
        t1 = tensor_filtrations(a, a)
        t2 = tensor_filtrations(half, half)
        subs1 = [[s for s, _ in ch] for ch in t1.filtrations]
        subs2 = [[s for s, _ in ch] for ch in t2.filtrations]
        assert subs1 == subs2
        for ch1, ch2 in zip(t1.filtrations, t2.filtrations):
            for (_, w1), (_, w2) in zip(ch1, ch2):
                assert w2 == w1 / 2


def _unit_chain(n: int, chain, scale: int) -> list:
    """Full to zero, each step repeated (weight * scale) times."""
    out = [full_subspace(n)]
    for sub, w in chain:
        reps = w * scale
        assert reps.denominator == 1
        out.extend([sub] * int(reps))
    out.append(zero_subspace(n))
    return out


def _unit_tensor_reference(a: MFiltration, b: MFiltration) -> MFiltration:
    """The product by unit-step expansion: weights jointly scaled to
    integers, level l the join over p + q = l of the Kronecker products of
    unit levels p and q, each level of weight 1/scale.  Its cost grows
    with the weights, so it serves only as a reference here."""
    denoms = [
        w.denominator for f in (a, b) for chain in f.filtrations for _, w in chain
    ]
    scale = math.lcm(*denoms) if denoms else 1
    big_n = a.n * b.n
    out_chains = []
    for chain_a, chain_b in zip(a.filtrations, b.filtrations):
        ca = _unit_chain(a.n, chain_a, scale)
        cb = _unit_chain(b.n, chain_b, scale)
        p_max, q_max = len(ca) - 1, len(cb) - 1
        steps = []
        for l in range(1, p_max + q_max):
            sub = zero_subspace(big_n)
            for p in range(max(0, l - q_max), min(p_max, l) + 1):
                sub = join(sub, kron(ca[p], cb[l - p]))
            if sub.is_zero:
                continue
            if steps and steps[-1][0] == sub:
                steps[-1] = (sub, steps[-1][1] + F(1, scale))
            else:
                steps.append((sub, F(1, scale)))
        out_chains.append(tuple(steps))
    return MFiltration(big_n, tuple(out_chains))


def _rand_family(rng: random.Random, n: int, m: int, max_steps: int) -> MFiltration:
    """m weakly decreasing chains with fractional weights; a step may be 0,
    the full space or a repeat of the step before it."""
    chains = []
    for _ in range(m):
        chain, prev = [], full_subspace(n)
        for _ in range(rng.randint(0, max_steps)):
            combos = [
                [rng.randint(-2, 2) for _ in prev.rows]
                for _ in range(rng.randint(0, prev.dim))
            ]
            vectors = [
                [sum(c * row[i] for c, row in zip(cs, prev.rows)) for i in range(n)]
                for cs in combos
            ]
            prev = span(vectors, n)
            chain.append((prev, F(rng.randint(1, 3), rng.choice((1, 2, 3, 7)))))
        chains.append(tuple(chain))
    return MFiltration(n, tuple(chains))


def _rand_pair(rng: random.Random, max_steps: int):
    m = rng.randint(1, 3)
    a = _rand_family(rng, rng.randint(1, 3), m, max_steps)
    return a, _rand_family(rng, rng.randint(1, 3), m, max_steps)


def _combine(terms) -> RationalMatrix:
    """The sum of c * M over the (c, M) terms, all of one shape."""
    first = terms[0][1]
    return RationalMatrix(
        first.rows,
        first.cols,
        tuple(
            sum(c * mat.entries[k] for c, mat in terms)
            for k in range(first.rows * first.cols)
        ),
    )


def _matrix_kron(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """x tensor y, a-major like kron on subspaces."""
    return RationalMatrix.from_rows(
        [x.entry(i, j) * y.entry(k, l) for j in range(x.cols) for l in range(y.cols)]
        for i in range(x.rows)
        for k in range(y.rows)
    )


def _moment(f: MFiltration, h: RationalMatrix) -> RationalMatrix:
    """Phi_f(H): the sum of w * P_A over the nonzero chain steps (A, w),
    with P_A the H-orthogonal projection onto A, made traceless."""
    terms, total = [], F(0)
    for chain in f.filtrations:
        for sub, w in chain:
            if sub.is_zero:
                continue
            b = sub.basis
            bt_h = b.transpose() @ h
            terms.append((w, b @ (bt_h @ b).inverse() @ bt_h))
            total += w * sub.dim
    return _combine(terms + [(-total / f.n, RationalMatrix.identity(f.n))])


def _rand_gram(rng: random.Random, n: int) -> RationalMatrix:
    """A^T A for a random invertible integer A with entries in -3..3."""
    while True:
        a = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        if a.det() != 0:
            return a.transpose() @ a


def _identity_holds(a: MFiltration, b: MFiltration, rng: random.Random) -> bool:
    """Phi_{a (x) b}(H_a (x) H_b) == Phi_a(H_a) (x) I + I (x) Phi_b(H_b)."""
    h_a, h_b = _rand_gram(rng, a.n), _rand_gram(rng, b.n)
    one_a, one_b = RationalMatrix.identity(a.n), RationalMatrix.identity(b.n)
    left = _moment(tensor_filtrations(a, b), _matrix_kron(h_a, h_b))
    right = _combine(
        [
            (1, _matrix_kron(_moment(a, h_a), one_b)),
            (1, _matrix_kron(one_a, _moment(b, h_b))),
        ]
    )
    return left == right


class TestTensorBreakpoints:
    def test_matches_unit_expansion(self):
        rng = random.Random(250)
        for _ in range(60):
            a, b = _rand_pair(rng, max_steps=2)
            assert tensor_filtrations(a, b) == _unit_tensor_reference(a, b)

    def test_product_metric_identity(self):
        # Totaro's product metric: H_a (x) H_b moves the product's moment
        # value to Phi_a (x) I + I (x) Phi_b, exactly
        rng = random.Random(251)
        for _ in range(50):
            a, b = _rand_pair(rng, max_steps=3)
            assert _identity_holds(a, b, rng)

    def test_cost_does_not_grow_with_the_weights(self, monkeypatch):
        calls = []

        def counting_kron(x, y):
            calls.append((x, y))
            return kron(x, y)

        monkeypatch.setattr(filtration, "kron", counting_kron)
        a = mfiltration(2, [[(line(2, 1, 0), 3000)]])
        b = mfiltration(2, [[(line(2, 1, 0), F(1, 7))]])
        chain = tensor_filtrations(a, b).filtrations[0]
        assert [(s.dim, w) for s, w in chain] == [
            (3, F(1, 7)),
            (2, F(20999, 7)),
            (1, F(1, 7)),
        ]
        assert len(calls) <= (1 + 1) * (1 + 1)
