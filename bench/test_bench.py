"""Self-tests of the benchmark: oracle, generators, one op per workload,
and the trace installer.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import random
import tempfile
from fractions import Fraction

import pytest

import oracle
import run
import tracing
import workloads

run.import_cli()

from gitstab.linalg import join, meet, span  # noqa: E402


def _rand_sub(rng, n):
    k = rng.randint(0, n)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
    return rows, span(rows, n)


def test_oracle_agrees_with_meet_and_join():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        a_rows, a = _rand_sub(rng, n)
        b_rows, b = _rand_sub(rng, n)
        assert oracle.rank(a_rows) == a.dim
        assert oracle.meet_dim(a_rows, b_rows) == meet(a, b).dim
        assert oracle.rank(a_rows + b_rows) == join(a, b).dim
        assert oracle.same_space(a_rows, [list(r) for r in a.rows])


def test_oracle_mu_matches_package():
    from gitstab.config import config_from_dict
    from gitstab.stability import mu_lambda_s

    rng = random.Random(3)
    for kind in ("mixed4", "d2", "lines3_m5"):
        data = workloads.make_op(kind, rng)["config"]
        c, oc = config_from_dict(data), oracle.Config(data)
        for _ in range(10):
            h_rows, h = _rand_sub(rng, c.n)
            if 0 < h.dim < c.n:
                assert oc.mu(h_rows) == mu_lambda_s(c, h)


def test_generators_deterministic():
    for workload in workloads.ROUNDS:
        a = next(workloads.rounds(workload, 5))
        b = next(workloads.rounds(workload, 5))
        c = next(workloads.rounds(workload, 6))
        assert [op["config"] for op in a] == [op["config"] for op in b]
        assert [op["config"] for op in a] != [op["config"] for op in c]
        expected = [k for k, count in workloads.ROUNDS[workload] for _ in range(count)]
        assert [op["kind"] for op in a] == expected


def _ctx():
    import gitstab.config
    import gitstab.filtration

    return {"cli": run.import_cli(), "config": gitstab.config, "filtration": gitstab.filtration}


def _one_op(workload, kind, folder):
    op = workloads.make_op(kind, random.Random(11))
    run.write_round([op], folder, 0)
    seconds, out, err = run.run_op(_ctx(), workload, op)
    assert err is None and seconds > 0
    return run.check_op(workload, op, out)


def test_one_op_per_workload():
    with tempfile.TemporaryDirectory() as folder:
        for workload, kind in (
            ("lattice-scan", "mixed4"),
            ("lattice-scan", "transverse3"),
            ("filtration-tower", "nested"),
            ("filtration-tower", "blocks3"),
            ("numeric-check", "hidden_violator"),
        ):
            bad = _one_op(workload, kind, folder)
            assert set(bad) <= {run.KNOWN_DEFECT}, (workload, kind, bad)


def test_oracle_catches_wrong_certificate():
    data = workloads.config(2, 1, [([[1, 0]], 5), ([[0, 1]], 1)])
    c = oracle.Config(data)
    good = {"status": "Unstable", "certificate": [["1", "0"]], "mu": "4", "slope": "3"}
    assert oracle.check_verdict(c, good) == []
    wrong = dict(good, certificate=[["0", "1"]])
    assert "unstable_certificate" in oracle.check_verdict(c, wrong)
    stable = dict(good, status="Stable", certificate=None, mu=None)
    assert "normalized_weight" in oracle.check_verdict(c, stable)


def test_tracer_counts_match_caches():
    with tempfile.TemporaryDirectory() as folder:
        ctx = _ctx()
        op = workloads.make_op("nested", random.Random(2))
        run.write_round([op], folder, 0)
        tracing.clear_caches()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tally = run.Tally()
            run.run_round(ctx, "filtration-tower", [op], tally, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.per_layer(tracer, tally.ops)
    assert metrics["filtration.hn_filtration.calls"][0] == 2
    assert metrics["linalg.meet.calls"][0] > 0
    assert 0 <= metrics["linalg.meet.hit_ratio"][0] <= 1
    import gitstab.cli
    import gitstab.stability

    assert not hasattr(gitstab.stability.decide, "__wrapped__")
    assert gitstab.cli.decide is gitstab.stability.decide


def test_installer_fails_on_missed_binding(monkeypatch):
    monkeypatch.setattr(
        tracing, "BINDERS", [m for m in tracing.BINDERS if m != "gitstab.config"]
    )
    tracer = tracing.Tracer()
    try:
        with pytest.raises(RuntimeError, match="still bound unwrapped"):
            tracer.install()
    finally:
        tracer.uninstall()


def test_per_layer_fails_when_a_call_bypasses_the_wrapper():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a = span([[1, 0]], 2)
        tracer._cached["meet"](a, a)
    finally:
        tracer.uninstall()
    with pytest.raises(RuntimeError, match="binding was missed"):
        tracing.per_layer(tracer, 1)


def test_hd_quantile():
    values = [float(i) for i in range(1, 101)]
    assert abs(run.hd_quantile(values, 0.5) - 50.5) < 1e-6
    assert abs(run.hd_quantile(values, 0.9) - 90.5) < 1e-3
    # a gap between two classes at the quantile: the estimate lands between
    # them instead of on either edge
    gap = [1.0] * 89 + [100.0] * 11
    assert 1.0 < run.hd_quantile(gap, 0.9) < 100.0
