"""gitstab benchmark: three CLI workloads with exact output checks.

    python3 bench/run.py --workload lattice-scan --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
op calls ``gitstab.cli.main([..., "--no-timestamp"])`` in-process with stdout
captured, so it times what a user of ``check``/``hn``/``jh`` waits for minus
interpreter start, which ``setup_s`` covers instead.  Every output is checked
by ``oracle.py`` outside the timer.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a batch
untraced, then the same batch again with every layer wrapped in spans, and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# one process, one core's worth of BLAS; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GITSTAB_THREADS", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

import oracle  # noqa: E402
import workloads  # noqa: E402

WHY = {
    "lattice-scan": "gitstab check on generic inputs with large candidate lattices: exact-kernel row reduction and lattice growth dominate; carries the transverse-plane defect",
    "filtration-tower": "hn, transported hn, jh and polystable_split per input rebuild one lattice many times, so lattice sharing and cache changes show here",
    "numeric-check": "check --numeric on small inputs reaching Balanced, Diverged and MaxIter: the float descent dominates, so exact-kernel changes should not move it",
}

# every run measures at least this many ops, so ten or more lie beyond p90
MIN_OPS = 100
SETUP_PROBES = 5
# the ROADMAP 3 defect: pairwise-transverse plane families judged Stable
KNOWN_DEFECT = "transverse_planes_judged_stable"
TRANSVERSE = ("transverse3", "transverse4", "foth")


def import_cli():
    """gitstab.cli from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gitstab", "cli.py")):
        raise SystemExit(f"bench: no gitstab sources under {SRC}")
    sys.path.insert(0, SRC)
    import gitstab.cli

    if not os.path.abspath(gitstab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: gitstab imported from {gitstab.cli.__file__}")
    return gitstab.cli


# -- inputs ------------------------------------------------------------------


def _dump(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def write_round(ops: list, folder: str, first: int) -> None:
    """Write each op's files and store their paths on the op."""
    for i, op in enumerate(ops, start=first):
        op["path"] = os.path.join(folder, f"{i}.json")
        _dump(op["path"], op["config"])
        if op["extra"] is not None:
            op["extra_path"] = os.path.join(folder, f"{i}x.json")
            _dump(op["extra_path"], [[[str(x) for x in r] for r in s] for s in op["extra"]])
        if op["g"] is not None:
            g = [[Fraction(x) for x in row] for row in op["g"]]
            moved = dict(op["config"])
            moved["items"] = [
                {
                    "weight": it["weight"],
                    "basis": [
                        [str(x) for x in r]
                        for r in oracle.act(g, oracle.rows_of(it["basis"]), moved["n"], 1)
                    ],
                }
                for it in op["config"]["items"]
            ]
            op["moved_path"] = os.path.join(folder, f"{i}g.json")
            _dump(op["moved_path"], moved)


# -- ops -----------------------------------------------------------------------


def _cli(cli, argv: list):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv + ["--no-timestamp"])
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def run_op(ctx, workload: str, op: dict):
    """Time one op; returns (seconds, raw outputs or None, error kind)."""
    cli = ctx["cli"]
    t0 = time.perf_counter()
    try:
        if workload == "filtration-tower":
            out = {
                "hn": _cli(cli, ["hn", op["path"]]),
                "hn_moved": _cli(cli, ["hn", op["moved_path"]]),
                "jh": _cli(cli, ["jh", op["path"]]),
            }
            with open(op["path"], encoding="utf-8") as fh:
                c = ctx["config"].config_from_dict(json.load(fh))
            out["split"] = ctx["filtration"].polystable_split(c)
        else:
            argv = ["check", op["path"], "--depth", str(op["depth"])]
            if workload == "numeric-check":
                argv.append("--numeric")
            if op["extra"] is not None:
                argv += ["--extra-h", op["extra_path"]]
            out = {"check": _cli(cli, argv)}
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, None, f"raised_{type(exc).__name__}"
    return time.perf_counter() - t0, out, None


def _result(rc_out, allowed=(0,)):
    rc, text = rc_out
    if rc not in allowed:
        return None, [f"exit_{rc}"]
    return json.loads(text)["result"], []


def _expectations(op: dict, status: str) -> list[str]:
    bad = []
    if "semistable" in op["expect"] and status not in oracle.SEMISTABLE:
        bad.append("judged_unstable")
    if "not_stable" in op["expect"] and status == "Stable":
        bad.append(KNOWN_DEFECT if op["kind"] in TRANSVERSE else "judged_stable")
    return bad


def check_op(workload: str, op: dict, out: dict) -> list[str]:
    """Failed check kinds for one op's outputs (empty when all hold)."""
    c = oracle.Config(op["config"])
    if workload != "filtration-tower":
        res, bad = _result(out["check"])
        if res is None:
            return bad
        return oracle.check_verdict(c, res) + _expectations(op, res["status"])
    hn, bad = _result(out["hn"])
    moved, bad_m = _result(out["hn_moved"])
    jh, bad_j = _result(out["jh"], allowed=(0, 1))
    bad += bad_m + bad_j
    if bad:
        return bad
    bad = oracle.check_hn(c, hn)
    g = [[Fraction(x) for x in row] for row in op["g"]]
    bad += oracle.check_transport(c, g, hn["flag"], moved["flag"])
    if moved["slopes"] != hn["slopes"]:
        bad.append("hn_transport")
    semistable = len(hn["flag"]) == 2
    if out["jh"][0] == 1:
        if semistable:
            bad.append("jh_refused_semistable")
    elif not semistable:
        bad.append("jh_accepted_unstable")
    else:
        bad += oracle.check_jh(c, jh)
    v = out["split"]
    split = {
        "status": v.status.value,
        "certificate": None if v.certificate is None else [list(r) for r in v.certificate.rows],
        "mu": None if v.mu is None else str(v.mu),
        "slope": None if v.slope is None else str(v.slope),
    }
    bad += oracle.check_verdict(c, split)
    if (split["status"] in oracle.SEMISTABLE) != semistable:
        bad.append("split_hn_disagree")
    if split["status"] == "Polystable":
        bad += oracle.check_split(c, [[list(r) for r in s.rows] for s in v.summands])
    return bad + _expectations(op, split["status"])


# Machine-speed reference: exact rank of fixed Fraction matrices, the same
# kind of work as the package's kernel.  On a shared 2-vCPU x86-64 VM the
# speed of identical single-threaded code swings by up to 1.9x within
# seconds, with CPU time equal to wall time (contention, not descheduling),
# so the reference is timed between ops and every op is rescaled by the
# samples around it (Tally.latency).  REF_NOMINAL_S is the reference's time
# at that VM's fast speed; rescaled times read as "seconds on a machine
# where the reference takes REF_NOMINAL_S".
_REF_RNG = random.Random(0)
REF_MATRICES = [
    [[Fraction(_REF_RNG.randint(-9, 9)) for _ in range(8)] for _ in range(8)]
    for _ in range(4)
]
REF_NOMINAL_S = 0.003


def reference() -> float:
    """Median of three timings of the reference kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for m in REF_MATRICES:
            oracle.rank(m)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Tally:
    """Per-op times, classes and failure kinds of one pass, with the
    reference samples taken between ops."""

    def __init__(self):
        self.raw: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.kind_of: list[str] = []
        self.refs: list[tuple[float, float]] = []
        self.kinds: dict[str, int] = {}
        self.failed = 0

    def sample(self) -> None:
        self.refs.append((time.perf_counter(), reference()))

    def add(self, op: dict, start: float, seconds: float, bad: list[str]) -> None:
        self.raw.append(seconds)
        self.spans.append((start, start + seconds))
        self.kind_of.append(op["kind"])
        if bad:
            self.failed += 1
            for kind in set(bad):
                self.kinds[kind] = self.kinds.get(kind, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.raw += other.raw
        self.spans += other.spans
        self.kind_of += other.kind_of
        self.refs += other.refs
        self.failed += other.failed
        for k, v in other.kinds.items():
            self.kinds[k] = self.kinds.get(k, 0) + v

    @property
    def ops(self) -> int:
        return len(self.raw)

    @property
    def busy(self) -> float:
        return sum(self.raw)

    def latency(self) -> list[float]:
        """Op times rescaled to REF_NOMINAL_S.

        An op of length d is rescaled by the mean of the reference samples
        taken from d before it starts to d after it ends, and at least the
        samples just before and just after it: a short op by its neighbours,
        a long one by the speed over a stretch as long as itself on each
        side.
        """
        times = [t for t, _ in self.refs]
        out = []
        for (start, end), seconds in zip(self.spans, self.raw):
            lo = min(bisect.bisect_left(times, start - seconds), bisect.bisect_left(times, start) - 1)
            hi = max(bisect.bisect_right(times, end + seconds), bisect.bisect_right(times, end) + 1)
            window = [r for _, r in self.refs[max(lo, 0):hi]]
            out.append(seconds * REF_NOMINAL_S / statistics.fmean(window))
        return out

    def classes(self, latency: list[float]) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, value in zip(self.kind_of, latency):
            out.setdefault(kind, []).append(value)
        return out


def run_round(ctx, workload: str, ops: list, tally: Tally, tracer=None) -> None:
    if not tally.refs:
        tally.sample()
    for op in ops:
        span = tracer.begin_op(tally.ops) if tracer else None
        start = time.perf_counter()
        seconds, out, err = run_op(ctx, workload, op)
        if tracer:
            tracer.end_op(span)
        tally.sample()
        tally.add(op, start, seconds, [err] if err else check_op(workload, op, out))


# -- metrics -----------------------------------------------------------------


def hd_quantile(values: list[float], p: float, steps: int = 40) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by a Beta((n+1)p, (n+1)(1-p)) density over their rank
    intervals.  It uses every sample, so a quantile that falls where two
    input classes meet moves smoothly instead of jumping between them."""
    s = sorted(values)
    n = len(s)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    total = weights = 0.0
    for i, value in enumerate(s):
        w = 0.0
        for j in range(steps):
            x = i / n + (j + 0.5) * h
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        total += w * value
        weights += w
    return total / weights


def measure_setup(workload: str, seed: int) -> list[float]:
    """Rescaled wall time of fresh interpreters that import gitstab.cli and
    generate and write the first round of inputs."""
    times, ref = [], reference()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        seconds = time.perf_counter() - t0
        before, ref = ref, reference()
        times.append(seconds * REF_NOMINAL_S * 2 / (before + ref))
    return times


def machine_line() -> str:
    import numpy

    return (
        f"machine: cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} {platform.machine()} {platform.system()}"
    )


def emit(correct: bool, tally: Tally, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def report_checks(tally: Tally, latency: list[float]) -> bool:
    """Print op and failure counts; True unless a check other than the
    known defect failed."""
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(tally.kinds.items())) or "none"
    classes = ", ".join(
        f"{k}={len(v)}/{1000 * statistics.median(v):.4g}ms"
        for k, v in tally.classes(latency).items()
    )
    print(f"ops: {tally.ops} (class=count/median: {classes})")
    print(f"failed_ratio: {tally.failed / tally.ops:.4f} ({tally.failed}/{tally.ops} ops)")
    print(f"failed checks by kind: {kinds}")
    return all(k == KNOWN_DEFECT for k in tally.kinds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    ctx = {"cli": import_cli()}
    import gitstab.config
    import gitstab.filtration

    ctx["config"], ctx["filtration"] = gitstab.config, gitstab.filtration
    os.makedirs(OUT, exist_ok=True)
    folder = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        gen = workloads.rounds(args.workload, args.seed)
        if args.setup_probe:
            write_round(next(gen), folder, 0)
            return 0
        return run(ctx, args, gen, folder)
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def run(ctx, args, gen, folder: str) -> int:
    workload = args.workload
    per_round = sum(count for _, count in workloads.ROUNDS[workload])
    batch = math.ceil(MIN_OPS / per_round)
    print(machine_line())
    print(f"workload: {workload} seed={args.seed} why: {WHY[workload]}")

    if args.trace:
        return run_traced(ctx, args, gen, folder)

    setup = measure_setup(workload, args.seed)
    tally, rounds, rss = Tally(), 0, None
    while rounds < batch or tally.busy < args.seconds:
        ops = next(gen)
        write_round(ops, folder, tally.ops)
        run_round(ctx, workload, ops, tally)
        rounds += 1
        if rounds == batch:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latency = tally.latency()
    correct = report_checks(tally, latency)
    metrics = {
        "ops_per_s": (tally.ops / sum(latency), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latency), "ms"),
        "op_p90_ms": (1000.0 * hd_quantile(latency, 0.9), "ms"),
        "ok_ratio": (1.0 - tally.failed / tally.ops, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {
        "op_p50_ms": f"n={tally.ops}",
        "op_p90_ms": f"n={tally.ops}, Harrell-Davis",
        "peak_rss_mb": f"ru_maxrss after the fixed batch of {batch} rounds",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "ops_per_s": f"{tally.ops} ops in {rounds} rounds, {tally.busy:.2f} s busy; "
        f"raw {tally.ops / tally.busy:.4g} 1/s at machine slowness "
        f"{tally.busy / sum(latency):.3f}",
    }
    for name, (value, unit) in metrics.items():
        extra = f" ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{extra}")
    emit(correct, tally, metrics)
    return 0


def run_traced(ctx, args, gen, folder: str) -> int:
    import tracing

    workload = args.workload
    plain, rounds = Tally(), []
    ops = next(gen)
    write_round(ops, folder, 0)
    # one untimed op first, so that first-call costs (lazy imports) fall
    # on neither pass; both passes then start from cold caches
    run_op(ctx, workload, ops[0])
    tracing.clear_caches()
    while True:
        run_round(ctx, workload, ops, plain)
        rounds.append(ops)
        if plain.busy >= args.seconds / 3:
            break
        ops = next(gen)
        write_round(ops, folder, plain.ops)
    tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    traced = Tally()
    try:
        for ops in rounds:
            run_round(ctx, workload, ops, traced, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer(tracer, traced.ops)
    untraced_s, traced_s = sum(plain.latency()), sum(traced.latency())
    overhead = traced_s - untraced_s
    metrics["trace.overhead_s"] = (overhead / traced.ops, "s/op")
    print(f"traced {traced.ops} ops: {traced_s:.3f} s traced vs {untraced_s:.3f} s "
          f"untraced (raw {traced.busy:.3f} vs {plain.busy:.3f} s), overhead "
          f"{overhead:.3f} s")
    plain.merge(traced)
    correct = report_checks(plain, plain.latency())
    spans = os.path.join(OUT, f"spans-{workload}.csv")
    tracer.write(spans)
    print(f"spans in {os.path.relpath(spans, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    emit(correct, plain, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
