"""Command-line interface: JSON in, JSON report out.

Exit codes: 0 on success, 1 when --expect contradicts the computed result
(or a built-in suite case fails), 2 on input errors.  Reports are
deterministic for identical inputs and seed; --no-timestamp drops the
wall-clock fields so test harnesses can compare bytes.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .balance import (
    SampledBundleConfig,
    balance_solve,
    bundle_balance_solve,
)
from .cone import ConeSpec, conjecture_probe, hypersimplex_membership
from .config import (
    ConfigSchemaError,
    WeightedConfiguration,
    _is_count,
    config_from_dict,
    config_to_dict,
    subspace_from_lists,
)
from .corpus import all_cases, check_case, corpus_summary
from .filtration import (
    MFiltration,
    RefinementObstruction,
    hn_filtration,
    jh_filtration,
    mfiltration,
    mfiltration_to_config,
    tensor_filtrations,
)
from .gm import PackedPointError, gale_transform, gm_forward, orbit_equivalent
from .linalg import Subspace, format_rational, parse_rational
from .stability import decide, exactify_destabilizer, mu_lambda_s


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw.decode("utf-8")), digest
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not valid UTF-8 JSON ({exc})") from exc


def parse_config(path: str):
    """Load a configuration, bundle sample, or filtration family file."""
    data, digest = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    try:
        if "points" in data:
            return _bundle_from_dict(data), digest
        if "filtrations" in data:
            return _mfiltration_from_dict(data), digest
        return config_from_dict(data), digest
    except (ConfigSchemaError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _require_config(obj, path: str) -> WeightedConfiguration:
    if not isinstance(obj, WeightedConfiguration):
        raise InputError(f"{path}: expected a configuration file")
    return obj


def _complex_entry(raw, where: str) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    if isinstance(raw, list) and len(raw) == 2:
        return complex(float(raw[0]), float(raw[1]))
    raise InputError(f"{where}: entries must be numbers or [re, im] pairs")


def _bundle_from_dict(data: dict) -> SampledBundleConfig:
    for key in ("N", "points", "weights", "ranks"):
        if key not in data:
            raise InputError(f"missing field: {key}")
    n = data["N"]
    ranks = tuple(int(r) for r in data["ranks"])
    weights = tuple(float(parse_rational(w)) for w in data["weights"])
    points = []
    for t, entry in enumerate(data["points"]):
        if not isinstance(entry, dict) or "volume" not in entry or "frames" not in entry:
            raise InputError(f"points[{t}]: needs volume and frames")
        frames = []
        for i, rows in enumerate(entry["frames"]):
            where = f"points[{t}].frames[{i}]"
            mat = np.array(
                [[_complex_entry(x, where) for x in row] for row in rows],
                dtype=complex,
            )
            frames.append(mat)
        points.append((float(entry["volume"]), tuple(frames)))
    return SampledBundleConfig(
        n_ambient=n, weights=weights, ranks=ranks, points=tuple(points)
    )


def _mfiltration_from_dict(data: dict) -> MFiltration:
    if "n" not in data:
        raise InputError("missing field: n")
    n = data["n"]
    if not _is_count(n):
        raise InputError("n: must be a positive integer")
    chains = []
    for s, raw_chain in enumerate(data["filtrations"]):
        chain = []
        for j, step in enumerate(raw_chain):
            where = f"filtrations[{s}][{j}]"
            if not isinstance(step, dict) or "weight" not in step or "basis" not in step:
                raise InputError(f"{where}: needs weight and basis")
            sub = subspace_from_lists(step["basis"], n, f"{where}.basis")
            try:
                w = parse_rational(step["weight"])
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise InputError(f"{where}.weight: bad rational ({exc})") from exc
            chain.append((sub, w))
        chains.append(chain)
    return mfiltration(n, chains)


def _load_extras(path: Optional[str], ambient: int) -> tuple:
    if path is None:
        return ()
    data, _ = _read_json(path)
    if isinstance(data, dict) and "subspaces" in data:
        data = data["subspaces"]
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a list of bases")
    out = []
    for i, basis in enumerate(data):
        try:
            out.append(subspace_from_lists(basis, ambient, f"subspaces[{i}]"))
        except (ConfigSchemaError, ValueError) as exc:
            raise InputError(f"{path}: {exc}") from exc
    return tuple(out)


def _basis_lists(sub: Optional[Subspace]):
    if sub is None:
        return None
    return [[format_rational(x) for x in row] for row in sub.rows]


def _verdict_dict(v) -> dict:
    return {
        "status": v.status.value,
        "confidence": v.confidence.value,
        "certificate": _basis_lists(v.certificate),
        "summands": None
        if v.summands is None
        else [_basis_lists(s) for s in v.summands],
        "slope": None if v.slope is None else str(v.slope),
        "certificate_slope": None
        if v.certificate_slope is None
        else str(v.certificate_slope),
        "mu": None if v.mu is None else str(v.mu),
        "candidate_digest": v.candidate_digest,
        "depth": v.depth,
    }


def _flag_dict(flag) -> list:
    return [_basis_lists(step) for step in flag.steps]


def _graded_dict(report) -> list:
    return [
        {
            "slope": str(step.slope),
            "status": step.verdict.status.value,
            "confidence": step.verdict.confidence.value,
            "n": step.config.n,
            "d": step.config.d,
        }
        for step in report
    ]


def _matrix_lists(m) -> list:
    return [[format_rational(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _metric_lists(h: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in h]


def _mfiltration_dict(f: MFiltration) -> dict:
    return {
        "n": f.n,
        "filtrations": [
            [
                {"weight": format_rational(w), "basis": _basis_lists(sub)}
                for sub, w in chain
            ]
            for chain in f.filtrations
        ],
    }


class _Runner:
    """Collects the report envelope and decides the exit code."""

    def __init__(self, args, command: str):
        self.args = args
        self.command = command
        self.started = time.monotonic()
        self.inputs: list = []
        self.exit_code = 0

    def add_input(self, path: str, digest: str):
        self.inputs.append({"path": path, "sha256": digest})

    def check_expect(self, actual: str) -> Optional[dict]:
        wanted = getattr(self.args, "expect", None)
        if wanted is None:
            return None
        matched = wanted.lower() == actual.lower()
        if not matched:
            self.exit_code = 1
        return {"wanted": wanted, "got": actual, "matched": matched}

    def emit(self, result: dict, seed=None, params=None) -> int:
        report = {
            "command": self.command,
            "version": __version__,
            "inputs": self.inputs,
            "result": result,
        }
        if params is not None:
            report["params"] = params
        if seed is not None:
            report["seed"] = seed
        if not self.args.no_timestamp:
            report["timestamp"] = datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat()
            report["elapsed_seconds"] = round(time.monotonic() - self.started, 6)
        print(json.dumps(report, indent=2, sort_keys=True))
        return self.exit_code


def cmd_check(args) -> int:
    run = _Runner(args, "check")
    obj, digest = parse_config(args.config)
    c = _require_config(obj, args.config)
    run.add_input(args.config, digest)
    extras = _load_extras(args.extra_h, c.n)
    v = decide(c, args.depth, numeric=args.numeric, extra=extras)
    result = _verdict_dict(v)
    expect = run.check_expect(v.status.value)
    if expect is not None:
        result["expect"] = expect
    return run.emit(result)


def cmd_hn(args) -> int:
    run = _Runner(args, "hn")
    obj, digest = parse_config(args.config)
    c = _require_config(obj, args.config)
    run.add_input(args.config, digest)
    extras = _load_extras(args.extra_h, c.n)
    flag, graded = hn_filtration(c, args.depth, extra=extras)
    result = {
        "flag": _flag_dict(flag),
        "graded": _graded_dict(graded),
        "slopes": [str(step.slope) for step in graded],
    }
    return run.emit(result)


def cmd_jh(args) -> int:
    run = _Runner(args, "jh")
    obj, digest = parse_config(args.config)
    c = _require_config(obj, args.config)
    run.add_input(args.config, digest)
    extras = _load_extras(args.extra_h, c.n)
    try:
        flag, graded = jh_filtration(c, args.depth, extra=extras)
    except (RefinementObstruction, ValueError) as exc:
        run.exit_code = 1
        return run.emit({"error": str(exc)})
    result = {
        "flag": _flag_dict(flag),
        "graded": _graded_dict(graded),
        "slopes": [str(step.slope) for step in graded],
    }
    return run.emit(result)


def cmd_balance(args) -> int:
    run = _Runner(args, "balance")
    obj, digest = parse_config(args.config)
    c = _require_config(obj, args.config)
    run.add_input(args.config, digest)
    r = balance_solve(c, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    certificates = []
    for hint in r.destabilizer_hint or ():
        h = exactify_destabilizer(c, hint, args.depth)
        if h is None:
            continue
        mu = mu_lambda_s(c, h)
        if mu > 0:
            certificates.append({"basis": _basis_lists(h), "mu": str(mu)})
    result = {
        "status": r.status.value,
        "residual": r.residual,
        "iterations": r.iterations,
        "kn_value": r.kn_value,
        "metric": _metric_lists(r.metric.matrix),
        "certificates": certificates,
    }
    expect = run.check_expect(r.status.value)
    if expect is not None:
        result["expect"] = expect
    return run.emit(result, seed=args.seed)


def cmd_bundle_balance(args) -> int:
    run = _Runner(args, "bundle-balance")
    obj, digest = parse_config(args.bundle)
    if not isinstance(obj, SampledBundleConfig):
        raise InputError(f"{args.bundle}: expected a bundle sample file")
    run.add_input(args.bundle, digest)
    r = bundle_balance_solve(obj, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    result = {
        "status": r.status.value,
        "residual": r.residual,
        "iterations": r.iterations,
        "kn_value": r.kn_value,
        "metric": _metric_lists(r.metric.matrix),
        "metric_agreement": r.metric_agreement,
    }
    expect = run.check_expect(r.status.value)
    if expect is not None:
        result["expect"] = expect
    return run.emit(result, seed=args.seed)


def cmd_gm(args) -> int:
    run = _Runner(args, "gm")
    obj, digest = parse_config(args.config)
    c = _require_config(obj, args.config)
    run.add_input(args.config, digest)
    try:
        p = gm_forward(c)
    except PackedPointError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    total = sum(p.blocks)
    result = {
        "matrix": _matrix_lists(p.matrix),
        "blocks": list(p.blocks),
        "weights": None
        if p.weights is None
        else [format_rational(w) for w in p.weights],
        # Free-action heuristics from the correspondence are recorded,
        # not verified.
        "conditions": {
            "n_less_than_total": c.n < total,
            "square_bound": c.n * c.n <= sum(k * (c.n - k) for k in p.blocks),
        },
    }
    return run.emit(result)


def cmd_gale(args) -> int:
    run = _Runner(args, "gale")
    obj, digest = parse_config(args.config)
    c = _require_config(obj, args.config)
    run.add_input(args.config, digest)
    try:
        g = gale_transform(c)
    except PackedPointError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    return run.emit({"config": config_to_dict(g)})


def cmd_orbit_eq(args) -> int:
    run = _Runner(args, "orbit-eq")
    obj_a, dig_a = parse_config(args.config_a)
    obj_b, dig_b = parse_config(args.config_b)
    a = _require_config(obj_a, args.config_a)
    b = _require_config(obj_b, args.config_b)
    run.add_input(args.config_a, dig_a)
    run.add_input(args.config_b, dig_b)
    try:
        r = orbit_equivalent(a, b, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = {
        "status": r.status.value,
        "witness": None if r.witness is None else _matrix_lists(r.witness),
    }
    expect = run.check_expect(r.status.value)
    if expect is not None:
        result["expect"] = expect
    return run.emit(result, seed=args.seed)


def cmd_tensor(args) -> int:
    run = _Runner(args, "tensor")
    obj_a, dig_a = parse_config(args.filt_a)
    obj_b, dig_b = parse_config(args.filt_b)
    if not isinstance(obj_a, MFiltration) or not isinstance(obj_b, MFiltration):
        raise InputError("tensor expects two filtration-family files")
    run.add_input(args.filt_a, dig_a)
    run.add_input(args.filt_b, dig_b)
    try:
        out = tensor_filtrations(obj_a, obj_b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = {"filtration": _mfiltration_dict(out)}
    try:
        result["flattened_config"] = config_to_dict(mfiltration_to_config(out))
    except (ConfigSchemaError, ValueError):
        # Product of trivial filtrations has no proper steps to flatten.
        result["flattened_config"] = None
    return run.emit(result)


def _parse_k(raw: str) -> tuple:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise InputError(f"--k: expected comma-separated integers ({exc})") from exc


def _parse_weights(raw: str) -> tuple:
    try:
        return tuple(parse_rational(part) for part in raw.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--weights: bad rational ({exc})") from exc


def cmd_cone(args) -> int:
    run = _Runner(args, "cone")
    k = _parse_k(args.k)
    weights = _parse_weights(args.weights)
    try:
        spec = ConeSpec(args.n, k)
        report = hypersimplex_membership(spec, weights)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = {
        "n": args.n,
        "k": list(k),
        "weights": [format_rational(w) for w in weights],
        "x": [format_rational(x) for x in report.x],
        "region": report.region.value,
    }
    expect = run.check_expect(report.region.value)
    if expect is not None:
        result["expect"] = expect
    return run.emit(result)


def cmd_probe(args) -> int:
    run = _Runner(args, "probe")
    k = _parse_k(args.k)
    weights = _parse_weights(args.weights)
    try:
        spec = ConeSpec(args.n, k)
        report = conjecture_probe(
            spec,
            weights,
            trials=args.trials,
            seed=args.seed,
            depth=args.depth,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = {
        "n": args.n,
        "k": list(k),
        "weights": [format_rational(w) for w in weights],
        "region": report.membership.region.value,
        "x": [format_rational(x) for x in report.membership.x],
        "trials": report.trials,
        "counts": report.counts,
        "fraction_semistable": report.fraction_semistable,
        "fraction_stable": report.fraction_stable,
    }
    return run.emit(result, seed=args.seed)


def cmd_corpus(args) -> int:
    run = _Runner(args, "corpus")
    reports = [check_case(case, args.depth) for case in all_cases()]
    summary = corpus_summary(reports)
    if summary["passed"] != summary["total"]:
        run.exit_code = 1
    return run.emit(summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gitstab",
        description="Stability verdicts for weighted subspace configurations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth=False, expect=False, solver=False, seed=False):
        p.add_argument("--no-timestamp", action="store_true")
        if depth:
            p.add_argument("--depth", type=int, default=3)
        if expect:
            p.add_argument("--expect", type=str, default=None)
        if solver:
            p.add_argument("--tol", type=float, default=1e-10)
            p.add_argument("--max-iter", type=int, default=10_000)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check", help="stability verdict for a configuration")
    p.add_argument("config")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--extra-h", type=str, default=None)
    common(p, depth=True, expect=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hn", help="maximal-slope filtration")
    p.add_argument("config")
    p.add_argument("--extra-h", type=str, default=None)
    common(p, depth=True)
    p.set_defaults(func=cmd_hn)

    p = sub.add_parser("jh", help="equal-slope refinement")
    p.add_argument("config")
    p.add_argument("--extra-h", type=str, default=None)
    common(p, depth=True)
    p.set_defaults(func=cmd_jh)

    p = sub.add_parser("balance", help="moment-map descent on a configuration")
    p.add_argument("config")
    common(p, depth=True, expect=True, solver=True, seed=True)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("bundle-balance", help="descent on a sampled bundle")
    p.add_argument("bundle")
    common(p, expect=True, solver=True, seed=True)
    p.set_defaults(func=cmd_bundle_balance)

    p = sub.add_parser("gm", help="pack a configuration into one matrix")
    p.add_argument("config")
    common(p)
    p.set_defaults(func=cmd_gm)

    p = sub.add_parser("gale", help="kernel dual of a packed configuration")
    p.add_argument("config")
    common(p)
    p.set_defaults(func=cmd_gale)

    p = sub.add_parser("orbit-eq", help="test two configurations for a common orbit")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.add_argument("--trials", type=int, default=16)
    common(p, expect=True, seed=True)
    p.set_defaults(func=cmd_orbit_eq)

    p = sub.add_parser("tensor", help="tensor product of two filtration families")
    p.add_argument("filt_a")
    p.add_argument("filt_b")
    common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("cone", help="weight-region membership")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=str, required=True)
    p.add_argument("--weights", type=str, required=True)
    common(p, expect=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("probe", help="random sampling evidence for a weight region")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=str, required=True)
    p.add_argument("--weights", type=str, required=True)
    p.add_argument("--trials", type=int, default=20)
    common(p, depth=True, seed=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("corpus", help="run the built-in reference suite")
    common(p, depth=True)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(
            json.dumps(
                {"command": args.command, "error": str(exc), "version": __version__},
                indent=2,
                sort_keys=True,
            )
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
