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
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .balance import (
    FloatRangeError,
    SampledBundleConfig,
    balance_solve,
    bundle_balance_solve,
)
from .cone import ConeSpec, conjecture_probe, hypersimplex_membership
from .config import (
    MAX_AMBIENT,
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
from .stability import candidate_subspaces, decide, exactify_destabilizer, mu_lambda_s


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
    except ValueError as exc:  # also bad UTF-8, and integers past 4300 digits
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
    except (ConfigSchemaError, ValueError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _is_number(raw) -> bool:
    """A JSON number; JSON true and false are not numbers."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _float(raw, where: str) -> float:
    """A JSON number as a float; integers past the float range, and the
    NaN and Infinity that Python's json accepts, are refused."""
    try:
        x = float(raw)
    except OverflowError as exc:
        raise InputError(f"{where}: number too large") from exc
    if not math.isfinite(x):
        raise InputError(f"{where}: number must be finite")
    return x


def _complex_entry(raw, where: str) -> complex:
    if _is_number(raw):
        return complex(_float(raw, where))
    if isinstance(raw, list) and len(raw) == 2 and all(map(_is_number, raw)):
        return complex(_float(raw[0], where), _float(raw[1], where))
    raise InputError(f"{where}: entries must be numbers or [re, im] pairs")


def _list_field(value, where: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{where}: must be a list")
    return value


def _bundle_from_dict(data: dict) -> SampledBundleConfig:
    for key in ("N", "points", "weights", "ranks"):
        if key not in data:
            raise InputError(f"missing field: {key}")
    n = data["N"]
    if not _is_count(n):
        raise InputError("N: must be a positive integer")
    ranks = []
    for i, r in enumerate(_list_field(data["ranks"], "ranks")):
        if not _is_count(r):
            raise InputError(f"ranks[{i}]: must be a positive integer")
        ranks.append(r)
    weights = []
    for i, w in enumerate(_list_field(data["weights"], "weights")):
        try:
            weights.append(float(parse_rational(w)))
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise InputError(f"weights[{i}]: bad rational ({exc})") from exc
    points = []
    for t, entry in enumerate(_list_field(data["points"], "points")):
        if not isinstance(entry, dict) or "volume" not in entry or "frames" not in entry:
            raise InputError(f"points[{t}]: needs volume and frames")
        volume = entry["volume"]
        if not _is_number(volume):
            raise InputError(f"points[{t}].volume: must be a number")
        frames = []
        for i, rows in enumerate(_list_field(entry["frames"], f"points[{t}].frames")):
            where = f"points[{t}].frames[{i}]"
            entries = [
                [_complex_entry(x, where) for x in _list_field(row, where)]
                for row in _list_field(rows, where)
            ]
            frames.append(np.array(entries, dtype=complex))
        points.append((_float(volume, f"points[{t}].volume"), tuple(frames)))
    return SampledBundleConfig(
        n_ambient=n, weights=tuple(weights), ranks=tuple(ranks), points=tuple(points)
    )


def _mfiltration_from_dict(data: dict) -> MFiltration:
    if "n" not in data:
        raise InputError("missing field: n")
    n = data["n"]
    if not _is_count(n):
        raise InputError("n: must be a positive integer")
    if n > MAX_AMBIENT:
        raise InputError(f"n: must be at most {MAX_AMBIENT}")
    chains = []
    for s, raw_chain in enumerate(_list_field(data["filtrations"], "filtrations")):
        chain = []
        for j, step in enumerate(_list_field(raw_chain, f"filtrations[{s}]")):
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
    return None if sub is None else sub.basis_rows()


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


def _filtration_result(flag, graded) -> dict:
    return {
        "flag": [_basis_lists(step) for step in flag.steps],
        "graded": [
            {
                "slope": str(step.slope),
                "status": step.verdict.status.value,
                "confidence": step.verdict.confidence.value,
                "n": step.config.n,
                "d": step.config.d,
            }
            for step in graded
        ],
        "slopes": [str(step.slope) for step in graded],
    }


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

    def load(self, path: str, kind=WeightedConfiguration, what="configuration"):
        """Parse an input file of the given kind and record its digest."""
        obj, digest = parse_config(path)
        if not isinstance(obj, kind):
            raise InputError(f"{path}: expected a {what} file")
        self.inputs.append({"path": path, "sha256": digest})
        return obj

    def emit(self, result: dict, seed=None, actual: Optional[str] = None) -> int:
        """Print the report; with --expect, compare it against actual."""
        wanted = getattr(self.args, "expect", None)
        if wanted is not None and actual is not None:
            matched = wanted.lower() == actual.lower()
            if not matched:
                self.exit_code = 1
            result["expect"] = {"wanted": wanted, "got": actual, "matched": matched}
        report = {
            "command": self.command,
            "version": __version__,
            "inputs": self.inputs,
            "result": result,
        }
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
    c = run.load(args.config)
    extras = _load_extras(args.extra_h, c.n)
    try:
        v = decide(c, args.depth, numeric=args.numeric, extra=extras)
    except FloatRangeError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    return run.emit(_verdict_dict(v), actual=v.status.value)


def cmd_hn(args) -> int:
    run = _Runner(args, "hn")
    c = run.load(args.config)
    extras = _load_extras(args.extra_h, c.n)
    return run.emit(_filtration_result(*hn_filtration(c, args.depth, extra=extras)))


def cmd_jh(args) -> int:
    run = _Runner(args, "jh")
    c = run.load(args.config)
    extras = _load_extras(args.extra_h, c.n)
    try:
        flag, graded = jh_filtration(c, args.depth, extra=extras)
    except (RefinementObstruction, ValueError) as exc:
        run.exit_code = 1
        return run.emit({"error": str(exc)})
    return run.emit(_filtration_result(flag, graded))


def cmd_balance(args) -> int:
    run = _Runner(args, "balance")
    c = run.load(args.config)
    try:
        r = balance_solve(c, tol=args.tol, max_iter=args.max_iter)
    except FloatRangeError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    certificates = []
    hints = r.destabilizer_hint or ()
    cands = candidate_subspaces(c, args.depth) if hints else ()
    for hint in hints:
        h = exactify_destabilizer(c, hint, cands)
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
    return run.emit(result, actual=r.status.value)


def cmd_bundle_balance(args) -> int:
    run = _Runner(args, "bundle-balance")
    b = run.load(args.bundle, SampledBundleConfig, "bundle sample")
    r = bundle_balance_solve(b, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    result = {
        "status": r.status.value,
        "residual": r.residual,
        "iterations": r.iterations,
        "kn_value": r.kn_value,
        "metric": _metric_lists(r.metric.matrix),
        "metric_agreement": r.metric_agreement,
    }
    return run.emit(result, seed=args.seed, actual=r.status.value)


def cmd_gm(args) -> int:
    run = _Runner(args, "gm")
    c = run.load(args.config)
    try:
        p = gm_forward(c)
    except PackedPointError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    total = sum(p.blocks)
    result = {
        "matrix": p.matrix.to_strings(),
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
    c = run.load(args.config)
    try:
        g = gale_transform(c)
    except PackedPointError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    return run.emit({"config": config_to_dict(g)})


def cmd_orbit_eq(args) -> int:
    run = _Runner(args, "orbit-eq")
    a = run.load(args.config_a)
    b = run.load(args.config_b)
    try:
        r = orbit_equivalent(a, b, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = {
        "status": r.status.value,
        "witness": None if r.witness is None else r.witness.to_strings(),
    }
    return run.emit(result, seed=args.seed, actual=r.status.value)


def cmd_tensor(args) -> int:
    run = _Runner(args, "tensor")
    fa = run.load(args.filt_a, MFiltration, "filtration-family")
    fb = run.load(args.filt_b, MFiltration, "filtration-family")
    try:
        out = tensor_filtrations(fa, fb)
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
    return run.emit(result, actual=report.region.value)


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


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {raw}")
    return value


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {raw}")
    return value


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {raw}")
    return value


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
            p.add_argument("--depth", type=_positive_int, default=3)
        if expect:
            p.add_argument("--expect", type=str, default=None)
        if solver:
            p.add_argument("--tol", type=_positive_float, default=1e-10)
            p.add_argument("--max-iter", type=_nonnegative_int, default=10_000)
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
    common(p, depth=True, expect=True, solver=True)
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
    p.add_argument("--trials", type=_nonnegative_int, default=16)
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
    p.add_argument("--trials", type=_nonnegative_int, default=20)
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
