"""Span tracing of gitstab's layers, installed from outside the package.

``install`` replaces each traced function in every ``gitstab`` module that
bound it (each module does ``from .linalg import meet`` and so holds its own
reference), and fails if any binding is left unwrapped.  Spans are kept in
flat arrays and written out at the end; self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from array import array
from time import perf_counter

# (defining module, function name); every span the per-layer metrics need
TRACED = [
    ("gitstab.linalg", "span"),
    ("gitstab.linalg", "meet"),
    ("gitstab.linalg", "join"),
    ("gitstab.config", "intersection_dims"),
    ("gitstab.stability", "candidate_subspaces"),
    ("gitstab.stability", "decide"),
    ("gitstab.stability", "mu_lambda_s"),
    ("gitstab.stability", "exactify_destabilizer"),
    ("gitstab.filtration", "hn_filtration"),
    ("gitstab.filtration", "jh_filtration"),
    ("gitstab.filtration", "polystable_split"),
    ("gitstab.balance", "balance_solve"),
    ("gitstab.cli", "main"),
]

# module namespaces that import the traced names
BINDERS = [
    "gitstab",
    "gitstab.linalg",
    "gitstab.config",
    "gitstab.stability",
    "gitstab.filtration",
    "gitstab.balance",
    "gitstab.cone",
    "gitstab.gm",
    "gitstab.corpus",
    "gitstab.cli",
]

CACHED = ["meet", "join"]

OP = "op"


def _layer(module: str, name: str) -> str:
    return f"{module.split('.')[-1]}.{name}"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_ = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.observed: dict[str, list] = {}
        self._restore: list = []
        self._cached: dict = {}
        self._cache_base: dict = {}

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self._open(0)

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def _wrap(self, name: str, fn, observe):
        nid = len(self.names)
        self.names.append(name)
        sink = self.observed.setdefault(name, []) if observe else None
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if sink is not None:
                sink.append(observe(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        observers = {
            "stability.candidate_subspaces": len,
            "stability.exactify_destabilizer": lambda h: h is not None,
            "balance.balance_solve": lambda r: (r.status.value, r.iterations),
        }
        linalg = importlib.import_module("gitstab.linalg")
        self._cached = {n: getattr(linalg, n) for n in CACHED}
        self._cache_base = {n: fn.cache_info() for n, fn in self._cached.items()}
        binders = [importlib.import_module(m) for m in BINDERS]
        for module, name in TRACED:
            orig = getattr(importlib.import_module(module), name)
            layer = _layer(module, name)
            wrapped = self._wrap(layer, orig, observers.get(layer))
            for mod in binders:
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapped)
                    self._restore.append((mod, name, orig))
            leftover = [
                mod_name
                for mod_name, mod in list(sys.modules.items())
                if mod_name.startswith("gitstab") and getattr(mod, name, None) is orig
            ]
            if leftover:
                raise RuntimeError(f"{layer} still bound unwrapped in {leftover}")

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._restore):
            setattr(mod, name, orig)
        self._restore.clear()

    def cache_deltas(self) -> dict:
        """hits and misses of the meet/join caches since install."""
        out = {}
        for n in CACHED:
            info = self._cached[n].cache_info()
            base = self._cache_base[n]
            out[n] = (info.hits - base.hits, info.misses - base.misses)
        return out

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """calls and self seconds per span name, plus the parent counts the
        ratios need."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        decide = self.names.index("stability.decide")
        mu = self.names.index("stability.mu_lambda_s")
        scans = sum(
            1
            for i in range(n)
            if self.name_[i] == mu and self.parent[i] >= 0 and self.name_[self.parent[i]] == decide
        )
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "mu_under_decide": scans,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n"
                )


def clear_caches() -> None:
    """Empty every lru_cache in the package, so a pass starts cold."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gitstab"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    obj.cache_clear()


def per_layer(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics, counts and self times per op, from one traced pass.

    Raises if the wrapped meet/join call counts disagree with the cache
    statistics, which means some binding escaped the installer.
    """
    s = tracer.summary()
    calls, self_s = s["calls"], s["self_s"]
    deltas = tracer.cache_deltas()
    for n in CACHED:
        hits, misses = deltas[n]
        if calls[f"linalg.{n}"] != hits + misses:
            raise RuntimeError(
                f"linalg.{n}: {calls[f'linalg.{n}']} wrapped calls but "
                f"{hits + misses} cache lookups; a binding was missed"
            )

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer in ("linalg.span", "linalg.meet", "linalg.join", "config.intersection_dims",
                  "stability.decide", "stability.exactify_destabilizer",
                  "filtration.hn_filtration", "filtration.jh_filtration",
                  "filtration.polystable_split", "balance.balance_solve"):
        put(f"{layer}.calls", calls[layer] / ops, "1/op")
        put(f"{layer}.self_s", self_s[layer] / ops, "s/op")
    for n in CACHED:
        hits, misses = deltas[n]
        put(f"linalg.{n}.hit_ratio", ratio(hits, hits + misses), "ratio")
    lattices = tracer.observed["stability.candidate_subspaces"]
    put("stability.candidate_subspaces.calls_per_op", len(lattices) / ops, "1/op")
    put("stability.candidate_subspaces.self_s",
        self_s["stability.candidate_subspaces"] / ops, "s/op")
    put("stability.candidates_per_lattice", ratio(sum(lattices), len(lattices)), "count")
    put("stability.scan_len_per_decide",
        ratio(s["mu_under_decide"], calls["stability.decide"]), "count")
    hits = tracer.observed["stability.exactify_destabilizer"]
    put("stability.exactify_destabilizer.hit_ratio", ratio(sum(hits), len(hits)), "ratio")
    runs = tracer.observed["balance.balance_solve"]
    iters = [it for _, it in runs]
    put("balance.iterations_p50", statistics.median(iters) if iters else 0.0, "count")
    for status, key in (("Balanced", "balanced"), ("Diverged", "diverged"), ("MaxIter", "maxiter")):
        put(f"balance.{key}_ratio",
            ratio(sum(1 for st, _ in runs if st == status), len(runs)), "ratio")
    put("cli.main.self_s", self_s["cli.main"] / ops, "s/op")
    return out
