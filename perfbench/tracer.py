"""Call tracing of foldcat's public functions, installed from outside the
package.

A timed function records one span per call: its name, start, end, the span
that was open when it was called, and the task id.  Hot leaf functions are
only counted, so the tracing cost stays bounded.  A wrapper is installed on
every attribute of every foldcat module that holds the target function, so
names bound by ``from .binom2 import binom_mod2_grid`` are traced where they
are looked up.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TIMED = (
    "gf2sign.verify_thm2", "gf2sign.verify_thm3", "gf2sign.verify_thm5",
    "gf2sign.verify_prop_mdl", "gf2sign.verify_prop_ml_lm",
    "gf2sign.verify_babab", "gf2sign.verify_eps",
    "gf2sign.build_tri", "gf2sign.babab_expand", "gf2sign.sign_diag",
    "gf2sign.hankel_bits",
    "binom2.binom_mod2_grid",
    "cfseries.cf_limit", "cfseries.hankel_lu_rational",
    "cfseries.stieltjes_extract", "cfseries.det_int", "cfseries.word_matrix",
    "cfseries.verify_thm1", "cfseries.verify_thm4", "cfseries.verify_lemma5",
    "cfseries.verify_det_identities", "cfseries.uniqueness_search",
    "catalanz.build_catalan_matrix", "catalanz.nilpotent_exp",
    "catalanz.nilpotent_log", "catalanz.verify_catalan_lu",
    "catalanz.verify_exp_products", "catalanz.check_log_conjecture",
    "catalanz.catalan_gf_mod2",
    "cli.run",
)
COUNTED = (
    "seq.s", "seq.s_tilde", "seq.t_tilde", "seq.mu", "seq.fold_stream",
    "catalanz.catalan",
    "report.VerifyReport.add",
)
CACHED = ("seq.s", "seq.s_tilde", "seq.t_tilde")
ROOT = "bench.task"
PACKAGE = "foldcat"


def _resolve(path: str):
    """(owner, attribute) for a dotted path below the package."""
    owner = sys.modules[f"{PACKAGE}.{path.split('.')[0]}"]
    parts = path.split(".")[1:]
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def seq_cache_metrics() -> dict[str, float]:
    """Hit ratio and entries of the seq caches (read with no tracer installed)."""
    infos = [getattr(*_resolve(path)).cache_info() for path in CACHED]
    hits = sum(i.hits for i in infos)
    looked_up = hits + sum(i.misses for i in infos)
    return {"seq.cache_hit_ratio": hits / looked_up if looked_up else 0.0,
            "seq.cache_entries": sum(i.currsize for i in infos)}


class Tracer:
    """Installs wrappers, keeps spans and counts, and restores the originals."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        # (name index, start, end, parent span index or -1, task id)
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.task = -1
        self._stack = [-1]
        self.patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for path in TIMED:
            self.names.append(path)
            self._patch(modules, path, functools.partial(
                self._span_wrapper, len(self.names) - 1))
        for path in COUNTED:
            self._patch(modules, path, functools.partial(self._counted, path))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _patch(self, modules, path: str, make_wrapper) -> None:
        owner, attr = _resolve(path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for target in [owner, *modules]:
            for key, value in list(vars(target).items()):
                if value is original:
                    self.patches.append((target, key, original))
                    setattr(target, key, wrapper)

    def _span_wrapper(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.task)
        return wrapper

    def _counted(self, path: str, fn):
        counts = self.counts
        counts[path] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[path] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run_task(self, task: int, fn):
        """Call fn as the root span of the given task."""
        self.task = task
        return self._span_wrapper(0, fn)()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self time, per-module self time, counts."""
        out: dict[str, float] = {}
        for path in TIMED:
            out[f"{path}.calls"] = 0
            out[f"{path}.self_s"] = 0.0
        for module in {path.split(".")[0] for path in (*TIMED, ROOT)}:
            out[f"{module}.self_s"] = 0.0
        for (index, *_), own in zip(self.spans, self.self_times()):
            name = self.names[index]
            if name != ROOT:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        for path, calls in self.counts.items():
            out[f"{path}.calls"] = calls
        out["report.failures"] = out.pop("report.VerifyReport.add.calls")
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"],
                       "names": self.names, "spans": self.spans}, fh)
