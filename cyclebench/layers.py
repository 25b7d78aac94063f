"""Per-layer attribution for the traced run.

The traced run repeats the same pass three times: once untraced (the
base of the tracing overhead), once with the spans and call timers
below, and once under cProfile, so the profiler's cost inflates neither
the spans nor the timers.  Three views of where a pass spends its time:

* :class:`CallTimers` - wall and CPU seconds of calls into public
  functions, installed as wrappers from this file around the program's
  module attributes for the length of one pass (layer metrics (a)).
* :func:`span_self_times` - self time per span kind from the spans the
  program already emits through ``repro.obs.tracing`` (layer metrics (b)).
* :func:`profile_layers` - a cProfile roll-up of self time by source
  module; time spent in the standard library and builtins is charged to
  the repro layer that called it (layer metrics (c)).
"""

from __future__ import annotations

import functools
import importlib
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (a) metric prefix -> public callables it covers, as (module, attribute
#: path).  Functions are re-bound in every loaded repro module that
#: imported them by name, so calls made inside the program are timed too.
CALL_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "core.run_cycle": [("repro.core.watchdog", "Prudentia.run_cycle")],
    "core.report": [("repro.core.report", "FairnessReport.to_json")],
    "fleet.plan": [
        ("repro.fleet.adaptive", "AdaptiveCycleState.plan_round"),
        ("repro.fleet.plan", "plan_cycle"),
    ],
    "fleet.run_shard": [("repro.fleet.worker", "run_shard")],
    "fleet.merge": [("repro.fleet.merge", "merge_shards")],
    "fleet.assemble": [("repro.fleet.assemble", "assemble_reports")],
    "service.ingest": [
        ("repro.service.coordinator", "WatchdogService.ingest_once")
    ],
    "analysis.site": [
        ("repro.analysis.site", "render_markdown_report"),
        ("repro.service.site", "SiteRenderer.regenerate"),
    ],
}

#: (b) span kinds whose self time is reported.
SPAN_KINDS = (
    "cycle.run",
    "cycle.round",
    "cache.lookup",
    "backend.dispatch",
    "trial.run",
    "sim.run",
    "shard.run",
    "report.assemble",
    "service.ingest",
)

#: (c) layer -> source paths under ``src/repro`` (a directory or a file);
#: the first match wins, so specific files precede their package.
PROFILE_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("netsim.engine", ("netsim/engine.py",)),
    ("netsim.link_queue", ("netsim/",)),
    ("transport", ("transport/",)),
    ("cca", ("cca/",)),
    ("services", ("services/", "browser/")),
    ("core.earlystop", ("core/earlystop.py",)),
    ("core.cache", ("core/cache.py",)),
    ("obs", ("obs/",)),
    ("fleet", ("fleet/",)),
    ("service", ("service/",)),
    ("analysis", ("analysis/",)),
    ("core.other", ("",)),
)


class CallTimers:
    """Inclusive wall/CPU time of calls into :data:`CALL_TARGETS`.

    ``install`` swaps each target for a timing wrapper; ``remove`` puts
    the originals back.  Re-entrant calls of one metric (a wrapped
    function calling another function of the same metric) count once.
    """

    def __init__(self) -> None:
        self.wall: Dict[str, float] = defaultdict(float)
        self.cpu: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, metric: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def timed(*args, **kwargs):
            if self._depth[metric]:
                return func(*args, **kwargs)
            self._depth[metric] += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                return func(*args, **kwargs)
            finally:
                self.wall[metric] += time.perf_counter() - wall0
                self.cpu[metric] += time.process_time() - cpu0
                self._depth[metric] -= 1

        return timed

    def install(self) -> None:
        for metric, targets in CALL_TARGETS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
                wrapper = self._wrap(metric, original)
                if parents:
                    holders = [owner]
                else:
                    holders = [
                        module
                        for name, module in list(sys.modules.items())
                        if name.split(".")[0] == "repro"
                        and getattr(module, attr, None) is original
                    ]
                for holder in holders:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-pass seconds: ``<metric>_s`` (wall) and ``<metric>_cpu_s``."""
        out: Dict[str, float] = {}
        for metric in CALL_TARGETS:
            out[f"{metric}_s"] = self.wall[metric] / passes
            out[f"{metric}_cpu_s"] = self.cpu[metric] / passes
        return out


def span_self_times(spans: Iterable[Dict], passes: int) -> Dict[str, float]:
    """Per-pass self seconds of each :data:`SPAN_KINDS` kind.

    A span's self time is its duration minus the durations of its direct
    children (spans whose ``parent`` is its id).
    """
    spans = list(spans)
    child_us: Dict[int, int] = defaultdict(int)
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            child_us[parent] += record["dur_us"]
    totals: Dict[str, float] = defaultdict(float)
    for record in spans:
        own_us = record["dur_us"] - child_us.get(record["id"], 0)
        totals[record["kind"]] += own_us / 1e6
    return {
        f"span.{kind}.self_s": totals.get(kind, 0.0) / passes
        for kind in SPAN_KINDS
    }


def _layer_for(filename: str, repro_root: str) -> Optional[str]:
    if not filename.startswith(repro_root):
        return None
    rel = filename[len(repro_root):]
    for layer, prefixes in PROFILE_LAYERS:
        if any(rel.startswith(prefix) for prefix in prefixes):
            return layer
    return None


def profile_layers(
    stats: pstats.Stats, repro_root: Path, passes: int
) -> Tuple[Dict[str, float], float]:
    """Roll cProfile self time up into :data:`PROFILE_LAYERS`.

    Returns per-pass ``<layer>.self_s`` seconds and the per-pass total
    self time the profile saw.  A function outside ``repro`` (standard
    library, builtins) passes its self time to its callers in proportion
    to the time each caller spent in it, until a repro function takes it;
    time no repro function called stays unattributed.
    """
    root = str(repro_root) + "/"
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, active: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s time that belong to each layer.

        Recursive callers (already on ``active``) are skipped, so the
        share of a call cycle with no repro caller stays unattributed.
        """
        layer = _layer_for(func[0], root)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {
            caller: entry[3]
            for caller, entry in callers.items()
            if caller not in active and caller != func
        }
        total = sum(weights.values())
        out: Dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, weight in weights.items():
                for name, frac in shares(caller, active | {func}).items():
                    out[name] += frac * weight / total
        memo[func] = out
        return out

    layers: Dict[str, float] = {name: 0.0 for name, _p in PROFILE_LAYERS}
    total_tt = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        total_tt += tt
        layer = _layer_for(func[0], root)
        if layer is not None:
            layers[layer] += tt
            continue
        # Split this function's self time by the callers that incurred it;
        # time from recursive self-calls follows the outer callers.
        for caller, entry in callers.items():
            if caller == func:
                split = shares(func, frozenset())
            else:
                split = shares(caller, frozenset({func}))
            for name, frac in split.items():
                layers[name] += entry[2] * frac
    per_pass = {
        f"{name}.self_s": value / passes for name, value in layers.items()
    }
    return per_pass, total_tt / passes
