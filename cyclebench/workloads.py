"""The three workloads: one cycle path of the watchdog each.

A workload builds its warm state in :meth:`Workload.setup`, runs one
whole *pass* of its cycle path into a fresh directory in
:meth:`Workload.run_pass`, and checks the last pass's outputs with the
benchmark's own arithmetic in :meth:`Workload.check`.  Every pass of a
run repeats the same work: the inputs are a pure function of the seed.

Programs are reached only through their public Python API.  Functions
are looked up on their package module at call time (``fleet.run_shard``
rather than a name bound at import), so the traced run's call timers
(:mod:`layers`) see the benchmark's own calls as well.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

import repro.analysis.site as site
import repro.core.runner as runner
import repro.fleet as fleet
from repro import units
from repro.config import (
    ExperimentConfig,
    TrialPolicyConfig,
    highly_constrained,
    moderately_constrained,
)
from repro.core.cache import TrialCache
from repro.core.earlystop import EarlyStopConfig, EarlyStopModel
from repro.core.watchdog import Prudentia
from repro.service.coordinator import WatchdogService
from repro.service.store import RollingResultStore
from repro.services.catalog import default_catalog

import checks

#: Counters a workload reports besides the metrics-registry deltas.
WORKLOAD_COUNTERS = (
    "sim.sim_s",
    "earlystop.trials_truncated",
    "earlystop.sim_s_saved",
    "earlystop.trials_audited",
    "convergence.rounds",
    "convergence.trials_saved",
)


def _fixed_policy(trials: int) -> TrialPolicyConfig:
    """Exactly ``trials`` trials per pair (unreachable CI threshold)."""
    return TrialPolicyConfig(
        min_trials=trials,
        max_trials=trials,
        batch_size=trials,
        ci_halfwidth_bps=float("inf"),
    )


class Workload:
    """One cycle path, its warm state and its output checks."""

    name = ""
    #: Length of one pass on the reference machine (README); a run does
    #: the fewest whole passes that fill ``--seconds`` at this length, so
    #: its work depends on its arguments only, never on the machine's
    #: speed.
    nominal_pass_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.catalog = default_catalog()
        #: Trials of the last check that passed the link-rate check only
        #: by its window-edge allowance (see ``checks.WINDOW_EDGE_BITS``).
        self.window_edge: List[str] = []

    def setup(self, setup_dir: Path) -> None:
        """Build the warm state the passes start from."""

    def run_pass(self, pass_dir: Path) -> int:
        """Run one whole pass into ``pass_dir``; return operations done."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Work counters of the last pass not kept in the registry."""
        return dict.fromkeys(WORKLOAD_COUNTERS, 0)

    def check(self, counters: Dict[str, float]) -> List[str]:
        """Failures in the last pass's outputs (empty = correct);
        ``counters`` are that pass's work counters."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------

    def _check_trials(self, payloads: List[Dict]) -> List[str]:
        self.window_edge = checks.window_edge_trials(payloads)
        return checks.check_trials(payloads, self._caps())

    def _caps(self) -> Dict[str, Optional[float]]:
        return {
            sid: self.catalog.get(sid).max_throughput_bps
            for sid in self.catalog.ids()
        }

    def _categories(self) -> Dict[str, str]:
        return {
            sid: self.catalog.get(sid).category for sid in self.catalog.ids()
        }

    def _sim_s(self, payloads, config: ExperimentConfig) -> float:
        """Simulated seconds run: warm-up plus the (possibly cut) window."""
        return sum(
            (config.warmup_usec + p["duration_usec"]) / 1e6 for p in payloads
        )

    def _resimulate(
        self,
        plan: "fleet.FleetPlan",
        cache_dir: Path,
        earlystop: Optional[EarlyStopConfig] = None,
        prefer=None,
    ) -> List[str]:
        """Re-run one planned trial in a fresh testbed; compare bytes.

        The trial is picked by seed among ``prefer``-matching payloads
        when any match (truncated trials on the early-stop path).
        """
        entries = checks.read_entries(cache_dir)
        trials = [t for t in plan.trials if t.cache_key in entries]
        if prefer is not None:
            preferred = [t for t in trials if prefer(entries[t.cache_key])]
            trials = preferred or trials
        if not trials:
            return ["no planned trial found in the cache to re-simulate"]
        planned = trials[self.seed % len(trials)]
        result = runner.run_trial(
            planned.spec, catalog=self.catalog, earlystop=earlystop
        )
        return checks.check_resimulation(
            cache_dir / f"{planned.cache_key}.json", result.to_json()
        )


class ColdCycleMixed(Workload):
    """A local watchdog cycle over an empty cache, report and page.

    Every application model and CCA family runs at 8 Mbps; early stop,
    the fleet loop and cache reads are bypassed.
    """

    name = "cold-cycle-mixed"
    nominal_pass_s = 13.0
    SERVICES = [
        "iperf_cubic",
        "youtube",
        "netflix",
        "mega",
        "gdrive",
        "meet",
        "teams",
        "wikipedia",
    ]
    NETWORK = highly_constrained()
    #: 50 s trials: the measurement window is 10-40 s, and a web service
    #: starts its first page load 30 s into the trial.
    CONFIG = ExperimentConfig().scaled(50)
    TRIALS_PER_PAIR = 1

    def run_pass(self, pass_dir: Path) -> int:
        self.cache_dir = pass_dir / "cache"
        watchdog = Prudentia(
            catalog=self.catalog,
            networks=[self.NETWORK],
            experiment_config=self.CONFIG,
            policy_overrides={
                self.NETWORK.bandwidth_bps: _fixed_policy(self.TRIALS_PER_PAIR)
            },
            base_seed=self.seed,
            cache=TrialCache(self.cache_dir),
        )
        watchdog.run_cycle(service_ids=list(self.SERVICES))
        self.report = watchdog.report(self.NETWORK, service_ids=self.SERVICES)
        # The report is computed lazily; serialising it is the publishing
        # work the cycle pays for.
        self.report_json = self.report.to_json()
        self.page = site.render_markdown_report(
            watchdog.store, self.SERVICES, [self.NETWORK.bandwidth_bps]
        )
        return watchdog.last_cycle_stats.trials_total

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["sim.sim_s"] = self._sim_s(
            checks.read_entries(self.cache_dir).values(), self.CONFIG
        )
        return out

    def check(self, counters: Dict[str, float]) -> List[str]:
        entries = checks.read_entries(self.cache_dir)
        plan = fleet.plan_cycle(
            self.SERVICES,
            [self.NETWORK],
            self.CONFIG,
            trials_per_pair=self.TRIALS_PER_PAIR,
            num_shards=1,
            base_seed=self.seed,
        )
        failures = []
        if set(entries) != set(plan.expected_keys()):
            failures.append("cycle cache does not hold the planned trials")
        payloads = list(entries.values())
        failures += self._check_trials(payloads)
        failures += checks.check_heatmap(
            self.report.heatmap(), payloads, self.NETWORK.bandwidth_bps
        )
        failures += checks.check_app_metrics(payloads, self._categories())
        categories = {self.catalog.get(sid).category for sid in self.SERVICES}
        classes = {"baseline", "video", "file-transfer", "rtc", "web"}
        if not classes <= categories:
            failures.append(f"slice lacks classes {classes - categories}")
        if "8 Mbps bottleneck" not in self.page:
            failures.append("findings page has no 8 Mbps section")
        failures += self._resimulate(plan, self.cache_dir)
        return failures


class AdaptiveEarlyStop(Workload):
    """An adaptive two-shard fleet cycle with early stop, then assembly.

    Exercises the fleet drive loop, convergence re-planning, merge and
    the early-stop probe at 50 Mbps; application models are bypassed.
    """

    name = "adaptive-earlystop-50mbps"
    nominal_pass_s = 14.0
    SERVICES = ["iperf_cubic", "iperf_bbr", "iperf_reno", "gdrive", "mega"]
    NETWORK = moderately_constrained()
    CONFIG = ExperimentConfig().scaled(10)
    #: Two trials per pair first, then one more for pairs whose median
    #: CI is wider than the paper's +/-1.5 Mbps: at least two rounds.
    POLICY = TrialPolicyConfig(
        min_trials=2,
        max_trials=3,
        batch_size=1,
        ci_halfwidth_bps=units.mbps(1.5),
    )
    SHARDS = 2
    #: A quarter of the trials run full length as audits: with about
    #: forty trials a cycle without any audit has odds near 1e-5.
    EARLYSTOP = EarlyStopConfig(model=EarlyStopModel(), audit_fraction=0.25)

    def run_pass(self, pass_dir: Path) -> int:
        self.out = pass_dir / "cycle"
        self.receipts = []

        def dispatch(manifest: Dict, shard_cache: Path) -> None:
            self.receipts.append(fleet.run_shard(manifest, shard_cache))

        self.state = fleet.run_adaptive_cycle(
            self.out,
            self.SERVICES,
            [self.NETWORK],
            self.CONFIG,
            policies=[self.POLICY],
            num_shards=self.SHARDS,
            base_seed=self.seed,
            catalog=self.catalog,
            dispatch=dispatch,
            earlystop=self.EARLYSTOP.to_json(),
        )
        self.assembly = fleet.load_plan(
            self.out / fleet.ASSEMBLY_PLAN_FILENAME
        )
        self.reports = fleet.assemble_reports(
            self.assembly, TrialCache(self.out / "cache"), catalog=self.catalog
        )
        self.report_json = [report.to_json() for report in self.reports]
        self.page = site.render_markdown_report(
            self.reports[0].store, self.SERVICES, [self.NETWORK.bandwidth_bps]
        )
        return self.state.trials_done_total()

    def counters(self) -> Dict[str, float]:
        stats = runner.RunnerStats()
        for receipt in self.receipts:
            stats = stats.merged_with(receipt.stats)
        entries = checks.read_entries(self.out / "cache")
        out = super().counters()
        out.update(
            {
                "sim.sim_s": self._sim_s(entries.values(), self.CONFIG),
                "earlystop.trials_truncated": stats.trials_truncated,
                "earlystop.sim_s_saved": stats.sim_sec_saved,
                "earlystop.trials_audited": stats.trials_audited,
                "convergence.rounds": self.state.round_index,
                "convergence.trials_saved": self.state.trials_saved(),
            }
        )
        return out

    def check(self, counters: Dict[str, float]) -> List[str]:
        failures = []
        entries = checks.read_entries(self.out / "cache")
        payloads = [entries[t.cache_key] for t in self.assembly.trials]
        failures += self._check_trials(payloads)
        failures += checks.check_heatmap(
            self.reports[0].heatmap(), payloads, self.NETWORK.bandwidth_bps
        )
        tracker = self.state.trackers[0]
        for pair, pair_state in tracker.states.items():
            if pair_state.verdict == "open":
                failures.append(f"pair {pair} left open")
            if not (
                self.POLICY.min_trials
                <= pair_state.trials_done
                <= self.POLICY.max_trials
            ):
                failures.append(
                    f"pair {pair}: {pair_state.trials_done} trials outside "
                    f"[{self.POLICY.min_trials}, {self.POLICY.max_trials}]"
                )
        if self.state.round_index < 2:
            failures.append(f"only {self.state.round_index} round(s) ran")
        min_horizon_s = self.EARLYSTOP.model.min_horizon_usec / 1e6
        truncated = audited = 0
        for payload in payloads:
            meta = payload.get("earlystop") or {}
            if meta.get("truncated"):
                truncated += 1
                if meta["horizon_sim_sec"] < min_horizon_s:
                    failures.append(
                        f"trial seed {payload['seed']} cut at "
                        f"{meta['horizon_sim_sec']} s < model minimum"
                    )
            audited += bool(meta.get("audit"))
        if truncated == 0:
            failures.append("no trial was truncated")
        if audited == 0:
            failures.append("no trial was audited")
        if len(payloads) != self.state.trials_done_total():
            failures.append("assembly plan and trackers disagree on trials")
        failures += self._resimulate(
            self.assembly,
            self.out / "cache",
            earlystop=self.EARLYSTOP,
            prefer=lambda p: bool((p.get("earlystop") or {}).get("truncated")),
        )
        return failures


class WarmRepublish(Workload):
    """Merge, assemble and ingest a simulated two-shard cycle, no simulation.

    Set-up simulates the cycle once with flight recording; each pass
    publishes it into fresh directories (the service skips cycle ids it
    has already ingested).
    """

    name = "warm-republish"
    nominal_pass_s = 0.35
    SERVICES = [
        "iperf_cubic",
        "youtube",
        "netflix",
        "mega",
        "gdrive",
        "meet",
        "wikipedia",
    ]
    NETWORK = highly_constrained()
    CONFIG = ExperimentConfig().scaled(5)
    TRIALS_PER_PAIR = 4
    SHARDS = 2

    def setup(self, setup_dir: Path) -> None:
        self.plan = fleet.plan_cycle(
            self.SERVICES,
            [self.NETWORK],
            self.CONFIG,
            trials_per_pair=self.TRIALS_PER_PAIR,
            num_shards=self.SHARDS,
            base_seed=self.seed,
        )
        self.shard_dirs = [
            setup_dir / f"shard-{i}" for i in range(self.SHARDS)
        ]
        for index, shard_dir in enumerate(self.shard_dirs):
            fleet.run_shard(
                self.plan.manifest_for(index), shard_dir, record_flight=True
            )

    def run_pass(self, pass_dir: Path) -> int:
        self.pass_dir = pass_dir
        entry = pass_dir / "spool" / "incoming" / "cycle"
        self.entry_cache = entry / "cache"
        entry.mkdir(parents=True)
        (entry / "plan.json").write_text(
            json.dumps(self.plan.to_json(), indent=1)
        )
        fleet.merge_shards(self.plan, self.shard_dirs, self.entry_cache)
        # The coordinator's diagnosis looks for flight sidecars next to
        # the entry's cache entries; ship those the merge did not copy.
        for shard_dir in self.shard_dirs:
            for sidecar in shard_dir.glob("*.flight.json"):
                target = self.entry_cache / sidecar.name
                if not target.exists():
                    os.link(sidecar, target)
        self.reports = fleet.assemble_reports(
            self.plan, TrialCache(self.entry_cache), catalog=self.catalog
        )
        self.report_json = [report.to_json() for report in self.reports]
        service = WatchdogService(
            pass_dir / "spool",
            pass_dir / "out",
            catalog=self.catalog,
            networks=[self.NETWORK],
            plan_config=self.CONFIG,
            plan_trials=self.TRIALS_PER_PAIR,
            plan_shards=self.SHARDS,
            base_seed=self.seed,
        )
        self.summary = service.ingest_once()
        return sum(report["trials"] for report in self.summary["ingested"])

    def check(self, counters: Dict[str, float]) -> List[str]:
        failures = []
        if counters["sim.trials"] or counters["cache.stores"]:
            failures.append(
                f"pass simulated {counters['sim.trials']} trial(s) and "
                f"stored {counters['cache.stores']} cache entries"
            )
        ingested = self.summary["ingested"]
        if [r["cycle_id"] for r in ingested] != [self.plan.plan_id]:
            failures.append(f"ingest summary lists {ingested}")
        elif ingested[0]["diagnosed"] < 1:
            failures.append("no flight recording was diagnosed")
        reopened = RollingResultStore(self.pass_dir / "out" / "store")
        if [c.cycle_id for c in reopened.cycles()] != [self.plan.plan_id]:
            failures.append("reopened result store lacks the ingested cycle")
        if len(reopened) != len(self.plan.trials):
            failures.append(
                f"reopened store holds {len(reopened)} of "
                f"{len(self.plan.trials)} trials"
            )
        failures += checks.check_site_ledger(self.pass_dir / "out" / "site")
        # A committed entry moves from the spool's incoming/ to done/.
        done_cache = self.pass_dir / "spool" / "done" / "cycle" / "cache"
        entries = checks.read_entries(done_cache)
        if set(entries) != set(self.plan.expected_keys()):
            return failures + ["done/ lacks the entry or some of its trials"]
        payloads = [entries[t.cache_key] for t in self.plan.trials]
        folded = [r for c in reopened.cycles() for r in c.results]
        canonical = functools.partial(json.dumps, sort_keys=True)
        if sorted(map(canonical, folded)) != sorted(map(canonical, payloads)):
            failures.append("folded trials differ from the cache entries")
        failures += self._check_trials(payloads)
        failures += checks.check_heatmap(
            self.reports[0].heatmap(), payloads, self.NETWORK.bandwidth_bps
        )
        failures += self._resimulate(self.plan, done_cache)
        return failures


WORKLOADS = {
    cls.name: cls for cls in (ColdCycleMixed, AdaptiveEarlyStop, WarmRepublish)
}
