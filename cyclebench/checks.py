"""Output checks computed apart from the program.

Every check reads raw trial payloads (cache-entry JSON as written to
disk) and recomputes what the program published with the benchmark's
own arithmetic; nothing here calls the program's fairness code.  Each
check returns a list of failure messages (empty when the check holds).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Trials with more upstream loss than this are discarded by the watchdog
#: (paper Section 3.1); the heatmap recomputation must drop them too.
EXTERNAL_LOSS_LIMIT = 0.0005

#: Relative tolerance for recomputed floating-point values.
REL_TOL = 1e-9

#: ``Testbed.throughput_bps`` counts a packet when its delivery
#: completes, so the one packet (at most a 1500-byte MTU) in service when
#: the measurement window opens is counted whole although part of it
#: crossed the link before the window: the per-trial sum may exceed the
#: link by this.  The trials that pass only by this allowance are counted
#: and printed on every run (:func:`window_edge_trials`).  Set it to 0
#: once the throughput counts only the bits delivered inside the window.
WINDOW_EDGE_BITS = 1500 * 8

#: Quality metrics every RTC service must report (paper Fig 5).
RTC_METRICS = (
    "resolution_p",
    "avg_fps",
    "freezes_per_minute",
    "fraction_high_delay",
    "jitter_ms",
    "mean_rtt_ms",
)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def read_entries(cache_dir: Path) -> Dict[str, Dict]:
    """Raw cache payloads keyed by cache key (64-hex ``<key>.json``)."""
    out = {}
    for path in sorted(Path(cache_dir).glob("*.json")):
        if len(path.stem) == 64:
            out[path.stem] = json.loads(path.read_text())
    return out


def water_fill(
    capacity: float, caps: Sequence[Optional[float]]
) -> List[float]:
    """Max-min fair allocation of ``capacity`` under per-flow caps.

    Progressive filling: raise every unfrozen flow's rate together; a
    flow freezes when it reaches its cap.  Written independently of
    ``repro.core.mmf``.
    """
    order = sorted(
        range(len(caps)),
        key=lambda i: float("inf") if caps[i] is None else caps[i],
    )
    alloc = [0.0] * len(caps)
    left = float(capacity)
    for rank, index in enumerate(order):
        fair = left / (len(order) - rank)
        cap = caps[index]
        alloc[index] = fair if cap is None or cap > fair else float(cap)
        left -= alloc[index]
    return alloc


def _base(service_id: str) -> str:
    return service_id.split("#")[0]


def check_trials(
    payloads: Iterable[Dict], caps_bps: Dict[str, Optional[float]]
) -> List[str]:
    """MmF share against own water-filling; throughput within the link."""
    failures = []
    for payload in payloads:
        ids = list(payload["throughput_bps"])
        label = f"{'+'.join(ids)} seed {payload['seed']}"
        capacity = payload["bandwidth_bps"]
        alloc = water_fill(capacity, [caps_bps[_base(sid)] for sid in ids])
        for sid, fair in zip(ids, alloc):
            expected = max(0.0, payload["throughput_bps"][sid]) / fair
            if not _close(payload["mmf_allocation_bps"][sid], fair):
                failures.append(f"{label}: {sid} allocation differs")
            if not _close(payload["mmf_share"][sid], expected):
                failures.append(
                    f"{label}: {sid} mmf_share {payload['mmf_share'][sid]} "
                    f"!= recomputed {expected}"
                )
        total, limit = _link_sum(payload)
        if total > limit + _edge_bps(payload):
            failures.append(
                f"{label}: throughputs sum to {total} > link {capacity}"
            )
    return failures


def _link_sum(payload: Dict) -> Tuple[float, float]:
    """A trial's summed throughput and the link rate it must stay within."""
    total = sum(payload["throughput_bps"].values())
    return total, payload["bandwidth_bps"] * (1 + REL_TOL)


def _edge_bps(payload: Dict) -> float:
    return WINDOW_EDGE_BITS / (payload["duration_usec"] / 1e6)


def window_edge_trials(payloads: Iterable[Dict]) -> List[str]:
    """Trials over the link rate that pass only by the window-edge packet."""
    out = []
    for payload in payloads:
        total, limit = _link_sum(payload)
        if limit < total <= limit + _edge_bps(payload):
            ids = "+".join(payload["throughput_bps"])
            out.append(f"{ids} seed {payload['seed']}: {total} bps")
    return out


def _incumbent_key(
    payload: Dict, incumbent: str, contender: str
) -> Optional[str]:
    ids = list(payload["mmf_share"])
    if incumbent == contender:
        return next((sid for sid in ids if sid.endswith("#2")), None)
    return next((sid for sid in ids if _base(sid) == incumbent), None)


def check_heatmap(
    heatmap: Dict[Tuple[str, str], Optional[float]],
    payloads: Sequence[Dict],
    bandwidth_bps: float,
) -> List[str]:
    """Each cell is the median of the raw entries' incumbent shares."""
    failures = []
    for (contender, incumbent), value in heatmap.items():
        shares = []
        for payload in payloads:
            if payload["bandwidth_bps"] != bandwidth_bps:
                continue
            if payload["external_loss_fraction"] > EXTERNAL_LOSS_LIMIT:
                continue
            bases = sorted(_base(sid) for sid in payload["mmf_share"])
            if bases != sorted((contender, incumbent)):
                continue
            key = _incumbent_key(payload, incumbent, contender)
            if key is not None:
                shares.append(payload["mmf_share"][key])
        expected = statistics.median(shares) if shares else None
        if expected is None or value is None:
            if expected != value:
                failures.append(
                    f"heatmap {contender}->{incumbent}: {value} vs {expected}"
                )
        elif not _close(value, expected):
            failures.append(
                f"heatmap {contender}->{incumbent}: {value} != median "
                f"{expected} of {len(shares)} entries"
            )
    return failures


def check_app_metrics(
    payloads: Iterable[Dict], categories: Dict[str, str]
) -> List[str]:
    """Web loads a page (PLT > 0); RTC reports its quality metrics."""
    failures = []
    for payload in payloads:
        for sid, metrics in payload["service_metrics"].items():
            category = categories[_base(sid)]
            label = f"{sid} in {'+'.join(payload['service_metrics'])}"
            if category == "web":
                if metrics.get("page_loads", 0) < 1:
                    failures.append(f"{label}: no page load in the window")
                elif not metrics.get("median_plt_sec", 0) > 0:
                    failures.append(f"{label}: page load time not positive")
            elif category == "rtc":
                missing = [m for m in RTC_METRICS if m not in metrics]
                if missing:
                    failures.append(f"{label}: missing {missing}")
                elif not metrics["avg_fps"] > 0:
                    failures.append(f"{label}: no frames rendered")
    return failures


def check_site_ledger(site_dir: Path) -> List[str]:
    """Every section's ledger sha256 matches its file's bytes."""
    state = json.loads((site_dir / "site-state.json").read_text())
    failures = []
    if not state["sections"]:
        failures.append("site ledger lists no sections")
    for entry in state["sections"]:
        path = site_dir / "sections" / f"bw-{entry['tag']}.md"
        data = path.read_bytes()
        # Section files are the hashed section text plus one newline.
        digest = hashlib.sha256(data[:-1]).hexdigest()
        if not data.endswith(b"\n") or digest != entry["sha256"]:
            failures.append(f"site section {path.name}: sha256 mismatch")
    if not (site_dir / "index.md").is_file():
        failures.append("site index.md missing")
    return failures


def check_resimulation(cache_file: Path, resimulated: Dict) -> List[str]:
    """A re-simulated trial serialises to the cached bytes exactly."""
    if json.dumps(resimulated, indent=1) != cache_file.read_text():
        return [f"re-simulated trial {cache_file.stem[:12]} differs"]
    return []
