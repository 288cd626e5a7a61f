"""Workloads, metric rules and output checks of the campaign benchmark.

Everything here is pure: it turns a workload seed into a campaign spec,
turns what the driver measured into metrics, and compares output
documents. run.py does the process handling around it.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "cell_s_p50": "s",
    "cpu_s_per_sample": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.runtime_build_ms_p50": "ms",
    "core.difficulty_probe_ms_p50": "ms",
    "core.difficulty_probe_s": "s",
    "solver.ask_ms_p50": "ms",
    "solver.tell_ms_p50": "ms",
    "solver.busy_frac": "fraction",
    "devices.render_ms_p50": "ms",
    "devices.render_first_ms_p50": "ms",
    "devices.busy_frac": "fraction",
    "devices.retake_frac": "fraction",
    "devices.other_ms_per_batch": "ms",
    "imaging.read_ms_p50": "ms",
    "imaging.read_first_ms_p50": "ms",
    "imaging.busy_frac": "fraction",
    "imaging.roi_hit_frac": "fraction",
    "wei.engine_self_ms_per_batch": "ms",
    "wei.commands_per_sample": "count",
    "wei.rejected_frac": "fraction",
    "des.self_ms_per_batch": "ms",
    "des.events_per_sample": "count",
    "data.publish_ms_p50": "ms",
    "data.busy_frac": "fraction",
    "metrics.compute_ms_p50": "ms",
    "campaign.journal_append_ms_p50": "ms",
    "campaign.report_write_ms_p50": "ms",
    "campaign.report_writes": "count",
    "campaign.pool_idle_frac": "fraction",
    "campaign.fail_frac": "fraction",
    "fleet.efficiency": "fraction",
    "fleet.workers_lost": "count",
    "fleet.cells_released": "count",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


@dataclass(frozen=True)
class Workload:
    name: str
    workcells: tuple[str, ...]
    solver: str
    batch_sizes: tuple[int, ...]
    total_samples: int
    replicates: int = 1
    fleet_workers: int = 0  # 0 = in-process CampaignRunner

    @property
    def cells(self) -> int:
        def expanded(ref: str) -> int:
            # "generated:seed=K..M" fans out to one workcell per seed.
            if ref.startswith("generated:seed=") and ".." in ref:
                low, high = ref.split("=", 1)[1].split("..")
                return int(high) - int(low) + 1
            return 1

        workcells = sum(expanded(w) for w in self.workcells)
        return workcells * len(self.batch_sizes) * self.replicates


# fleet_gen's generated range is part of the workload definition, not of
# the seed: its 96/384/1536-well mix sets most of the work, and ranges
# drawn per seed would move wall_s by far more than any bound. The seed
# reseeds every cell's solver, noise and fault streams through base_seed.
GENERATED_RANGE = "generated:seed=1..24"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("loop_genetic", ("baseline", "degraded"), "genetic", (1, 4), 128),
        Workload("loop_bayes", ("baseline",), "bayesian", (16, 32), 180, replicates=2),
        Workload("fleet_gen", (GENERATED_RANGE,), "genetic", (4,), 8, fleet_workers=3),
    )
}


def base_seed(seed: int) -> int:
    """The campaign base_seed a workload seed maps to (never 0)."""
    return (seed * 2654435761 + 12345) % (2**31 - 1) + 1


def spec_yaml(workload: Workload, seed: int) -> str:
    def flow(items):
        return "[" + ", ".join(f'"{i}"' if ":" in str(i) else str(i) for i in items) + "]"

    return (
        "campaign:\n"
        f"  name: {workload.name}\n"
        f"  replicates: {workload.replicates}\n"
        f"  base_seed: {base_seed(seed)}\n"
        # per_cell: every cell draws its own noise and fault streams, so
        # frame retakes are not correlated across the grid's cells.
        "  seed_mode: per_cell\n"
        "grid:\n"
        f"  workcells: {flow(workload.workcells)}\n"
        f"  solvers: [{workload.solver}]\n"
        f"  batch_sizes: {flow(workload.batch_sizes)}\n"
        "experiment:\n"
        f"  total_samples: {workload.total_samples}\n"
    )


# ----------------------------------------------------------------- statistics

def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(values):
    """p90 when at least ten samples lie beyond it.

    Returns (value, samples_beyond) or None. The value is the nearest-rank
    90th percentile, so `samples_beyond` counts samples strictly greater
    than it.
    """
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(0.9 * len(ordered) - 1e-9))  # tolerate 0.9*n rounding up
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return (value, beyond) if beyond >= 10 else None


# ----------------------------------------------------------------- instances

@dataclass
class Instance:
    """One driver run of a workload, as measured from outside."""

    launch_ns: int
    doc: dict  # the driver's JSON line
    cpu_s: float
    peak_rss_kb: int
    expected_cells: int
    complete_cells: int  # cells present in campaign.json with every sample
    out: Path | None = None  # the instance's output directory

    @property
    def setup_s(self) -> float:
        return (self.doc["first_start_ns"] - self.launch_ns) / 1e9

    @property
    def wall_s(self) -> float:
        return (self.doc["end_ns"] - self.launch_ns) / 1e9

    @property
    def samples(self) -> int:
        return sum(c["samples"] for c in self.doc["cells"])

    @property
    def cell_walls(self) -> list[float]:
        return [c["wall_s"] for c in self.doc["cells"]]


def count_failures(instances) -> tuple[int, int]:
    """(attempted, failed) cells: a cell fails when it is missing from its
    campaign.json, quarantined, or short of samples."""
    attempted = sum(i.expected_cells for i in instances)
    failed = sum(i.expected_cells - i.complete_cells for i in instances)
    return attempted, failed


def fail_frac(instances) -> float:
    attempted, failed = count_failures(instances)
    if attempted == 0:
        raise ValueError("no cells attempted")
    return failed / attempted


def cell_s_p50(instances) -> float:
    """Median over the grid's cells of each cell's median wall time across
    the instances. Pooling first would put the median in the gap between
    the grid's fast and slow cells, where one cell's jitter moves it."""
    per_cell: dict[int, list[float]] = {}
    for inst in instances:
        for cell in inst.doc["cells"]:
            per_cell.setdefault(cell["index"], []).append(cell["wall_s"])
    return median(median(walls) for walls in per_cell.values())


def end_to_end(instances) -> dict[str, float]:
    return {
        "setup_s": median(i.setup_s for i in instances),
        "wall_s": median(i.wall_s for i in instances),
        "samples_per_s": median(i.samples / (i.wall_s - i.setup_s) for i in instances),
        "cell_s_p50": cell_s_p50(instances),
        "cpu_s_per_sample": median(i.cpu_s / i.samples for i in instances),
        "peak_rss_mb": median(i.peak_rss_kb / 1024.0 for i in instances),
    }


def _sum(cells, key, sub=None):
    return sum((c[key][sub] if sub else c[key]) for c in cells)


def per_layer(traced, untraced, probe_ms) -> dict[str, float]:
    """Per-layer metrics from traced instances (with their driver-side
    trace documents), the paired untraced instances, and the cold
    difficulty-probe times (empty on workloads without generated cells)."""
    cells = [c for i in traced for c in i.doc["trace"]["cells"]]
    wall = _sum(cells, "wall_s")
    batches = _sum(cells, "counters", "batches")
    samples = _sum(cells, "counters", "samples")
    commands = _sum(cells, "counters", "commands")
    frames = _sum(cells, "counters", "frames")
    reads = _sum(cells, "counters", "reads")

    def ms_list(kind):
        return [v for c in cells for v in c["ms"][kind]]

    def self_s(layer):
        return sum(c["self_s"][layer] for c in cells)

    render_s = sum(ms_list("render")) / 1e3
    idle = []
    efficiency = []
    for inst in traced:
        threads = inst.doc["threads"]
        busy = sum(inst.cell_walls) / (threads * (inst.wall_s - inst.setup_s))
        idle.append(1.0 - busy)
        efficiency.append(inst.doc["fleet"]["efficiency"] if "fleet" in inst.doc else busy)
    fleet = [i.doc["fleet"] for i in traced if "fleet" in i.doc]

    return {
        "core.runtime_build_ms_p50": median(ms_list("runtime_build")),
        "core.difficulty_probe_ms_p50": median(probe_ms) if probe_ms else 0.0,
        "core.difficulty_probe_s": sum(probe_ms) / 1e3,
        "solver.ask_ms_p50": median(ms_list("solver_ask")),
        "solver.tell_ms_p50": median(ms_list("solver_tell")),
        "solver.busy_frac": self_s("solver") / wall,
        "devices.render_ms_p50": median(ms_list("render")),
        "devices.render_first_ms_p50": median(c["first_render_ms"] for c in cells),
        "devices.busy_frac": self_s("devices") / wall,
        "devices.retake_frac": _sum(cells, "counters", "retakes") / frames,
        "devices.other_ms_per_batch": (self_s("devices") - render_s) * 1e3 / batches,
        "imaging.read_ms_p50": median(ms_list("read")),
        "imaging.read_first_ms_p50": median(c["first_read_ms"] for c in cells),
        "imaging.busy_frac": self_s("imaging") / wall,
        "imaging.roi_hit_frac": _sum(cells, "counters", "roi_hits") / reads,
        "wei.engine_self_ms_per_batch": self_s("wei") * 1e3 / batches,
        "wei.commands_per_sample": commands / samples,
        "wei.rejected_frac": _sum(cells, "counters", "rejected") / commands,
        "des.self_ms_per_batch": self_s("des") * 1e3 / batches,
        "des.events_per_sample": _sum(cells, "counters", "des_events") / samples,
        "data.publish_ms_p50": median(ms_list("publish")),
        "data.busy_frac": self_s("data") / wall,
        "metrics.compute_ms_p50": median(ms_list("metrics_compute")),
        "campaign.journal_append_ms_p50": median(ms_list("journal_append")),
        "campaign.report_write_ms_p50": median(
            v for i in traced for v in i.doc["trace"]["report_write_ms"]),
        "campaign.report_writes": median(i.doc["report_writes"] for i in traced),
        "campaign.pool_idle_frac": median(idle),
        "campaign.fail_frac": fail_frac(list(traced) + list(untraced)),
        "fleet.efficiency": median(efficiency),
        "fleet.workers_lost": float(sum(f["workers_lost"] for f in fleet)),
        "fleet.cells_released": float(sum(f["cells_released"] for f in fleet)),
        "trace.unattributed_frac": self_s("unattributed") / wall,
        "trace.overhead_frac": median(i.wall_s for i in traced)
        / median(i.wall_s for i in untraced) - 1.0,
    }


# ----------------------------------------------------------------- checks

def complete_cells(campaign_json: Path, total_samples: int) -> int:
    """Cells in a campaign.json that carry their whole sample series."""
    doc = json.loads(campaign_json.read_text())
    count = 0
    for cell in doc["cells"]:
        result = cell["result"]
        samples = result["samples"]
        indices = [s["index"] for s in samples]
        if indices != list(range(1, len(samples) + 1)):
            continue
        if len(samples) == total_samples or result["reached_threshold"]:
            count += 1
    return count


def trace_coverage(instance) -> list[str]:
    """[] when a traced instance traced every cell of its grid exactly
    once, else one problem line (a fleet worker that died leaves no trace,
    so its cells would silently drop out of the per-layer metrics)."""
    traced = sorted(c["index"] for c in instance.doc["trace"]["cells"])
    if traced != list(range(instance.expected_cells)):
        return [f"{instance.out}: traced cells {traced} do not cover the grid's "
                f"{instance.expected_cells} cells once each"]
    return []


def same_document(a: Path, b: Path, what: str) -> list[str]:
    """[] when the two files are byte-identical, else one problem line."""
    if not a.is_file() or not b.is_file():
        return [f"{what}: missing {a if not a.is_file() else b}"]
    if a.read_bytes() != b.read_bytes():
        return [f"{what}: {a} and {b} differ"]
    return []
