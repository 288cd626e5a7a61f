#!/usr/bin/env python3
"""Campaign benchmark: closed-loop campaign workloads, measured end to end.

    python3 campaignbench/run.py --workload loop_genetic --seed 1 --seconds 20 --trace 0

Builds campaignbench_driver (the sdlbench libraries plus the driver) into
.bench_build/campaignbench, writes the workload's campaign spec from the
seed, and runs driver instances back to back for --seconds seconds.

--trace 0 measures untraced instances and reports the end-to-end metrics
(medians over the instances). --trace 1 alternates untraced and traced
instances and reports the per-layer metrics of the traced ones. Both
check the outputs: every cell present with its whole sample series,
repeated instances byte-identical, traced output identical to untraced,
and fleet_gen identical to an in-process run of the same spec. The
untraced runs take every cell's result from core::ColorPickerApp::run, so
traced == untraced is the check of the traced loop against it.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Human-readable detail, the configuration tag, and the tail
percentile (where ten cells lie beyond it) go to stderr and to
.bench_build/campaignbench/results/<workload>-seed<seed>-trace<t>.json,
which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "campaignbench"
DRIVER = BUILD / "campaignbench_driver"
# A run still going this long after --seconds is killed and fails: room
# for the last instance started, the probe and the reference run.
DEADLINE_MARGIN_S = 120


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("campaignbench: the sdlbench sources are not beside this directory")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "campaignbench-build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with build_log.open("w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise SystemExit(f"campaignbench: build failed, see {build_log}")


class Runner:
    """Launches driver instances in one work directory with a fixed environment."""

    def __init__(self, workload: benchlib.Workload, seed: int, seconds: int, work: Path):
        self.workload = workload
        self.work = work
        self.spec = work / "campaign.yaml"
        self.spec.write_text(benchlib.spec_yaml(workload, seed))
        self.log_file = (work / "driver.log").open("a")
        cpus = os.cpu_count() or 1
        self.threads = 1 if workload.fleet_workers else min(workload.cells, cpus)
        self.env = dict(os.environ)
        for name in ("SDLBENCH_FAILPOINTS", "SDLBENCH_LINALG_BACKEND",
                     "CAMPAIGNBENCH_TRACE_WORKER"):
            self.env.pop(name, None)
        self.env["SDLBENCH_WORKERS"] = str(self.threads)
        self.count = 0
        self.deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S

    def driver(self, *args: str, env: dict | None = None):
        """Runs the driver to completion: (json doc, cpu seconds, peak RSS KiB).

        The driver and its fleet workers share a new process group, which
        is killed if the run's deadline passes first."""
        launch = time.monotonic_ns()
        proc = subprocess.Popen([str(DRIVER), *args], stdout=subprocess.PIPE,
                                stderr=self.log_file, env=env or self.env,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"driver {' '.join(args)} exited {proc.returncode} "
                               f"(log: {self.work / 'driver.log'})")
        doc = json.loads(out.decode().strip().splitlines()[-1])
        return launch, doc, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def instance(self, traced: bool) -> benchlib.Instance:
        self.count += 1
        out = self.work / f"i{self.count}"
        args = ["run", "--spec", str(self.spec), "--out", str(out)]
        if self.workload.fleet_workers:
            args += ["--fleet-workers", str(self.workload.fleet_workers)]
        if traced:
            args.append("--traced")
        launch, doc, cpu, rss = self.driver(*args)
        report = out / "campaign.json"
        complete = (benchlib.complete_cells(report, self.workload.total_samples)
                    if report.is_file() else 0)
        return benchlib.Instance(launch, doc, cpu, rss, self.workload.cells, complete, out)

    def inprocess_reference(self) -> Path:
        """An untimed in-process run of the same spec, with the fleet's thread budget."""
        out = self.work / "inprocess"
        env = dict(self.env, SDLBENCH_WORKERS=str(self.workload.fleet_workers))
        self.driver("run", "--spec", str(self.spec), "--out", str(out), env=env)
        return out / "campaign.json"


def config_tag(runner: Runner) -> dict:
    _, tag, _, _ = runner.driver("tag")
    tag.update({
        "nproc": os.cpu_count(),
        "pool_threads": runner.threads,
        "fleet_workers": runner.workload.fleet_workers,
    })
    return tag


def check_instances(untraced, traced, problems: list[str]) -> None:
    first = untraced[0].out / "campaign.json"
    for what, group in (("repeated instance", untraced), ("traced vs untraced", traced)):
        for inst in group:
            if inst.complete_cells != inst.expected_cells:
                problems.append(f"{inst.out}: {inst.complete_cells} of "
                                f"{inst.expected_cells} cells complete")
            problems += benchlib.same_document(first, inst.out / "campaign.json", what)
    for inst in traced:
        problems += benchlib.trace_coverage(inst)


def measure(runner: Runner, seconds: int, trace: bool):
    """Runs instances for `seconds`; returns (untraced, traced, probe_ms, problems)."""
    untraced, traced, problems = [], [], []
    start = time.monotonic()
    while True:
        untraced.append(runner.instance(traced=False))
        if trace:
            traced.append(runner.instance(traced=True))
        enough = len(untraced) >= (1 if trace else 3)
        if enough and time.monotonic() - start >= seconds:
            break
    check_instances(untraced, traced, problems)

    probe_ms = []
    if trace and runner.workload.fleet_workers:
        _, doc, _, _ = runner.driver("probe", "--spec", str(runner.spec))
        probe_ms = doc["probe_ms"]
    if runner.workload.fleet_workers:
        problems += benchlib.same_document(
            runner.inprocess_reference(), untraced[0].out / "campaign.json",
            "fleet vs in-process run")
    return untraced, traced, probe_ms, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchlib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true", help="keep the run's work directory")
    args = parser.parse_args()

    build()
    workload = benchlib.WORKLOADS[args.workload]
    work = BUILD.parent / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, args.seconds, work)
    tag = config_tag(runner)
    log(f"campaignbench: {args.workload} seed={args.seed} trace={args.trace} tag={json.dumps(tag)}")

    error = None
    try:
        untraced, traced, probe_ms, problems = measure(runner, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        error = str(exc)
    runner.log_file.close()
    if error is not None:
        log(f"campaignbench: FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": workload.cells,
                          "failed": workload.cells, "metrics": {}}))
        return 1

    attempted, failed = benchlib.count_failures(untraced + traced)
    if args.trace:
        metrics = benchlib.per_layer(traced, untraced, probe_ms)
    else:
        metrics = benchlib.end_to_end(untraced)
    units = benchlib.UNITS
    detail = {
        "tag": tag,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances": [
            {"traced": traced_run, "setup_s": inst.setup_s, "wall_s": inst.wall_s,
             "samples": inst.samples, "cpu_s": inst.cpu_s, "peak_rss_kb": inst.peak_rss_kb}
            for traced_run, group in ((False, untraced), (True, traced)) for inst in group
        ],
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "problems": problems,
    }
    walls = [w for i in untraced for w in i.cell_walls]
    tail = benchlib.tail_percentile(walls)
    if tail is not None:
        value, beyond = tail
        detail["cell_s_p90"] = {"value": value, "cells": len(walls), "beyond": beyond}
    for name, value in metrics.items():
        log(f"  {name:34s} {value:.6g} {units[name]}")
    log(f"  cells {attempted} attempted, {failed} failed; {len(walls)} untraced cell times"
        + ("" if tail is None else f"; cell_s_p90 = {tail[0]:.4g} s ({tail[1]} beyond)"))
    for problem in problems:
        log(f"  CHECK FAILED: {problem}")

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    if not args.keep:
        shutil.rmtree(work, ignore_errors=True)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
