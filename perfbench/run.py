#!/usr/bin/env python3
"""Extraction benchmark: the flagship Ray Data job on seeded workloads.

    python3 perfbench/run.py --workload mix_full --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. The load is a closed loop with one
client: the next job starts only after the previous job's output is written
and checked. Ray gets ``num_cpus`` = ``nproc``.

``--trace 0`` times whole jobs and prints the end-to-end metrics, with job
times in reference seconds (see ``calibration_s``); the measured figures
are in the context line.
``--trace 1`` prints the per-layer metrics instead: job phases and the
extract/offsets/write layers from the same kind of jobs, then a Ray-free pass
of the kernel over the same turns, untraced and then traced layer by layer.

Every job's output is checked against the expected output of the workload;
a turn that differs or has ``status=error`` counts as failed. The expected
output is itself checked against the digests pinned in
``perfbench/digests.json``; if it moved, its sampled turns fail. The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the run's context (machine, versions, per-job figures).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
# a local session only; never report usage over the network
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
from ray.data import DataContext  # noqa: E402

from pdf_oxide_ray.core import fonts, payload  # noqa: E402
from pdf_oxide_ray.pipelines.flagship import run_flagship_job  # noqa: E402
from pdf_oxide_ray.state import offset_index  # noqa: E402
from perfbench import gate, proctree, trace, workloads  # noqa: E402

PID = os.getpid()
SETUPS = 3  # setup_s is the median over this many full set-ups
MEMCPY_PROBE_S = 0.5
# The calibration loop's time on an idle vCPU of the 4-vCPU VM the bounds
# were set on; a reference second is a second scaled by this over the
# loop's time measured around the job (see calibration_s)
CALIBRATION_REF_S = 0.020
KINDS = ("pdf", "html", "plain")
WRITE_COLUMNS = ("extracted_text", "markdown", "spans")

END_TO_END = {
    "turns_per_ref_s": "1/ref_s",
    "input_mb_per_ref_s": "MB/ref_s",
    "cpu_ref_s_per_1k_turns": "ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "out_bytes_per_turn": "B",
    "ok_turn_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "flagship.extract_s": "s",
        "flagship.offsets_s": "s",
        "flagship.annotate_write_s": "s",
    }
    for q in ("p50", "p99"):
        units.update({f"extract.turn_us_{q}.{k}": "us" for k in KINDS})
    units.update({
        "extract.kernel_s": "s",
        "extract.overhead_frac": "ratio",
        "extract.error_turn_frac": "ratio",
        "offset_index.compute_offsets_table_s": "s",
        "offset_index.convs": "count",
        "offset_index.max_conv_turns": "count",
    })
    units.update({f"write.bytes_per_turn.{c}": "B"
                  for c in (*WRITE_COLUMNS, "rest")})
    for layer in trace.KERNEL_LAYERS:
        units[f"core.{layer}.self_s"] = "s"
        units[f"core.{layer}.calls"] = "count"
    units.update({
        "core.content.ops": "count",
        "core.spans_post.kept_frac": "ratio",
        "core.fonts.cmap_parses": "count",
        "core.payload.span_start_found_frac": "ratio",
    })
    units.update({f"core.kernel_mb_per_s.{k}": "MB/s" for k in KINDS})
    units["trace.overhead_frac"] = "ratio"
    return units


# -- context ----------------------------------------------------------------

def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def memcpy_gb_s(budget_s: float = MEMCPY_PROBE_S) -> float:
    """Host memory-bus probe: 50 MB numpy copies for ``budget_s``. The
    kernel is allocation-heavy, so a loaded bus shows in every wall time."""
    a = np.empty(50_000_000, dtype=np.uint8)
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget_s:
        a.copy()
        n += 1
    return n * 0.05 / (time.perf_counter() - t0)


_CALIBRATION_TEXT = zlib.compress(
    bytes(32 + i * 7919 % 90 for i in range(80_000)))
_CALIBRATION_RX = re.compile(r"(\w+)\s+(\d+)")


def _calibration_loop() -> tuple[float, float]:
    """Wall and thread CPU seconds for a fixed mix of the kinds of work the
    kernel does: inflate, bytecode over a dict, a regex scan and string
    building."""
    t0, c0 = time.perf_counter(), time.thread_time()
    text = zlib.decompress(_CALIBRATION_TEXT).decode()
    counts: dict[str, int] = {}
    for i in range(0, len(text) - 8, 8):
        counts[text[i:i + 4]] = counts.get(text[i:i + 4], 0) + 1
    words = [w.upper() + n for w, n in _CALIBRATION_RX.findall(text)]
    " ".join(sorted(counts)).join(words)
    return time.perf_counter() - t0, time.thread_time() - c0


def calibration_s(loops: int = 12) -> tuple[float, float]:
    """Host speed probe: the calibration loop's median wall and CPU time on
    each CPU of the affinity mask, averaged over the CPUs, from about
    ``loops`` runs of the loop in all. The job's processes move between
    CPUs, and on a shared host each CPU's speed swings by half with the load
    its neighbours put on it. CPU time leaves out the time the host ran
    something else on the vCPU, as the job's CPU time does."""
    cpus = os.sched_getaffinity(0)
    reps = max(1, loops // len(cpus))
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            runs = [_calibration_loop() for _ in range(reps)]
            per_cpu.append((statistics.median(w for w, _ in runs),
                            statistics.median(c for _, c in runs)))
    finally:
        os.sched_setaffinity(0, cpus)
    return (statistics.mean(w for w, _ in per_cpu),
            statistics.mean(c for _, c in per_cpu))


# -- Ray session --------------------------------------------------------------

def ray_start(ncpu: int) -> None:
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", object_store_memory=512 * 1024 ** 2)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def ray_stop() -> None:
    """Shut Ray down and wait for every process it started to end (its
    agents outlive ``ray.shutdown`` otherwise)."""
    procs = proctree.descendants(PID)
    ray.shutdown()
    proctree.stop(procs)


def setup(wl, paths, ncpu: int, scratch: Path) -> float:
    """Seconds from ``ray.init`` until a warm-up job has run the kernel in
    the workers."""
    out = scratch / "warmup"
    t0 = time.perf_counter()
    ray_start(ncpu)
    run_flagship_job(str(paths.warmup), str(out), **wl.job_kwargs)
    took = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    return took


# -- one job ------------------------------------------------------------------

def write_bytes(out_dir: Path) -> dict[str, int]:
    """Compressed bytes per top-level column, from the Parquet footers."""
    sizes = dict.fromkeys((*WRITE_COLUMNS, "rest"), 0)
    for f in out_dir.rglob("*.parquet"):
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            group = md.row_group(rg)
            for c in range(group.num_columns):
                col = group.column(c)
                top = col.path_in_schema.split(".", 1)[0]
                key = top if top in sizes else "rest"
                sizes[key] += col.total_compressed_size
    return sizes


def layer_metrics(out: pa.Table, summary: dict, out_dir: Path, turns: int,
                  ncpu: int) -> dict[str, float]:
    """Per-layer figures of one job from its summary and written columns."""
    m = {
        "flagship.extract_s": summary["sec_extract"],
        "flagship.offsets_s": summary["sec_offsets"],
        "flagship.annotate_write_s": summary["sec_annotate_write"],
    }
    dur = out.column("duration_us").to_numpy()
    kind = np.asarray(out.column("kind").to_pylist())
    for k in KINDS:
        d = dur[kind == k]
        m[f"extract.turn_us_p50.{k}"] = float(np.percentile(d, 50)) \
            if len(d) else 0.0
        m[f"extract.turn_us_p99.{k}"] = float(np.percentile(d, 99)) \
            if len(d) else 0.0
    kernel_s = float(dur.sum()) / 1e6
    m["extract.kernel_s"] = kernel_s
    m["extract.overhead_frac"] = 1 - kernel_s / (summary["sec_extract"]
                                                 * ncpu)
    m["extract.error_turn_frac"] = pc.sum(pc.equal(
        out.column("status"), "error")).as_py() / turns
    for col, size in write_bytes(out_dir).items():
        m[f"write.bytes_per_turn.{col}"] = size / turns
    return m


def run_job(wl, paths, expected: pa.Table, out_dir: Path, ncpu: int,
            layers: bool) -> dict:
    """One timed flagship job, then (untimed) its correctness gate. The
    peak memory is the job's own: peaks are reset before it and read before
    the gate allocates."""
    turns = expected.num_rows
    job = {"turns": turns}
    try:
        proctree.reset_peaks(PID)
        cpu0 = proctree.cpu_s(PID)
        t0 = time.perf_counter()
        summary = run_flagship_job(str(paths.input), str(out_dir),
                                   **wl.job_kwargs)
        job["wall_s"] = time.perf_counter() - t0
        job["cpu_s"] = proctree.cpu_s(PID) - cpu0
        job["peak_rss_mb"] = proctree.peak_rss_mb(PID)
        out = gate.read_output(out_dir)
        job["failed"], diffs = gate.failed_turns(out, expected)
        if diffs:
            print(f"gate: {'; '.join(diffs)}", file=sys.stderr)
        job["out_bytes"] = sum(f.stat().st_size
                               for f in out_dir.rglob("*.parquet"))
        if layers:
            job["layers"] = layer_metrics(out, summary, out_dir, turns, ncpu)
    except Exception:  # noqa: BLE001 - a failed job fails all of its turns
        traceback.print_exc()
        job = {"turns": turns, "failed": turns}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return job


def run_jobs(jobs: list[dict], wl, paths, expected, scratch: Path,
             ncpu: int, until_s: float, layers: bool) -> None:
    """Append jobs run back to back until the summed wall time of all of
    ``jobs`` reaches ``until_s``. The host speed probe runs between jobs;
    a job's ``calib_s`` and ``calib_cpu_s`` are the means of the probes
    before and after it."""
    before = calibration_s()
    while True:
        job = run_job(wl, paths, expected, scratch / f"job{len(jobs)}",
                      ncpu, layers)
        after = calibration_s()
        job["calib_s"] = (before[0] + after[0]) / 2
        job["calib_cpu_s"] = (before[1] + after[1]) / 2
        before = after
        jobs.append(job)
        if "wall_s" not in job \
                or sum(j.get("wall_s", 0) for j in jobs) >= until_s:
            return


# -- the kernel, Ray-free -------------------------------------------------------

def kernel_passes(wl, paths, jobs: list[dict]) -> dict[str, float]:
    """Untraced and traced calls of ``extract_payload`` on every turn of the
    workload, in this process. The two calls on a turn run back to back, in
    alternating order, so both see the same warm caches. Appends the pass
    to ``jobs``; a turn whose two outputs differ fails, and so does the whole
    pass if a PDF layer shows no calls on a workload with PDF turns, or any
    call on one without (a layer that escaped its rebinding)."""
    texts = pq.read_table(paths.input, columns=["text"]).column(
        "text").to_pylist()
    wm = wl.want_markdown
    kind_ns = dict.fromkeys(KINDS, 0)
    kind_bytes = dict.fromkeys(KINDS, 0)
    tr = trace.Tracer()
    root = tr.wrap(trace.KERNEL_ROOT, payload.extract_payload)
    targets = trace.kernel_targets()
    cmap = [t for t in targets if t[2] is None]
    layers = [t for t in targets if t[2] is not None]
    differ = 0
    # a fresh worker starts with an empty ToUnicode CMap cache
    fonts._CMAP_CACHE.clear()
    with tr.patched(cmap):
        for i, text in enumerate(texts):
            for traced in ((False, True) if i % 2 else (True, False)):
                if traced:
                    tr.turn = i
                    with tr.patched(layers):
                        got = root(text, want_markdown=wm)
                else:
                    t0 = time.perf_counter_ns()
                    want = payload.extract_payload(text, want_markdown=wm)
                    kind_ns[want["kind"]] += time.perf_counter_ns() - t0
                    kind_bytes[want["kind"]] += len(text.encode())
            differ += got != want
    untraced_ns = sum(kind_ns.values())

    totals = tr.layer_totals()
    pdf_calls = {layer: totals.get(layer, (0, 0))[1]
                 for layer in trace.PDF_LAYERS}
    if kind_ns["pdf"] and not all(pdf_calls.values()) \
            or not kind_ns["pdf"] and any(pdf_calls.values()):
        print(f"trace: PDF layer calls {pdf_calls} with "
              f"{kind_bytes['pdf']} bytes of PDF turns", file=sys.stderr)
        differ = len(texts)
    m: dict[str, float] = {}
    for layer in trace.KERNEL_LAYERS:
        ns, calls = totals.get(layer, (0, 0))
        m[f"core.{layer}.self_s"] = ns / 1e9
        m[f"core.{layer}.calls"] = calls
    c = tr.counts
    m["core.content.ops"] = c.get("content.ops", 0)
    m["core.spans_post.kept_frac"] = (
        c.get("spans_post.kept", 0) / c["spans_post.in"]
        if c.get("spans_post.in") else 0.0)
    m["core.fonts.cmap_parses"] = c.get("fonts.cmap_parses", 0)
    m["core.payload.span_start_found_frac"] = (
        c.get("payload.start_found", 0) / c["payload.records"]
        if c.get("payload.records") else 0.0)
    for k in KINDS:
        m[f"core.kernel_mb_per_s.{k}"] = (
            kind_bytes[k] / 1e6 / (kind_ns[k] / 1e9) if kind_ns[k] else 0.0)
    m["trace.overhead_frac"] = tr.root_ns() / untraced_ns - 1
    jobs.append({"kernel_pass": True, "turns": len(texts), "failed": differ})
    return m


# -- the run ------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def rates(done: list[dict], input_bytes: int, wall_scale: list[float],
          cpu_scale: list[float]) -> tuple[float, float, float]:
    """Turns and input MB per second and CPU seconds per 1000 turns, as
    totals over the jobs of ``done``, with each job's wall and CPU seconds
    multiplied by its ``wall_scale`` and ``cpu_scale``."""
    if not done:
        return 0.0, 0.0, 0.0
    turns = sum(j["turns"] for j in done)
    wall = sum(j["wall_s"] * k for j, k in zip(done, wall_scale))
    cpu = sum(j["cpu_s"] * k for j, k in zip(done, cpu_scale))
    return (turns / wall, input_bytes * len(done) / 1e6 / wall,
            cpu / turns * 1000)


def end_to_end(jobs: list[dict], setups: list[float],
               input_bytes: int) -> dict[str, float]:
    """Job times are in reference seconds: measured wall (CPU) seconds
    times CALIBRATION_REF_S over the job's calibration wall (CPU) time, so
    a host that runs slower for minutes does not read as a slower
    program."""
    done = [j for j in jobs if "wall_s" in j]
    attempted = sum(j["turns"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    turns, mb, cpu = rates(
        done, input_bytes,
        [CALIBRATION_REF_S / j["calib_s"] for j in done],
        [CALIBRATION_REF_S / j["calib_cpu_s"] for j in done])
    return {
        "turns_per_ref_s": turns,
        "input_mb_per_ref_s": mb,
        "cpu_ref_s_per_1k_turns": cpu,
        "setup_s": median(setups),
        "peak_rss_mb": median([j["peak_rss_mb"] for j in done]),
        "out_bytes_per_turn": median([j["out_bytes"] / j["turns"]
                                      for j in done]),
        "ok_turn_frac": 1 - failed / attempted,
    }


def timed_run(wl, paths, expected, scratch, ncpu, seconds, input_bytes,
              jobs: list[dict]) -> tuple[dict[str, float], list[float]]:
    """SETUPS Ray sessions, each set up and then timing its share of the
    jobs, so the timed jobs spread over the whole run rather than one
    window of it. Appends the jobs to ``jobs``."""
    setups: list[float] = []
    for i in range(SETUPS):
        setups.append(setup(wl, paths, ncpu, scratch))
        run_jobs(jobs, wl, paths, expected, scratch, ncpu,
                 seconds * (i + 1) / SETUPS, layers=False)
        ray_stop()
    return end_to_end(jobs, setups, input_bytes), setups


def traced_run(wl, paths, expected, scratch, ncpu, seconds,
               jobs: list[dict]) -> dict[str, float]:
    """One Ray session timing jobs for half of ``seconds`` with the
    offsets call (made in this process) traced, the median per metric over
    the jobs, then the Ray-free kernel passes. Appends the jobs to
    ``jobs``."""
    def offsets_result(tr, args, result):
        tr.counts["convs"] = pc.count_distinct(
            args[0].column("conv_id")).as_py()
        tr.counts["max_conv_turns"] = \
            int(result["turns"].max()) if len(result["turns"]) else 0

    setup(wl, paths, ncpu, scratch)
    tr = trace.Tracer()
    target = (offset_index, "compute_offsets_table",
              "offset_index.compute_offsets_table", offsets_result)
    with tr.patched([target]):
        run_jobs(jobs, wl, paths, expected, scratch, ncpu, seconds / 2,
                 layers=True)
    ray_stop()
    # one offsets call per job, in job order; run_jobs stops at the first
    # failed job, so only the last job can lack its layer figures
    offsets_s = [(end - start) / 1e9 for _, _, start, end, _, _ in
                 tr.spans()]
    per_job = [j["layers"] for j in jobs if "layers" in j]
    for layers, took in zip(per_job, offsets_s):
        layers["offset_index.compute_offsets_table_s"] = took
        layers["offset_index.convs"] = tr.counts["convs"]
        layers["offset_index.max_conv_turns"] = tr.counts["max_conv_turns"]
    metrics = {k: median([p[k] for p in per_job])
               for k in (per_job[0] if per_job else ())}
    metrics.update(kernel_passes(wl, paths, jobs))
    return metrics


def check_names(metrics: dict[str, float], units: dict[str, str],
                section: str) -> bool:
    """The run computed every metric that BENCHMARK.json names in
    ``section``, with the unit it gives, and no other."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: units.get(k) for k in metrics}
    if want != got:
        print(f"metrics differ from BENCHMARK.json {section}: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, "
              f"unit {sorted(k for k in want if k in got and want[k] != got[k])}",
              file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    paths = workloads.ensure(wl.name, args.seed)
    expected = pq.read_table(paths.expected)
    input_bytes = json.loads(paths.meta.read_text())["input_bytes"]
    # a reference that moved with the kernel under test fails its sample
    problems = workloads.reference_problems(wl.name, args.seed)
    for problem in problems:
        print(f"reference: {problem}", file=sys.stderr)
    sample = workloads.REFERENCE_TURNS
    jobs: list[dict] = [{"reference_pin": True, "turns": sample,
                         "failed": sample if problems else 0}]
    ncpu = nproc()
    scratch = workloads.CACHE_DIR / "runs" / str(PID)
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    context = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "turns": expected.num_rows,
        "input_mb": input_bytes / 1e6,
        "nproc": ncpu, "affinity": sorted(os.sched_getaffinity(0)),
        "ray_num_cpus": ncpu,
        "python": platform.python_version(), "ray": ray.__version__,
        "pyarrow": pa.__version__, "git_commit": git_commit(),
        "memcpy_gb_s_before": memcpy_gb_s(),
    }
    try:
        if args.trace:
            metrics = traced_run(wl, paths, expected, scratch, ncpu,
                                 args.seconds, jobs)
            units, section = per_layer_units(), "per_layer"
        else:
            metrics, context["setups_s"] = timed_run(
                wl, paths, expected, scratch, ncpu, args.seconds,
                input_bytes, jobs)
            done = [j for j in jobs if "wall_s" in j]
            ones = [1.0] * len(done)
            context["measured"] = dict(zip(
                ("turns_per_s", "input_mb_per_s", "cpu_s_per_1k_turns"),
                rates(done, input_bytes, ones, ones)))
            units, section = END_TO_END, "end_to_end"
    finally:
        if ray.is_initialized():
            ray_stop()
        shutil.rmtree(scratch, ignore_errors=True)
    context["memcpy_gb_s_after"] = memcpy_gb_s()
    context["jobs"] = [{k: v for k, v in j.items() if k != "layers"}
                      for j in jobs]
    attempted = sum(j["turns"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    # a metric a failed job could not give reads 0 (the run is not correct)
    out = {k: {"value": metrics.get(k, 0.0), "unit": u}
           for k, u in units.items()}
    correct = check_names(metrics, units, section) and failed == 0
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
