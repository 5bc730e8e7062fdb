"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the
checkout root. The last test runs the benchmark itself (about a minute)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from pdf_oxide_ray.core import payload  # noqa: E402
from perfbench import gate, proctree, run, trace, workloads  # noqa: E402

SAMPLE_TURNS = 60


def _traced(texts: list[str], want_markdown: bool):
    tr = trace.Tracer()
    root = tr.wrap(trace.KERNEL_ROOT, payload.extract_payload)
    with tr.patched(trace.kernel_targets()):
        out = []
        for i, text in enumerate(texts):
            tr.turn = i
            out.append(root(text, want_markdown=want_markdown))
    return tr, out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_kernel_gives_the_unwrapped_output(name):
    wl = workloads.WORKLOADS[name]
    texts = [r[3] for r in workloads.generate_rows(name, 3, SAMPLE_TURNS)]
    before = [getattr(o, a) for o, a, _, _ in trace.kernel_targets()]
    tr, traced = _traced(texts, wl.want_markdown)
    assert traced == [payload.extract_payload(t, wl.want_markdown)
                      for t in texts]
    # every rebinding is undone
    assert [getattr(o, a) for o, a, _, _ in trace.kernel_targets()] == before
    totals = tr.layer_totals()
    assert set(totals) <= set(trace.KERNEL_LAYERS)
    assert sum(ns for ns, _ in totals.values()) == tr.root_ns()
    assert totals[trace.KERNEL_ROOT][1] == len(texts)
    pdf_calls = sum(totals.get(layer, (0, 0))[1]
                    for layer in trace.PDF_LAYERS)
    if name == "mix_full":
        assert pdf_calls > 0
    else:
        assert pdf_calls == 0


def test_self_time_subtracts_covered_child_time():
    # root [0,100]: children a [10,40] and b [30,60] overlap, c [90,120]
    # runs past the root's end; a has a child d [15,20]
    starts = [0, 10, 30, 90, 15]
    ends = [100, 40, 60, 120, 20]
    parents = [-1, 0, 0, 0, 1]
    own = trace.self_times(starts, ends, parents)
    assert own.tolist() == [100 - (60 - 10) - (100 - 90), 30 - 5, 30, 30, 5]


def test_self_times_of_nested_calls_sum_to_the_root():
    tr = trace.Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(1000)))
    mid = tr.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tr.wrap("root", lambda: (mid(), leaf()))
    root()
    totals = tr.layer_totals()
    assert {k: c for k, (_, c) in totals.items()} == {
        "root": 1, "mid": 1, "leaf": 4}
    assert sum(ns for ns, _ in totals.values()) == tr.root_ns()
    assert all(ns >= 0 for ns, _ in totals.values())


def test_prefix_offsets_match_a_loop():
    rng = np.random.default_rng(0)
    conv = np.array(sorted(f"c{x}" for x in rng.integers(0, 7, 200)),
                    dtype=object)
    n_chars = rng.integers(0, 50, len(conv))
    offsets, turns = workloads.prefix_offsets(conv, n_chars, 2)
    running, want_offsets = {}, []
    for c, n in zip(conv, n_chars):
        want_offsets.append(running.get(c, 0))
        running[c] = running.get(c, 0) + n + 2
    assert offsets.tolist() == want_offsets
    assert turns.tolist() == [int((conv == c).sum()) for c in conv]


def test_generation_is_seeded():
    a = workloads.transcripts_table(workloads.generate_rows("chat_hot", 5,
                                                            50), 5)
    b = workloads.transcripts_table(workloads.generate_rows("chat_hot", 5,
                                                            50), 5)
    c = workloads.transcripts_table(workloads.generate_rows("chat_hot", 6,
                                                            50), 6)
    assert a.equals(b)
    assert not a.equals(c)


def _job_output(expected: pa.Table) -> pa.Table:
    """What a correct job writes for a fully sampled ``expected``."""
    n_chars = pc.utf8_length(expected.column("extracted_text")).to_numpy()
    offsets, conv_turns = workloads.prefix_offsets(
        np.asarray(expected.column("conv_id").to_pylist(), dtype=object),
        n_chars, 2)
    return expected.drop_columns(["sampled"]).append_column(
        "n_chars", pa.array(n_chars, pa.int64())).append_column(
        "turn_offset", pa.array(offsets)).append_column(
        "conv_turns", pa.array(conv_turns))


def _replace(table: pa.Table, name: str, values: list) -> pa.Table:
    idx = table.schema.get_field_index(name)
    return table.set_column(idx, name,
                            pa.array(values, table.schema.field(idx).type))


def test_gate_counts_changed_and_missing_turns():
    wl = workloads.WORKLOADS["mix_full"]
    table = workloads.transcripts_table(
        workloads.generate_rows("mix_full", 4, 40), 4)
    expected = workloads.expected_table(table, wl, 4)
    out = _job_output(expected)
    assert gate.failed_turns(out, expected) == (0, [])

    text = out.column("extracted_text").to_pylist()
    text[7] += "x"
    assert gate.failed_turns(_replace(out, "extracted_text", text),
                             expected)[0] == 1
    offsets = out.column("turn_offset").to_pylist()
    offsets[3] += 1
    assert gate.failed_turns(_replace(out, "turn_offset", offsets),
                             expected)[0] == 1
    status = out.column("status").to_pylist()
    status[5] = "error"
    assert gate.failed_turns(_replace(out, "status", status),
                             expected)[0] == 1
    assert gate.failed_turns(out.slice(1), expected)[0] == expected.num_rows


def test_expected_output_covers_a_seeded_sample():
    wl = workloads.WORKLOADS["chat_hot"]
    table = workloads.transcripts_table(
        workloads.generate_rows("chat_hot", 8, 2000), 8)
    a = workloads.expected_table(table, wl, 8)
    assert a.equals(workloads.expected_table(table, wl, 8))
    assert pc.sum(a.column("sampled")).as_py() == workloads.REFERENCE_TURNS


def test_reference_pin_catches_a_moved_reference(tmp_path, monkeypatch):
    assert workloads.reference_problems("chat_hot", 11) == []
    pinned = json.loads(workloads.DIGESTS.read_text())
    pinned["chat_hot"]["11"]["output"] = "0" * 16
    pinned["chat_hot"][str(workloads.CANARY_SEED)]["input"] = "0" * 16
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(pinned))
    monkeypatch.setattr(workloads, "DIGESTS", digests)
    assert workloads.reference_problems("chat_hot", 11) == [
        "the reference output of chat_hot seed 11 differs from digests.json"]
    # a seed without digests is judged by the canary seed's
    assert workloads.reference_problems("chat_hot", 10 ** 6) == [
        f"the generated input of chat_hot seed {workloads.CANARY_SEED} "
        "differs from digests.json"]


def test_reset_peaks_forgets_an_earlier_peak():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; b = bytearray(200 << 20); "
         "del b; print(flush=True); sys.stdin.read()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        child.stdout.readline()
        before = proctree.peak_rss_mb(child.pid)
        proctree.reset_peaks(child.pid)
        assert before - proctree.peak_rss_mb(child.pid) > 150
    finally:
        child.communicate("")


def test_calibration_probe_restores_the_affinity_mask():
    cpus = os.sched_getaffinity(0)
    assert min(run.calibration_s(loops=1)) > 0
    assert os.sched_getaffinity(0) == cpus


def test_a_host_twice_as_slow_halves_the_reference_seconds():
    # wall time scales by the calibration's wall time, CPU by its CPU time
    ref = run.CALIBRATION_REF_S
    jobs = [{"turns": 1000, "failed": 0, "wall_s": 2.0, "cpu_s": 3.0,
             "calib_s": 2 * ref, "calib_cpu_s": 1.5 * ref,
             "peak_rss_mb": 1.0, "out_bytes": 5000}]
    m = run.end_to_end(jobs, [1.0], input_bytes=4_000_000)
    assert m["turns_per_ref_s"] == pytest.approx(1000)
    assert m["input_mb_per_ref_s"] == pytest.approx(4.0)
    assert m["cpu_ref_s_per_1k_turns"] == pytest.approx(2.0)

@pytest.mark.parametrize("trace_flag", [0, 1])
def test_a_run_emits_exactly_the_benchmark_names(trace_flag):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chat_hot",
         "--seed", "11", "--seconds", "1", "--trace", str(trace_flag)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = spec["per_layer" if trace_flag else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    if trace_flag:
        for layer in trace.PDF_LAYERS:
            assert result["metrics"][f"core.{layer}.calls"]["value"] == 0
