"""The one commit protocol (`state/manifest.py`) and the writers that use
it: the protocol's parts on plain files, a crash injected at each step of
the commit of the partitioned extract, ingest, the ANN build and update
and the RAG index (a clean rerun must leave what one uninterrupted run
leaves), torn manifests, and a guard that keeps commits in the protocol."""

import collections
import json
import os
import pathlib
import re
import shutil

import pandas as pd
import pyarrow.parquet as pq
import pytest

from pdf_oxide_ray.state.manifest import (add_files, read_json,
                                          read_manifests, replace_dir,
                                          write_json)
from tests.test_ann_index import SF

EMB = os.path.join(SF, "embeddings.parquet")
DOCS = os.path.join(SF, "documents.parquet")
# what differs between two runs that commit the same rows: manifest
# timings and the per-turn extract time
VOLATILE = {"wall_sec", "rows_per_sec", "written_unix", "duration_us"}


def _files(root):
    return sorted(str(p.relative_to(root)) for p in pathlib.Path(root)
                  .rglob("*") if p.is_file())


def test_replace_dir_swaps_in_a_fresh_copy(tmp_path):
    path = tmp_path / "part"
    path.mkdir()
    (path / "old").write_text("old")
    stale = tmp_path / ".part.tmp"  # a crashed attempt's temp dir
    stale.mkdir()
    (stale / "junk").write_text("junk")

    def write(tmp):
        os.makedirs(tmp)
        pathlib.Path(tmp, "new").write_text("new")

    replace_dir(str(path), write)
    assert _files(tmp_path) == ["part/new"]
    # a write of nothing commits an empty directory
    replace_dir(str(path), lambda tmp: None)
    assert os.listdir(tmp_path) == ["part"] and not os.listdir(path)


def test_add_files_keeps_what_is_there(tmp_path):
    path = tmp_path / "a"
    (path / "k=1").mkdir(parents=True)
    (path / "k=1" / "old").write_text("old")

    def write(tmp):
        for sub in ("k=1", "k=2"):
            os.makedirs(os.path.join(tmp, sub))
            pathlib.Path(tmp, sub, "new").write_text(sub)

    add_files(str(path), write)
    assert _files(tmp_path) == ["a/k=1/new", "a/k=1/old", "a/k=2/new"]


def test_json_write_is_atomic_and_read_is_guarded(tmp_path):
    path = str(tmp_path / "m.json")
    assert read_json(path) is None
    write_json(path, {"a": 1})
    assert read_json(path) == {"a": 1}
    assert os.listdir(tmp_path) == ["m.json"]
    for torn in ('{"a": ', "", "[1, 2]", "\xff"):
        pathlib.Path(path).write_text(torn, encoding="latin-1")
        assert read_json(path) is None


# --- crash injection ----------------------------------------------------

class Crash(Exception):
    pass


def _hook_replace(monkeypatch, root, fault=None):
    """Record the kind ('data' or 'manifest') of every ``os.replace`` into
    ``root``; with ``fault = (kind, n, when)``, raise ``Crash`` just
    before or just after the n-th one of that kind."""
    real = os.replace
    seen = []

    def replace(src, dst):
        if not str(dst).startswith(str(root)):
            return real(src, dst)
        kind = "manifest" if str(dst).endswith(".json") else "data"
        seen.append(kind)
        hit = fault is not None and fault[:2] == (kind, seen.count(kind))
        if hit and fault[2] == "before":
            raise Crash(dst)
        real(src, dst)
        if hit and fault[2] == "after":
            raise Crash(dst)

    monkeypatch.setattr(os, "replace", replace)
    return seen


def _snapshot(root):
    """Every manifest and the multiset of rows of each directory's parquet
    files, less their ``VOLATILE`` fields, by path under ``root``; plus the
    hidden entries (temp dirs and files) left anywhere under it."""
    mans, rows, hidden = {}, {}, []
    for d, dirs, files in os.walk(root):
        rel = os.path.relpath(d, root)
        hidden += [os.path.join(rel, n) for n in dirs + files
                   if n.startswith(".")]
        for name in files:
            path = os.path.join(d, name)
            if name.endswith(".json"):
                with open(path) as f:
                    mans[os.path.join(rel, name)] = {
                        k: v for k, v in json.load(f).items()
                        if k not in VOLATILE}
            elif name.endswith(".parquet"):
                rows.setdefault(rel, collections.Counter()).update(
                    json.dumps({k: v for k, v in r.items()
                                if k not in VOLATILE},
                               sort_keys=True, default=str)
                    for r in pq.read_table(path).to_pylist())
    return mans, rows, hidden


def _extract(work):
    from pdf_oxide_ray.gen.transcripts import write_corpus

    inp = work / "c1"
    write_corpus(str(inp), n_convs=6, seed=5, with_golden=False)
    return inp / "transcripts.parquet"


def _setup_partitioned(work):
    return None, _extract(work)


def _run_partitioned(out, inp):
    from pdf_oxide_ray.pipelines.flagship import run_extraction_partitioned

    run_extraction_partitioned(str(inp), str(out), num_shards=2,
                               want_markdown=False, keep_spans=False)


def _setup_ingest(work):
    from pdf_oxide_ray.gen.transcripts import write_corpus
    from pdf_oxide_ray.pipelines.ingest import run_incremental_ingest

    seed = work / "seed"
    run_incremental_ingest(str(_extract(work)), str(seed), keep_spans=False)
    write_corpus(str(work / "c2"), n_convs=6, seed=6, with_golden=False)
    return seed, work / "c2" / "transcripts.parquet"


def _run_ingest(out, inp):
    from pdf_oxide_ray.pipelines.ingest import run_incremental_ingest

    run_incremental_ingest(str(inp), str(out), keep_spans=False)


def _vectors(work):
    emb = pd.read_parquet(EMB).sort_values("vec_id").head(300)
    half, full = work / "half.parquet", work / "full.parquet"
    emb.head(150).to_parquet(half, index=False)
    emb.to_parquet(full, index=False)
    return half, full


def _setup_ann_build(work):
    return None, _vectors(work)[1]


def _run_ann_build(out, inp):
    from pdf_oxide_ray.pipelines.ann_index import build_ivf_index

    build_ivf_index(str(inp), str(out), n_lists=4)


def _setup_ann_update(work):
    from pdf_oxide_ray.pipelines.ann_index import build_ivf_index

    half, full = _vectors(work)
    seed = work / "seed"
    build_ivf_index(str(half), str(seed), n_lists=4)
    return seed, full


def _run_ann_update(out, inp):
    from pdf_oxide_ray.pipelines.ann_index import update_ivf_index

    update_ivf_index(str(inp), str(out))


def _setup_rag(work):
    docs = pd.read_parquet(DOCS, columns=["doc_id", "text"]).head(60)
    path = work / "docs.parquet"
    docs.to_parquet(path, index=False)
    return None, path


def _run_rag(out, inp):
    from pdf_oxide_ray.pipelines.rag_prep import build_rag_index

    build_rag_index(str(inp), str(out), n_lists=4, concurrency=1)


WRITERS = {
    "partitioned_extract": (_setup_partitioned, _run_partitioned),
    "ingest": (_setup_ingest, _run_ingest),
    "ann_build": (_setup_ann_build, _run_ann_build),
    "ann_update": (_setup_ann_update, _run_ann_update),
    "rag": (_setup_rag, _run_rag),
}


@pytest.fixture(scope="module")
def baselines(ray_session, tmp_path_factory):
    """Per writer: its starting state (None: an empty output), its input,
    the output of one uninterrupted run, that output's snapshot and the
    kinds of the run's ``os.replace`` calls."""
    out = {}

    def get(name):
        if name not in out:
            setup, run = WRITERS[name]
            work = tmp_path_factory.mktemp(name)
            start, inp = setup(work)
            base = work / "base"
            if start is not None:
                shutil.copytree(start, base)
            with pytest.MonkeyPatch.context() as mp:
                seen = _hook_replace(mp, base)
                run(base, inp)
            out[name] = (start, inp, base, _snapshot(base), seen)
        return out[name]

    return get


@pytest.mark.parametrize("name", sorted(WRITERS))
@pytest.mark.parametrize("fault", [
    ("data", 1, "before"),       # the data sits in the temp dir
    ("data", 1, "after"),        # swapped (ANN update: some files moved)
    ("manifest", -1, "before"),  # the manifest's temp file is written
], ids=["in_temp", "swapped", "manifest_tmp"])
def test_crash_then_rerun_equals_one_run(name, fault, baselines, tmp_path,
                                         monkeypatch):
    start, inp, _, want, seen = baselines(name)
    run = WRITERS[name][1]
    if fault[1] == -1:  # the last one of its kind
        fault = (fault[0], seen.count(fault[0]), fault[2])
    out = tmp_path / "out"
    if start is not None:
        shutil.copytree(start, out)
    _hook_replace(monkeypatch, out, fault)
    with pytest.raises(Crash):
        run(out, inp)
    monkeypatch.undo()
    run(out, inp)
    assert _snapshot(out) == (*want[:2], [])


@pytest.mark.parametrize("name,manifests", [
    ("ann_build", ["_manifest.json"]),
    ("rag", ["_rag_manifest.json", "index/_manifest.json"]),
])
def test_torn_manifest_means_rebuild(name, manifests, baselines, tmp_path):
    """A kill during an in-place manifest write leaves a truncated file;
    the writer must rebuild, not fail on it."""
    _, inp, base, want, _ = baselines(name)
    out = tmp_path / "out"
    shutil.copytree(base, out)
    for rel in manifests:
        path = out / rel
        path.write_bytes(path.read_bytes()[:7])
    WRITERS[name][1](out, inp)
    assert _snapshot(out) == (*want[:2], [])


@pytest.mark.parametrize("name,params", [
    ("ann_build", {"n_lists": 8}),
    ("rag", {"n_lists": 4, "chunk_tokens": 96, "concurrency": 1}),
])
def test_crashed_rebuild_keeps_no_stale_manifest(name, params, baselines,
                                                 tmp_path, monkeypatch):
    """A rebuild with other parameters that crashes after its first swap
    must not leave the old manifest vouching for the new files: a rerun
    with the old parameters then rebuilds instead of returning early."""
    from pdf_oxide_ray.pipelines.ann_index import build_ivf_index
    from pdf_oxide_ray.pipelines.rag_prep import build_rag_index

    build = {"ann_build": build_ivf_index, "rag": build_rag_index}[name]
    _, inp, base, want, _ = baselines(name)
    out = tmp_path / "out"
    shutil.copytree(base, out)
    _hook_replace(monkeypatch, out, ("data", 1, "after"))
    with pytest.raises(Crash):
        build(str(inp), str(out), **params)
    monkeypatch.undo()
    WRITERS[name][1](out, inp)
    assert _snapshot(out) == (*want[:2], [])


def test_stopped_rebuild_answers_no_query(baselines, tmp_path, monkeypatch):
    """An ``n_lists=8`` rebuild stopped after its ``assignments/`` swap has
    removed the old manifest and written none: the directory holds no
    index, so a query answers nothing instead of reading half a build."""
    from pdf_oxide_ray.pipelines.ann_index import (build_ivf_index,
                                                   query_ivf_index)

    _, inp, base, _, _ = baselines("ann_build")
    queries = pd.read_parquet(inp).head(4)["embedding"].tolist()
    assert len(query_ivf_index(str(base), queries, k=3))
    out = tmp_path / "out"
    shutil.copytree(base, out)
    _hook_replace(monkeypatch, out, ("data", 1, "after"))
    with pytest.raises(Crash):
        build_ivf_index(str(inp), str(out), n_lists=8)
    monkeypatch.undo()
    assert (out / "assignments").is_dir()
    assert read_json(str(out / "_manifest.json")) is None
    assert query_ivf_index(str(out), queries, k=3).empty


def test_empty_shard_commits_an_empty_partition(ray_session, tmp_path):
    """A conv-hash shard that selects no conversation writes no files (Ray
    makes no directory for zero rows); it still commits, with rows 0."""
    from pdf_oxide_ray.gen.transcripts import write_corpus
    from pdf_oxide_ray.pipelines.flagship import run_extraction_partitioned

    write_corpus(str(tmp_path / "c"), n_convs=1, seed=5, with_golden=False)
    out = str(tmp_path / "out")
    s = run_extraction_partitioned(
        str(tmp_path / "c" / "transcripts.parquet"), out, num_shards=2,
        want_markdown=False, keep_spans=False)
    rows = sorted(m["rows"] for m in read_manifests(out))
    assert s["rows"] > 0 and rows == [0, s["rows"]]


# --- guard ----------------------------------------------------------------

_PKG = pathlib.Path(__file__).resolve().parent.parent / "pdf_oxide_ray"
_COMMIT_CALL = re.compile(r"\b(os\.replace|shutil\.rmtree|json\.dump)\(")


def test_commits_live_only_in_the_protocol():
    bad = []
    for sub in ("pipelines", "sources"):
        for path in sorted((_PKG / sub).rglob("*.py")):
            text = path.read_text()
            for m in _COMMIT_CALL.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                bad.append(f"{path.relative_to(_PKG)}:{line} calls "
                           f"{m.group(1)}")
    assert not bad, "commit through state/manifest.py:\n" + "\n".join(bad)
