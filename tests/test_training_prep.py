"""Composed training-prep pipeline: the end-to-end flow must reproduce
its standalone stages' semantics (quality cut, decontamination, exact
dedup keep-min-id, md5-nibble split) and write a split-partitioned
corpus."""

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow.dataset as pads
import pytest

from pdf_oxide_ray.functions import textops as ftext
from pdf_oxide_ray.pipelines.training_prep import run_training_prep


def test_training_prep_end_to_end(ray_session, tmp_path):
    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "prep")
    summary = run_training_prep(os.path.join(sf, "documents.parquet"), out)

    assert summary["n_input"] == 500
    assert 0 < summary["n_unique"] <= summary["n_filtered"] \
        <= summary["n_input"]
    assert sum(summary["per_split"].values()) == summary["n_unique"]
    assert set(summary["per_split"]) <= {"train", "val", "test"}

    back = pads.dataset(out, partitioning="hive").to_table().to_pandas()
    assert len(back) == summary["n_unique"]
    # exact dedup held: no surviving text occurs twice
    assert back["text"].duplicated().sum() == 0
    # quality cut held: every survivor scores >= the reported threshold
    q = ftext.quality_score(back["text"]).to_numpy(np.float64)
    assert (q >= summary["quality_threshold"]).all()
    # split rule held: md5 first nibble 0->test, 1->val, else train
    nib = back["doc_id"].map(
        lambda d: hashlib.md5(str(d).encode()).hexdigest()[0])
    expect = np.where(nib == "0", "test",
                      np.where(nib == "1", "val", "train"))
    assert (back["split"].astype(str).to_numpy() == expect).all()

    # a second run into the same directory raises before it writes; the
    # first run's rows stay as they were (Ray's append mode doubled them)
    before = pads.dataset(out, partitioning="hive").to_table()
    with pytest.raises(FileExistsError):
        run_training_prep(os.path.join(sf, "documents.parquet"), out)
    assert pads.dataset(out, partitioning="hive").to_table().equals(before)


def test_training_prep_decontaminates_and_is_deterministic(ray_session,
                                                           tmp_path):
    sf = "/root/testdata/sf0.001"
    import pyarrow.parquet as pq

    # baseline run, then use one of ITS SURVIVORS (longest, so it has
    # >= 8 tokens) as the "benchmark": it and its 8-gram sharers must
    # vanish from a contaminated rerun
    plain = run_training_prep(os.path.join(sf, "documents.parquet"),
                              str(tmp_path / "p0"))
    surv = pads.dataset(str(tmp_path / "p0"), partitioning="hive") \
        .to_table().to_pandas()
    bench_text = surv.loc[surv["n_tokens"].idxmax(), "text"]
    assert len(bench_text.split()) >= 8

    out1 = str(tmp_path / "p1")
    out2 = str(tmp_path / "p2")
    s1 = run_training_prep(os.path.join(sf, "documents.parquet"), out1,
                           benchmark_texts=[bench_text])
    s2 = run_training_prep(os.path.join(sf, "documents.parquet"), out2,
                           benchmark_texts=[bench_text])
    assert s1["n_unique"] == s2["n_unique"]
    assert s1["per_split"] == s2["per_split"]
    back = pads.dataset(out1, partitioning="hive").to_table().to_pandas()
    assert (back["text"] != bench_text).all()
    # decontamination strictly tightened the corpus vs the baseline
    assert s1["n_filtered"] < plain["n_filtered"]
