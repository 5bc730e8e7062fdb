"""Job entry points for ``ray job submit`` (north rule: "launched via
ray job submit on fixed-size clusters").

Usage (cluster):

    ray job submit --working-dir . -- \
        python -m pdf_oxide_ray.cli flagship \
            --input s3://bucket/transcripts/ --output s3://bucket/out/

    ray job submit --working-dir . -- \
        python -m pdf_oxide_ray.cli extract \
            --input /data/transcripts/ --output /data/out/ --shards 256

Local (auto-inits a local Ray session when none exists):

    python -m pdf_oxide_ray.cli flagship --input ... --output ...

``extract`` is the resumable sharded phase (per-partition parquet +
atomic ``_manifest.json`` lineage; reruns skip complete shards).
``flagship`` is the full extract->assemble->write job.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pdf_oxide_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_flag = sub.add_parser("flagship", help="extract + assemble + write")
    p_flag.add_argument("--input", required=True)
    p_flag.add_argument("--output", required=True)
    p_flag.add_argument("--no-markdown", action="store_true")
    p_flag.add_argument("--no-spans", action="store_true")

    p_ext = sub.add_parser("extract",
                           help="resumable sharded extraction phase")
    p_ext.add_argument("--input", required=True)
    p_ext.add_argument("--output", required=True)
    p_ext.add_argument("--shards", type=int, default=8)
    p_ext.add_argument("--no-markdown", action="store_true")
    p_ext.add_argument("--no-spans", action="store_true")

    p_met = sub.add_parser("metrics",
                           help="corpus rollup over an extracted output dir")
    p_met.add_argument("--input", required=True)

    p_exp = sub.add_parser("export", help="export text/markdown/html "
                           "(reference export_to_* bins)")
    p_exp.add_argument("--input", required=True)
    p_exp.add_argument("--output", required=True)
    p_exp.add_argument("--format", choices=["text", "markdown", "html"],
                       default="text")
    p_exp.add_argument("--sink", choices=["parquet", "jsonl"],
                       default="parquet")

    p_val = sub.add_parser("validate", help="quality tails over an "
                           "extracted output dir (validate_dataset shape)")
    p_val.add_argument("--input", required=True)

    p_ana = sub.add_parser("analyze", help="corpus PDF feature census "
                           "(analyze_pdf_features shape)")
    p_ana.add_argument("--input", required=True,
                       help="transcripts parquet dir/file")

    p_ing = sub.add_parser("ingest", help="incremental day-2 ingestion: "
                           "extract a new shard, dedup against the "
                           "existing output, append a partition")
    p_ing.add_argument("--input", required=True,
                       help="NEW transcripts parquet dir/file")
    p_ing.add_argument("--output", required=True,
                       help="existing (or fresh) extracted corpus dir")
    p_ing.add_argument("--no-markdown", action="store_true")
    p_ing.add_argument("--no-spans", action="store_true")

    p_prep = sub.add_parser("prep", help="composed training-data prep: "
                            "quality filter -> decontaminate -> exact "
                            "dedup -> split-partitioned parquet")
    p_prep.add_argument("--input", required=True,
                        help="documents parquet dir/file")
    p_prep.add_argument("--output", required=True)
    p_prep.add_argument("--quality-p", type=float, default=None,
                        help="quality percentile cut (default: P75)")

    p_pdf = sub.add_parser("extract-pdfs",
                           help="extract a directory/glob of raw .pdf "
                           "files (the reference CLI's input mode)")
    p_pdf.add_argument("--input", required=True,
                       help="directory or glob of .pdf files")
    p_pdf.add_argument("--output", required=True)
    p_pdf.add_argument("--no-markdown", action="store_true")
    p_pdf.add_argument("--no-spans", action="store_true")

    p_jl = sub.add_parser("ingest-jsonl",
                          help="parse a directory/glob of .jsonl files "
                          "into the documents parquet layout (one "
                          "streaming pass, bad lines quarantined "
                          "under status=error/)")
    p_jl.add_argument("--input", required=True,
                      help="directory or glob of .jsonl files")
    p_jl.add_argument("--output", required=True)

    p_ab = sub.add_parser("ann-build",
                          help="build a partitioned IVF ANN index "
                          "from an embeddings parquet")
    p_ab.add_argument("--input", required=True)
    p_ab.add_argument("--output", required=True, help="index dir")
    p_ab.add_argument("--lists", type=int, default=16)

    p_au = sub.add_parser("ann-update",
                          help="incrementally add new vectors to an "
                          "existing index (frozen quantizer, "
                          "idempotent)")
    p_au.add_argument("--input", required=True)
    p_au.add_argument("--index", required=True)

    p_aq = sub.add_parser("ann-query",
                          help="top-k cosine search against a built "
                          "index (reads only probed partitions)")
    p_aq.add_argument("--index", required=True)
    p_aq.add_argument("--queries", required=True,
                      help="embeddings parquet holding query vectors")
    p_aq.add_argument("--nq", type=int, default=5,
                      help="use the first nq vectors as queries")
    p_aq.add_argument("--k", type=int, default=5)
    p_aq.add_argument("--probe", type=int, default=4)

    p_rb = sub.add_parser("rag-build",
                          help="chunk + embed + index a documents "
                          "parquet for retrieval")
    p_rb.add_argument("--input", required=True)
    p_rb.add_argument("--output", required=True)
    p_rb.add_argument("--lists", type=int, default=8)

    p_rs = sub.add_parser("rag-search",
                          help="text query -> top-k chunks from a "
                          "built RAG index")
    p_rs.add_argument("--index", required=True)
    p_rs.add_argument("--query", required=True)
    p_rs.add_argument("--k", type=int, default=5)
    p_rs.add_argument("--probe", type=int, default=4)

    p_diag = sub.add_parser("diagnose", help="font/encoding diagnostic "
                            "for one PDF page (reference "
                            "tools/diagnose_font_encoding.rs)")
    p_diag.add_argument("--input", required=True, help=".pdf file path")
    p_diag.add_argument("--page", type=int, default=0)

    args = parser.parse_args(argv)
    if args.cmd == "diagnose":  # single-process loupe: no Ray session
        from .core.diagnose import diagnose_page

        with open(args.input, "rb") as f:
            pdf_bytes = f.read()
        print(json.dumps(diagnose_page(pdf_bytes, args.page),
                         ensure_ascii=False, indent=1))
        return 0
    _ensure_ray()
    import ray

    try:
        if args.cmd == "flagship":
            from .pipelines.flagship import run_flagship_job

            summary = run_flagship_job(
                args.input, args.output,
                want_markdown=not args.no_markdown,
                keep_spans=not args.no_spans)
            print(json.dumps(summary))
        elif args.cmd == "extract":
            from .pipelines.flagship import run_extraction_partitioned

            summary = run_extraction_partitioned(
                args.input, args.output, num_shards=args.shards,
                want_markdown=not args.no_markdown,
                keep_spans=not args.no_spans)
            print(json.dumps(summary))
        elif args.cmd == "export":
            from .pipelines.flagship import run_export

            print(json.dumps(run_export(args.input, args.output,
                                        fmt=args.format,
                                        sink=args.sink)))
        elif args.cmd == "validate":
            import ray.data as rd

            from .pipelines.metrics import quality_tails

            ds = rd.read_parquet(args.input)
            print(json.dumps(
                quality_tails(ds).to_dict("records")[0], default=str))
        elif args.cmd == "analyze":
            from .queries import feature_census_over

            print(json.dumps(
                feature_census_over(args.input).to_dict("records")[0]))
        elif args.cmd == "ingest":
            from .pipelines.ingest import run_incremental_ingest

            print(json.dumps(run_incremental_ingest(
                args.input, args.output,
                want_markdown=not args.no_markdown,
                keep_spans=not args.no_spans)))
        elif args.cmd == "prep":
            from .pipelines.training_prep import run_training_prep

            print(json.dumps(run_training_prep(
                args.input, args.output, quality_p=args.quality_p)))
        elif args.cmd == "rag-build":
            from .pipelines.rag_prep import build_rag_index

            print(json.dumps(build_rag_index(args.input,
                                             args.output,
                                             n_lists=args.lists)))
        elif args.cmd == "rag-search":
            from .pipelines.rag_prep import rag_search

            out = rag_search(args.index, args.query, k=args.k,
                             n_probe=args.probe)
            print(json.dumps(out.to_dict("records")))
        elif args.cmd == "ann-build":
            from .pipelines.ann_index import build_ivf_index

            man = build_ivf_index(args.input, args.output,
                                  n_lists=args.lists)
            print(json.dumps(man))
        elif args.cmd == "ann-update":
            from .pipelines.ann_index import update_ivf_index

            print(json.dumps(update_ivf_index(args.input,
                                              args.index)))
        elif args.cmd == "ann-query":
            import numpy as np
            import pyarrow.parquet as pq_

            from .pipelines.ann_index import query_ivf_index

            qt = pq_.read_table(args.queries,
                                columns=["vec_id", "embedding"]) \
                .to_pandas().sort_values("vec_id").head(args.nq)
            qm = np.stack(qt["embedding"].to_numpy())
            out = query_ivf_index(args.index, qm, k=args.k,
                                  n_probe=args.probe)
            print(json.dumps(out.to_dict("records")))
        elif args.cmd == "ingest-jsonl":
            from .sources.jsonl_docs import ingest_jsonl_dir

            summary = ingest_jsonl_dir(args.input, args.output)
            summary["output"] = args.output
            print(json.dumps(summary))
        elif args.cmd == "extract-pdfs":
            from .sources.pdf_files import extract_pdf_dir
            from .state.manifest import replace_dir, require_empty

            require_empty(args.output)
            ds = extract_pdf_dir(args.input,
                                 want_markdown=not args.no_markdown,
                                 keep_spans=not args.no_spans)
            replace_dir(args.output, ds.write_parquet)
            import ray.data as rd

            # summary counts stay distributed: per-batch (status, n)
            # partials reduce to <= #statuses x #blocks rows — never the
            # corpus-sized status column on the driver (SCALE.md)
            import pandas as pd

            counts = rd.read_parquet(args.output, columns=["status"]) \
                .map_batches(
                    lambda b: b.groupby("status", as_index=False)
                    .agg(n=("status", "size")),
                    batch_format="pandas").to_pandas()
            per = (counts.groupby("status")["n"].sum().to_dict()
                   if len(counts) else {})
            print(json.dumps({
                "rows": int(sum(per.values())),
                "errors": int(per.get("error", 0)),
                "output": args.output}))
        elif args.cmd == "metrics":
            import ray.data as rd

            from .pipelines.metrics import extraction_stats, top_k_slowest

            ds = rd.read_parquet(args.input)
            stats = extraction_stats(ds)
            slowest = top_k_slowest(ds)
            print(json.dumps({
                "stats": stats.to_dict("records"),
                "top_slowest": slowest.to_dict("records"),
            }, default=str))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
