"""Per-layer metrics of a traced run, computed from its spans.

Times are inclusive unless named ``self_s``.  Training figures are per fit: span totals over the ``train-*`` phases
divided by the number of fits, so a faster program that fits more often
in the same run length reports the same work.  Serving figures come from
the ``serve`` phase (batch spans in the daemon process) and from the
``replay`` phase, where the workload process re-runs the served requests
through ``recommend_many``/``repair_many`` in batches of the daemon's mean
batch size, because the shards that served them are other processes.
``imputation.<name>.busy_s`` adds the replay's time to the per-fit
labeling time, so it covers both the labeling slate and the served
imputers.
"""

from __future__ import annotations

import time

from stats import median, percentile
from tracing import layer_self_times, outermost, self_times
from workloads import BACKENDS, CLASSIFIER_FAMILIES, IMPUTERS, LAYERS


def _sum(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def codec_us_per_request(seed: int, rows: dict) -> float:
    """Encode+decode of one request and its response, in microseconds."""
    from repro.serving import (
        decode_request, decode_response, encode_request, encode_response,
    )
    from repro.serving.testing import LoadGenerator

    generator = LoadGenerator(seed, length=96, mode="repair")
    pairs = [(generator.request(i), r["response"]) for i, r in sorted(rows.items())]
    start = time.perf_counter()
    for request, response in pairs:
        decode_request(encode_request(request))
        decode_response(encode_response(response))
    return (time.perf_counter() - start) / max(1, len(pairs)) * 1e6


def layer_metrics(
    spans, *, n_fits, n_replayed, stats_delta, daemon_stats, open_rows, rows, seed,
) -> dict:
    own = self_times(spans)
    totals = layer_self_times([s for s in spans if s["phase"].startswith("train")])
    # Inclusive figures count a pool worker's span once, inside its caller's.
    spans = outermost(spans)
    train = [s for s in spans if s["phase"].startswith("train")]
    replay = [s for s in spans if s["phase"] == "replay"]
    serve = [s for s in spans if s["phase"] == "serve" and s["name"] == "serving.run_batch"]
    fits = max(1, n_fits)
    served = max(1, n_replayed)

    def named(group, prefix):
        return [s for s in group if s["name"].startswith(prefix)]

    out = {}
    for family in CLASSIFIER_FAMILIES:
        out[f"classifiers.{family}.fit_s"] = (
            _sum(named(train, f"classifiers.{family}.fit")) / fits, "s")
    class_fits = [s for s in train if s["layer"] == "classifiers" and s["name"].endswith(".fit")]
    out["classifiers.fit_calls"] = (len(class_fits) / fits, "count")
    out["classifiers.predict_s"] = (
        _sum(s for s in train if s["layer"] == "classifiers" and s["name"].endswith(".predict"))
        / fits, "s")
    out["pipeline.scaler_s"] = (
        sum(own[s["id"]] for s in train if s["layer"] == "pipeline") / fits, "s")

    races = named(train, "modelrace.run")
    out["modelrace.run_s"] = (_sum(races) / fits, "s")
    for tag, unit in (("evaluations", "count"), ("prune_ratio", "ratio"), ("failures", "count")):
        out[f"modelrace.{tag}"] = (sum(s["tags"][tag] for s in races) / fits, unit)
    fit_features = {s["id"] for s in named(train, "adarts.fit_features")}
    out["adarts.refit_s"] = (
        _sum(s for s in named(train, "pipeline.fit") if s["parent"] in fit_features) / fits, "s")
    out["serialization.export_s"] = (_sum(named(train, "serialization.export")) / fits, "s")

    labels = named(train, "clustering.label_corpus")
    clusterings = named(train, "clustering.fit")
    out["clustering.label_corpus_s"] = (sum(own[s["id"]] for s in labels) / fits, "s")
    out["clustering.fit_s"] = (_sum(clusterings) / fits, "s")
    out["clustering.clusters"] = (sum(s["tags"]["clusters"] for s in clusterings) / fits, "count")
    out["clustering.series_labeled"] = (sum(s["tags"]["series"] for s in labels) / fits, "count")

    imputations = [s for s in train if s["layer"] == "imputation"]
    served_imputations = [s for s in replay if s["layer"] == "imputation"]
    out["imputation.calls"] = (len(imputations) / fits, "count")
    out["imputation.busy_s"] = (_sum(imputations) / fits, "s")
    for name in IMPUTERS:
        busy = _sum(named(imputations, f"imputation.{name}")) / fits
        busy += _sum(named(served_imputations, f"imputation.{name}"))
        out[f"imputation.{name}.busy_s"] = (busy, "s")
    out["imputation.serve_ms_per_series"] = (_sum(served_imputations) / served * 1000, "ms")

    kernels = [s for s in train if s["layer"] == "timeseries"]
    out["timeseries.kernel_s"] = (_sum(kernels) / fits, "s")
    out["timeseries.kernel_calls"] = (len(kernels) / fits, "count")

    extracts = [s for s in train if s["layer"] == "features"]
    n_series = sum(s["tags"]["series"] for s in extracts)
    out["features.extract_s"] = (_sum(extracts) / fits, "s")
    out["features.series"] = (n_series / fits, "count")
    out["features.ms_per_series"] = (_sum(extracts) / max(1, n_series) * 1000, "ms")
    out["features.serve_ms_per_series"] = (
        _sum(s for s in replay if s["layer"] == "features") / served * 1000, "ms")
    out["voting.serve_ms_per_series"] = (
        _sum(s for s in replay if s["layer"] == "voting") / served * 1000, "ms")

    out["parallel.map_s"] = (_sum(named(train, "parallel.map")) / fits, "s")
    for backend in BACKENDS:
        for key in ("tasks", "batches"):
            out[f"parallel.{backend}.{key}"] = (stats_delta[backend][key] / fits, "count")

    batch_of = {}
    for s in serve:
        for request_id in s["tags"]["ids"]:
            batch_of[request_id] = s
    daemon_ms = [r["response"].latency_s * 1000 for r in open_rows]
    queue_ms = [
        (r["response"].latency_s - (batch_of[r["response"].id]["end"] - batch_of[r["response"].id]["start"])) * 1000
        for r in open_rows if r["response"].id in batch_of
    ]
    batching = daemon_stats["batching"]
    pool = daemon_stats["pool"]
    out["serving.queue_wait_ms"] = (median(queue_ms) if queue_ms else 0.0, "ms")
    out["serving.shard_service_ms"] = (
        median(s["tags"]["service_s"] * 1000 for s in serve) if serve else 0.0, "ms")
    out["serving.mean_batch"] = (batching["mean_batch"], "count")
    out["serving.timed_batch_frac"] = (
        batching["timed_batches"] / max(1, batching["batches"]), "ratio")
    out["serving.transport_ms"] = (
        median((r["recv"] - r["sent"] - r["response"].latency_s) * 1000 for r in open_rows), "ms")
    out["serving.codec_us_per_req"] = (codec_us_per_request(seed, rows), "us")
    out["serving.daemon_p50_ms"] = (median(daemon_ms), "ms")
    out["serving.generator_late_ms"] = (
        percentile([(r["sent"] - r["due"]) * 1000 for r in open_rows], 90), "ms")
    out["serving.shed"] = (daemon_stats["shed"], "count")
    out["serving.resubmissions"] = (pool["resubmissions"], "count")
    out["serving.demotions"] = (pool["demotions"], "count")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (totals.get(layer, 0.0) / fits, "s")
    return out
