"""The workloads: train an engine, serve it, check both, report.

Every workload runs the two user-facing paths of A-DARTS, with training
sized so a different layer dominates each:

``train_race``
    ``fit_datasets`` on Power/Water/Motion with all 12 classifier
    families, serial, gamma pinned to 0, then ``export_engine``.
    ModelRace and the tree ensembles take most of the time.
``train_corpus``
    The same path over all six categories with three cheap families and
    two workers: labeling races, clustering, the similarity kernels,
    bulk extraction and ``repro.parallel`` do the work, and the race is
    small.  The control where a classifier change should show nothing.

Both then serve the engine they trained through ``ServingDaemon`` behind
``SocketServer`` to a separate one-connection client process: an untimed
warm-up burst, then ``CYCLES`` cycles of an open-loop window at a fixed
Poisson rate followed by a saturating burst.  Latency percentiles pool
every window; capacity pools every burst.  Training inputs are fixed
(see ``CORPUS_BASE_SEED``); the seed drives the served requests and their
arrival times.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from procs import shm_entries
from stats import Tally, median, percentile, samples_beyond, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

SOCKET_NAME = "serve.sock"
MAX_BATCH = 16
MAX_DELAY_S = 0.005
SETUP_REPEATS = 3
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    categories: tuple[str, ...]
    series_per_dataset: int
    datasets_per_category: int
    partial_sets: int
    families: tuple[str, ...] | None
    n_jobs: int


#: The catalog's default corpus, as ``repro train`` builds it, and the race
#: seed.  Training inputs are fixed: the race's path, and with it the wall
#: time, changes with the corpus (10 s to 30 s for train_race across corpus
#: seeds on one machine), and the engine it elects sets the cost of every
#: served request, so seeded corpora would bury changes in seed-to-seed
#: spread.  The seed drives the served requests and their arrival times.
CORPUS_BASE_SEED = 7
RACE_SEED = 2
#: Open-loop arrival rate: about 40% of the burst capacity of two shards on
#: two CPUs (about 290 requests/s).
RATE_HZ = 120.0
#: Fewest fits a run makes; it fits on until its fits took the run length.
MIN_FITS = 2
#: Serving schedule.  The warm-up burst gives each shard several full
#: batches.  Each cycle's window lasts WINDOW / RATE_HZ seconds; its burst
#: is about twelve full batches.  Bursts get most of the requests because
#: capacity is gated and latency is not (see ``run``).  The cycles run in
#: blocks of CYCLES_PER_BLOCK between fits, so serving samples the whole
#: run.
WARM = 4 * MAX_BATCH
CYCLES = 8
CYCLES_PER_BLOCK = 4
WINDOW = 48
BURST = 200

WORKLOADS = {
    "train_race": Workload(
        "train_race", ("Power", "Water", "Motion"), 10, 2, 2, None, 1,
    ),
    "train_corpus": Workload(
        "train_corpus",
        ("Power", "Water", "Motion", "Climate", "Lightning", "Medical"),
        48, 2, 2, ("knn", "softmax", "gaussian_nb"), 2,
    ),
}

#: Every family and imputer gets a per-layer row, zero where unused, so
#: each workload prints the same metric names.
CLASSIFIER_FAMILIES = (
    "adaboost", "decision_tree", "extra_trees", "gaussian_nb", "gradient_boosting",
    "knn", "linear_svm", "mlp", "nearest_centroid", "random_forest", "ridge",
    "softmax",
)
IMPUTERS = (
    "cdrec", "dynammo", "grouse", "iim", "knn", "linear", "mean", "mlp", "rosl",
    "softimpute", "stmvl", "svdimp", "svt", "tenmf", "tkcm", "trmf",
)
BACKENDS = ("serial", "thread", "process")
LAYERS = (
    "adarts", "modelrace", "pipeline", "classifiers", "clustering", "imputation",
    "timeseries", "features", "voting", "parallel", "serialization", "serving",
)


_T0 = time.perf_counter()


def log(message: str) -> None:
    print(f"[perfbench {time.perf_counter() - _T0:6.1f}s] {message}", file=sys.stderr, flush=True)


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


# ---------------------------------------------------------------------------
# Set-up pieces
# ---------------------------------------------------------------------------
def import_seconds(src: str) -> float:
    """Median wall time of a fresh interpreter importing the public API."""
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro, repro.datasets, "
        "repro.serving, repro.core.serialization"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return median(times)


def make_datasets(spec: Workload):
    from repro.datasets import load_category

    return [
        ds
        for category in spec.categories
        for ds in load_category(
            category,
            n_series=spec.series_per_dataset,
            n_datasets=spec.datasets_per_category,
            base_seed=CORPUS_BASE_SEED,
        )
    ]


def _corpus_digest(datasets) -> list:
    return [
        (ds.name, [float(np.nansum(s.values)) for s in ds.series]) for ds in datasets
    ]


def train(spec: Workload, datasets, recorder=None):
    """Datasets to exported engine document; returns ``(engine, document)``."""
    from repro import ADarts, ModelRaceConfig, ParallelConfig
    from repro.core.serialization import export_engine
    from repro.pipeline.scoring import ScoreWeights

    parallel = ParallelConfig(n_jobs=min(spec.n_jobs, _nproc()))
    engine = ADarts(
        config=ModelRaceConfig(
            n_partial_sets=spec.partial_sets,
            weights=ScoreWeights(gamma=0.0),
            random_state=RACE_SEED,
        ),
        classifier_names=list(spec.families) if spec.families else None,
        random_state=RACE_SEED,
        parallel=parallel if parallel.n_jobs > 1 else None,
    )
    engine.fit_datasets(datasets)
    if recorder is None:
        return engine, export_engine(engine)
    with recorder.span("serialization.export", "serialization"):
        return engine, export_engine(engine)


# ---------------------------------------------------------------------------
# Training output checks
# ---------------------------------------------------------------------------
def engine_summary(document: dict) -> dict:
    X = np.asarray(document["training_features"], dtype=float)
    return {
        "pipelines": json.loads(json.dumps(document["pipelines"], sort_keys=True)),
        "labels": list(document["training_labels"]),
        "row_sums": X.sum(axis=1).tolist(),
        "col_sums": X.sum(axis=0).tolist(),
    }


def reference_path(spec: Workload) -> str:
    return os.path.join(REFERENCE_DIR, f"{spec.name}.json")


def compare_summaries(got: dict, want: dict) -> list[str]:
    """Differences between two engine summaries (empty when they agree)."""
    problems = []
    if got["pipelines"] != want["pipelines"]:
        problems.append("elite pipelines differ")
    if got["labels"] != want["labels"]:
        problems.append("training labels differ")
    for key in ("row_sums", "col_sums"):
        a, b = np.asarray(got[key]), np.asarray(want[key])
        if a.shape != b.shape or not np.allclose(a, b, rtol=TOLERANCE, atol=TOLERANCE):
            problems.append(f"training matrix {key} differ beyond {TOLERANCE}")
    return problems


def check_training(spec: Workload, documents: list[dict]) -> list[str]:
    problems = []
    first = documents[0]
    X0 = np.asarray(first["training_features"], dtype=float)
    for k, doc in enumerate(documents[1:], start=2):
        X = np.asarray(doc["training_features"], dtype=float)
        if doc["pipelines"] != first["pipelines"]:
            problems.append(f"fit {k} elected other pipelines than fit 1")
        if doc["training_labels"] != first["training_labels"]:
            problems.append(f"fit {k} labeled the corpus differently from fit 1")
        if X.shape != X0.shape or not np.allclose(X, X0, rtol=TOLERANCE, atol=TOLERANCE):
            problems.append(f"fit {k} training matrix differs from fit 1")
    path = reference_path(spec)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            want = json.load(fh)
        problems += [f"reference: {p}" for p in compare_summaries(engine_summary(first), want)]
    else:
        log(f"no reference recorded at {os.path.relpath(path, HERE)}; "
            "checked agreement between this run's fits only")
    return problems


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------
class Service:
    """ServingDaemon + SocketServer on a unix socket in the run directory."""

    def __init__(self, engine, n_shards: int):
        from repro.serving import ServingDaemon, SocketServer

        self.daemon = ServingDaemon(
            engine,
            n_shards=n_shards,
            shard_backend="process",
            max_batch=MAX_BATCH,
            max_delay_s=MAX_DELAY_S,
        )
        self.server = SocketServer(self.daemon, path=SOCKET_NAME)

    def start(self, warm_requests) -> None:
        from repro.serving.testing import ServingTestClient

        self.daemon.start()
        self.server.start()
        # One request at a time so the round robin reaches every shard and
        # each attaches and refits its engine before the clock starts.
        client = ServingTestClient(self.daemon)
        for request in warm_requests:
            response = client.send(request)
            if not response.ok:
                raise RuntimeError(f"warm-up request failed: {response.error}")

    def stop(self) -> None:
        try:
            self.server.stop()
        finally:
            try:
                self.daemon.stop()
            finally:
                if os.path.exists(SOCKET_NAME):
                    os.unlink(SOCKET_NAME)


class LoadClient:
    """The load client process (``client.py``), run one cycle at a time."""

    OUT = "client.json"

    def __init__(self, src: str, seed: int):
        cmd = [
            sys.executable, os.path.join(HERE, "client.py"), "--src", src,
            "--socket", SOCKET_NAME, "--seed", str(seed), "--rate", str(RATE_HZ),
            "--window", str(WINDOW), "--burst", str(BURST), "--cycles", str(CYCLES),
            "--warm", str(WARM), "--out", self.OUT,
        ]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._expect("ready")

    def _expect(self, word: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != word:
            raise RuntimeError(f"load client said {line!r}, expected {word!r}")

    def cycle(self) -> None:
        self.proc.stdin.write("cycle\n")
        self.proc.stdin.flush()
        self._expect("done")

    def finish(self) -> dict:
        """End the client and return what it recorded."""
        self.proc.stdin.close()
        returncode = self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if returncode != 0:
            log(f"load client exited with {returncode}")
        with open(self.OUT, encoding="utf-8") as fh:
            data = json.load(fh)
        os.unlink(self.OUT)
        return data

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def summarise_client(data: dict, tally: Tally, seed: int):
    """Outcome rows of every request, the open-loop rows, burst capacity.

    Every request that came back without a 200, with a foreign id, or not
    at all counts as failed.  Capacity is the requests the bursts completed
    over the time they took, all bursts together.
    """
    from repro.serving import decode_response

    n_total, n_burst = data["total"], data["burst"]
    expected = {f"req-{seed}-{i}": i for i in range(n_total)}
    rows: dict[int, dict] = {}
    for recv, line in data["received"]:
        response = decode_response(line)
        index = expected.get(response.id)
        if index is None or index in rows:
            tally.fail("unexpected response id")
            continue
        rows[index] = {"recv": recv, "response": response}
    for i in range(n_total):
        row = rows.get(i)
        if row is None:
            tally.fail("missing response")
        elif not row["response"].ok:
            tally.fail(f"status {row['response'].status}")
        else:
            tally.ok()
    open_rows = []
    for i, due, sent in data["sent"]:
        row = rows.get(i)
        if row is not None and row["response"].ok:
            open_rows.append({**row, "due": due, "sent": sent})
    completed, busy_s, capacities = 0, 0.0, []
    for first, start in data["bursts"]:
        done = [rows[i]["recv"] for i in range(first, first + n_burst)
                if i in rows and rows[i]["response"].ok]
        took = max(max(done, default=start) - start, 1e-9)
        completed += len(done)
        busy_s += took
        capacities.append(len(done) / took)
    return rows, open_rows, completed / max(busy_s, 1e-9), capacities


class Replay:
    """Served answers and the engine to recompute them with."""

    def __init__(self, engine, seed: int, chunk: int, served: dict):
        self.engine, self.seed, self.chunk, self.served = engine, seed, chunk, served

    def mismatches(self, indices: list[int]) -> list[str]:
        """Where served answers differ from in-process ones for ``indices``."""
        from repro.serving.testing import LoadGenerator
        from repro.timeseries import TimeSeries

        generator = LoadGenerator(self.seed, length=96, mode="repair")
        found = []
        for start in range(0, len(indices), self.chunk):
            part = indices[start : start + self.chunk]
            series = [TimeSeries(generator.series(i), name=f"load-{i}") for i in part]
            recs = self.engine.recommend_many(series)
            fixed = self.engine.repair_many(series, recs)
            for i, rec, repaired in zip(part, recs, fixed):
                algorithm, values = self.served[i]
                if algorithm != rec.algorithm:
                    found.append(f"request {i}: served {algorithm}, in-process {rec.algorithm}")
                elif values is None or not np.allclose(
                    values, repaired.values, rtol=0.0, atol=TOLERANCE
                ):
                    found.append(f"request {i}: repaired values differ beyond {TOLERANCE}")
        return found


#: The replay a forked check worker runs, set once in each worker.
_worker_replay: Replay | None = None


def _init_worker(replay: Replay) -> None:
    global _worker_replay
    _worker_replay = replay


def _worker_mismatches(indices: list[int]) -> list[str]:
    return _worker_replay.mismatches(indices)


def check_served(engine_doc: dict, rows: dict, seed: int, chunk: int, recorder=None) -> list[str]:
    """Each served answer equals in-process recommend/repair on the same engine.

    The engine is rebuilt from its exported document, as every shard does.
    Requests are replayed in batches of ``chunk``, the mean batch the
    daemon formed.  A traced run replays them all in this process, so its
    spans yield the per-series split of extraction, vote and imputation.
    An untraced run splits them over two forked workers, which inherit the
    engine instead of rebuilding it; it forks only once the service has
    stopped and this process has no other thread, and the run's process
    group reaps the workers with everything else it started.
    """
    from repro.core.serialization import import_engine

    indices = sorted(i for i, r in rows.items() if r["response"].ok)
    replay = Replay(
        import_engine(engine_doc), seed, chunk,
        {i: (rows[i]["response"].algorithm, rows[i]["response"].values) for i in indices},
    )
    workers = min(_nproc(), 2)
    if recorder is not None or workers < 2 or threading.active_count() > 1:
        if recorder is not None:
            recorder.phase = "replay"
        mismatches = replay.mismatches(indices)
    else:
        context = multiprocessing.get_context("fork")
        with context.Pool(workers, initializer=_init_worker, initargs=(replay,)) as pool:
            found = pool.map(_worker_mismatches, [indices[k::workers] for k in range(workers)])
        pool.join()
        mismatches = [m for part in found for m in part]
    if len(mismatches) > 5:
        mismatches = mismatches[:5] + [f"{len(mismatches)} served answers differ in all"]
    return mismatches


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, src: str, *, trace: bool, spool_dir: str) -> dict:
    """One workload run in the current (run) directory; returns the result.

    Fits and serving cycles alternate: fit 1 makes the engine that is
    served, then each later fit follows a block of ``CYCLES_PER_BLOCK``
    cycles, until there are ``MIN_FITS`` fits that took ``seconds`` in all
    and every cycle has run.  Both kinds of measurement so span the whole
    run, and a slow spell of the machine is shared between them.
    """
    spec = WORKLOADS[name]
    tally = Tally()
    problems: list[str] = []
    recorder = instrumentation = None
    if trace:
        from tracing import Instrumentation, Recorder

        recorder = Recorder(spool_dir)
    from repro.parallel import engine_stats
    from repro.serving.testing import LoadGenerator

    shm_before = shm_entries()
    import_s = import_seconds(src)
    gen_times, digests = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        datasets = make_datasets(spec)
        gen_times.append(time.perf_counter() - start)
        digests.append(_corpus_digest(datasets))
    if any(d != digests[0] for d in digests):
        problems.append("dataset generation is not repeatable")
    log(f"{name}: {sum(len(d) for d in datasets)} series in {len(datasets)} datasets; "
        f"import {import_s:.2f}s, generation {median(gen_times):.2f}s")
    if trace:
        instrumentation = Instrumentation(recorder).install()

    fit_times, documents = [], []
    parallel_delta = {b: {"tasks": 0, "batches": 0} for b in BACKENDS}

    def fit():
        """One timed fit; returns the trained engine, None when it failed."""
        if recorder is not None:
            recorder.phase = f"train-{len(fit_times) + 1}"
        before = engine_stats()
        start = time.perf_counter()
        try:
            trained, document = train(spec, datasets, recorder)
        except Exception as exc:  # a failed fit is a failed operation
            log(f"fit failed: {type(exc).__name__}: {exc}")
            tally.fail("fit failed")
            problems.append("a fit failed")
            return None
        fit_times.append(time.perf_counter() - start)
        for backend, counts in _stats_delta(before, engine_stats()).items():
            for key, n in counts.items():
                parallel_delta[backend][key] += n
        documents.append(document)
        tally.ok()
        return trained

    engine = fit()
    if engine is None:
        return _result(tally, problems, {}, {})
    n_shards = min(2, _nproc())
    generator = LoadGenerator(seed, length=96, mode="repair")
    warm = generator.requests(2 * n_shards, start=WARM + (WINDOW + BURST) * CYCLES)
    start_times = []
    service = client = None
    cycles = 0
    try:
        for k in range(SETUP_REPEATS):
            if recorder is not None:
                recorder.phase = "serve-setup"
            start = time.perf_counter()
            service = Service(engine, n_shards)
            service.start(warm)
            start_times.append(time.perf_counter() - start)
            if k < SETUP_REPEATS - 1:
                service.stop()
                service = None
        client = LoadClient(src, seed)
        while True:
            if recorder is not None:
                recorder.phase = "serve"
            for _ in range(min(CYCLES_PER_BLOCK, CYCLES - cycles)):
                client.cycle()
                cycles += 1
            if len(fit_times) >= MIN_FITS and sum(fit_times) >= seconds:
                if cycles == CYCLES:
                    break
            elif fit() is None:
                break
        data = client.finish()
        client = None
        daemon_stats = service.daemon.stats()
    finally:
        if client is not None:
            client.kill()
        if service is not None:
            service.stop()
    log(f"{name}: {len(fit_times)} fits, wall {[round(t, 3) for t in fit_times]}; "
        f"{cycles} serving cycles; service up in {[round(t, 2) for t in start_times]}s")
    problems += check_training(spec, documents)
    # Checked here, before multiprocessing's resource tracker exits and
    # quietly unlinks whatever segments were leaked.
    leaked = shm_entries() - shm_before
    if leaked:
        problems.append(f"shared-memory segments left after shutdown: {sorted(leaked)}")
    rows, open_rows, capacity, capacities = summarise_client(data, tally, seed)
    chunk = max(1, int(round(daemon_stats["batching"]["mean_batch"])))
    problems += check_served(documents[0], rows, seed, chunk, recorder)
    log(f"{name}: served answers checked")
    if instrumentation is not None:
        instrumentation.uninstall()

    latencies_ms = [(r["recv"] - r["due"]) * 1000 for r in open_rows]
    end_to_end = {
        "train_wall_s": (median(fit_times), "s"),
        "setup_s": (import_s + median(gen_times) + median(start_times), "s"),
        "serve_capacity_rps": (capacity, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    q, tail_ms, beyond = tail_percentile(latencies_ms)
    log(
        f"{name}: open {len(open_rows)}/{WINDOW * CYCLES} at {RATE_HZ:g}/s, "
        f"window p50 {[round(percentile(w, 50), 1) for w in _windows(latencies_ms)]} ms, "
        f"bursts {[round(c) for c in capacities]}/s, "
        f"mean batch {daemon_stats['batching']['mean_batch']:.2f}; "
        f"p{q:g} {tail_ms:.1f} ms with {beyond} samples beyond"
    )
    p99_ms = percentile(latencies_ms, 99)
    # Open-loop latency swung by a quarter between runs of the same code
    # on a shared two-CPU machine, p50 included: a slower spell of the
    # host lengthens each batch, batches grow, and wake-ups across the
    # client, daemon and shard processes take longer.  The percentiles are
    # therefore reported without a bound.
    diagnostics = {
        "serving.p50_ms": (percentile(latencies_ms, 50), "ms"),
        "serving.p90_ms": (percentile(latencies_ms, 90), "ms"),
        "serving.p99_ms": (p99_ms, "ms"),
        "serving.p99_samples_beyond": (samples_beyond(latencies_ms, p99_ms), "count"),
        "error_rate": (tally.rate, "ratio"),
    }
    per_layer = {}
    if recorder is not None:
        from layers import layer_metrics

        spans = recorder.collect()
        per_layer = layer_metrics(
            spans, n_fits=len(fit_times), n_replayed=len(rows),
            stats_delta=parallel_delta,
            daemon_stats=daemon_stats, open_rows=open_rows, rows=rows, seed=seed,
        )
        with open("trace.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh, default=str)
    return _result(tally, problems, end_to_end, {**diagnostics, **per_layer})


def _windows(latencies_ms: list[float]) -> list[list[float]]:
    return [latencies_ms[k : k + WINDOW] for k in range(0, len(latencies_ms), WINDOW)]


def _stats_delta(before: dict, after: dict) -> dict:
    out = {}
    for backend in BACKENDS:
        a, b = after.get(backend, {}), before.get(backend, {})
        out[backend] = {k: a.get(k, 0) - b.get(k, 0) for k in ("tasks", "batches")}
    return out


def _result(tally: Tally, problems: list[str], end_to_end: dict, per_layer: dict) -> dict:
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    if tally.reasons:
        log(f"failures: {tally.reasons}")
    return {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "end_to_end": {k: {"value": float(v), "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": float(v), "unit": u} for k, (v, u) in per_layer.items()},
    }
