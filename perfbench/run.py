"""End-to-end train/serve benchmark of the A-DARTS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload train_race --seed 1 --seconds 10 --trace 0

The workloads are described in ``workloads.py``.  With ``--trace 0`` the
last line of standard output is one JSON object holding every end-to-end
metric; with ``--trace 1`` it holds every per-layer metric of a traced run
plus ``trace.overhead_frac``, measured against an untraced run made first.
Logs go to standard error.

Each run executes in its own child process and process group.  The
command fails (exit 1) when an output check fails, when any process it
started outlives the run, or when a shared-memory segment or the serving
socket it created is left behind.  It fails without printing a result
(exit 2) when the program's sources are not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
#: Wall-clock budget of the whole command.  The traced invocation runs an
#: untraced and a traced child back to back inside it; the untraced one may
#: take at most UNTRACED_SHARE of it.
BUDGET_S = 170.0
UNTRACED_SHARE = 0.5
#: glibc gives each thread that allocates its own malloc arena, so the
#: peak RSS of train_corpus's threaded fits swung between about 163 and
#: 183 MB on identical work; two arenas make it repeat within 2 MB.
RUN_ENV = {"MALLOC_ARENA_MAX": "2"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="write the training reference for this workload and seed, then stop",
    )
    parser.add_argument("--child", metavar="RESULT", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def program_importable() -> bool:
    """The checkout's own ``src/repro`` imports (not some installed copy)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return False
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError:
        return False
    return os.path.dirname(os.path.abspath(repro.__file__)) == os.path.join(SRC, "repro")


# ---------------------------------------------------------------------------
# Child: one workload run inside the run directory
# ---------------------------------------------------------------------------
def child_main(args) -> int:
    sys.path.insert(0, SRC)
    import workloads

    if args.record_reference:
        spec = workloads.WORKLOADS[args.workload]
        datasets = workloads.make_datasets(spec)
        _, document = workloads.train(spec, datasets)
        os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
        path = workloads.reference_path(spec)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workloads.engine_summary(document), fh)
            fh.write("\n")
        with open(args.child, "w", encoding="utf-8") as fh:
            json.dump({"recorded": path}, fh)
        return 0
    result = workloads.run(
        args.workload, args.seed, args.seconds, SRC,
        trace=bool(args.trace), spool_dir=os.getcwd(),
    )
    with open(args.child, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------
def run_child(args, *, traced: bool, timeout_s: float) -> dict | None:
    """One workload run in a fresh run directory and process group."""
    from procs import remove_shm, run_in_group, shm_entries

    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}-{'traced' if traced else 'plain'}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0", "--child", result_path,
    ]
    if args.record_reference:
        cmd.append("--record-reference")
    shm_before = shm_entries()
    problems = []
    result = None
    try:
        returncode, timed_out, clean = run_in_group(
            cmd, timeout_s=timeout_s, cwd=run_dir, stdout=sys.stderr,
            env={**os.environ, **RUN_ENV},
        )
        if timed_out:
            problems.append(f"run exceeded {timeout_s:.0f}s and was killed")
        elif not clean:
            problems.append("processes outlived the run and had to be killed")
        if returncode != 0 and not timed_out:
            problems.append(f"run exited with code {returncode}")
        if os.path.exists(os.path.join(run_dir, "serve.sock")):
            problems.append("serving socket left behind")
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        trace_path = os.path.join(run_dir, "trace.json")
        if os.path.exists(trace_path):
            kept = os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
            os.replace(trace_path, kept)
            print(f"[perfbench] spans written to {os.path.relpath(kept, ROOT)}",
                  file=sys.stderr)
    finally:
        leaked = shm_entries() - shm_before
        if leaked:
            problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
            remove_shm(leaked)
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"[perfbench] FAILED: {problem}", file=sys.stderr)
    if problems or result is None:
        return None
    return result


def emit(result: dict, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


def supervise(args) -> int:
    from procs import become_subreaper
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not program_importable():
        print(f"the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    become_subreaper()
    # A terminated supervisor still stops its run: SystemExit unwinds through
    # run_in_group, which kills and reaps the run's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK_DIR, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    plain = run_child(
        args, traced=False, timeout_s=BUDGET_S * (UNTRACED_SHARE if args.trace else 1.0)
    )
    if args.record_reference:
        return 0 if plain is not None else 1
    if plain is None:
        return 1
    if not args.trace:
        emit(plain, plain["end_to_end"])
        return 0 if plain["correct"] else 1
    traced = run_child(args, traced=True, timeout_s=max(1.0, deadline - time.monotonic()))
    if traced is None:
        return 1
    metrics = dict(traced["per_layer"])
    for key in ("serving.p50_ms", "serving.p90_ms", "serving.p99_ms",
                "serving.p99_samples_beyond", "error_rate"):
        metrics[key] = plain["per_layer"][key]
    metrics["trace.overhead_frac"] = {"value": overhead(plain, traced), "unit": "ratio"}
    correct = plain["correct"] and traced["correct"]
    emit({**traced, "correct": correct,
          "attempted": plain["attempted"] + traced["attempted"],
          "failed": plain["failed"] + traced["failed"]}, metrics)
    return 0 if correct else 1


def overhead(plain: dict, traced: dict) -> float:
    """Traced over untraced training wall time, minus one."""
    key = "train_wall_s"
    return traced["end_to_end"][key]["value"] / plain["end_to_end"][key]["value"] - 1.0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if args.child:
        return child_main(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
