"""Tests of the benchmark's own helpers (statistics, tracing, processes).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from procs import group_members, run_in_group  # noqa: E402
from stats import (  # noqa: E402
    Tally, percentile, quartile_spread, samples_beyond, tail_percentile,
)
from tracing import (  # noqa: E402
    Instrumentation, Recorder, layer_self_times, outermost, self_times,
)


# -- percentiles with their sample counts -------------------------------------
def test_percentile_interpolates_between_ranks():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([10], 90) == 10
    assert percentile(range(101), 90) == 90


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_percentile_needs_ten_samples_beyond():
    # 100 samples: p90 leaves 10 above it, p99 only 1.
    q, value, beyond = tail_percentile(range(100))
    assert q == 90.0
    assert beyond == samples_beyond(range(100), value) == 10
    # 1000 samples: p99 leaves 10 above it.
    q, _, beyond = tail_percentile(range(1000))
    assert (q, beyond) == (99.0, 10)


def test_tail_percentile_falls_back_to_the_median():
    q, value, beyond = tail_percentile([5.0, 1.0, 3.0])
    assert (q, value, beyond) == (50.0, 3.0, 1)


def test_quartile_spread_uses_statistics_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.9, 9.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartile_spread([4.0]) == 0.0


# -- failure accounting --------------------------------------------------------
def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.ok(3)
    tally.fail("status 503")
    tally.fail("missing response")
    tally.ok()
    assert (tally.attempted, tally.failed) == (6, 2)
    assert tally.rate == pytest.approx(2 / 6)
    assert tally.reasons == {"status 503": 1, "missing response": 1}
    assert Tally().rate == 0.0


def test_client_summary_counts_every_unanswered_request_and_pools_bursts():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.serving import encode_response
    from repro.serving.protocol import RepairResponse
    from workloads import summarise_client

    def line(request_id, status=200):
        return encode_response(RepairResponse(id=request_id, status=status)).decode()

    # Requests 0-1 form the open window, 2-5 and 6-9 two bursts of four.
    received = [(1.0, line("req-7-0")), (1.1, line("req-7-1", 503)), (1.2, line("req-9-9"))]
    received += [(2.0 + k, line(f"req-7-{i}")) for k, i in enumerate((2, 3, 4, 5))]
    received += [(10.0 + k, line(f"req-7-{i}")) for k, i in enumerate((6, 7, 8))]
    data = {
        "total": 10, "burst": 4, "received": received,
        "sent": [(0, 0.5, 0.5), (1, 0.6, 0.6)], "bursts": [(2, 1.5), (6, 9.0)],
    }
    tally = Tally()
    rows, open_rows, capacity, capacities = summarise_client(data, tally, seed=7)
    # A foreign id, a 503 and a missing response (request 9) all fail.
    assert (tally.attempted, tally.failed) == (11, 3)
    assert set(tally.reasons) == {"unexpected response id", "status 503", "missing response"}
    assert [r["due"] for r in open_rows] == [0.5]
    # Burst one: 4 done in 3.5 s; burst two: 3 done in 3 s.
    assert capacities == pytest.approx([4 / 3.5, 3 / 3.0])
    assert capacity == pytest.approx(7 / 6.5)


# -- self time -----------------------------------------------------------------
def _span(span_id, parent, layer, start, end):
    return {"id": span_id, "parent": parent, "layer": layer, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a", None, "adarts", 0.0, 10.0),
        _span("b", "a", "modelrace", 1.0, 4.0),
        _span("c", "a", "modelrace", 3.0, 6.0),  # overlaps b: union is 1..6
        _span("d", "b", "classifiers", 2.0, 3.0),
        _span("e", "a", "features", 9.0, 12.0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["b"] == pytest.approx(2.0)
    assert own["d"] == pytest.approx(1.0)
    totals = layer_self_times(spans)
    assert totals["modelrace"] == pytest.approx(2.0 + 3.0)
    assert sum(totals.values()) == pytest.approx(4.0 + 5.0 + 1.0 + 3.0)


def test_outermost_drops_worker_spans_inside_the_callers_span():
    def lane_span(span_id, layer, start, end, pid, thread=1):
        return {**_span(span_id, None, layer, start, end), "pid": pid, "thread": thread}

    spans = [
        lane_span("caller", "features", 0.0, 10.0, pid=1),
        lane_span("map", "parallel", 1.0, 9.0, pid=1),
        lane_span("w1", "features", 2.0, 3.0, pid=2),
        lane_span("w2", "features", 4.0, 6.0, pid=1, thread=7),
        lane_span("late", "features", 9.5, 11.0, pid=2),  # outlives the caller
        lane_span("other", "imputation", 2.0, 3.0, pid=2),
    ]
    kept = sorted(s["id"] for s in outermost(spans))
    assert kept == ["caller", "late", "map", "other"]


class _Toy:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return self.helper()

    def helper(self):
        return 1


def test_instrumentation_records_spans_and_restores(tmp_path):
    recorder = Recorder(str(tmp_path))
    instrumentation = Instrumentation(recorder)
    instrumentation.method(_Toy, "outer", "toy.outer", "toy")
    instrumentation.method(_Toy, "inner", "toy.inner", "toy")
    instrumentation.method(_Toy, "helper", "other.helper", "other")
    assert _Toy().outer() == 2
    names = sorted(s["name"] for s in recorder.spans)
    # The same-layer call is folded into its caller; the other layer nests.
    assert names == ["other.helper", "toy.outer"]
    helper = next(s for s in recorder.spans if s["name"] == "other.helper")
    outer = next(s for s in recorder.spans if s["name"] == "toy.outer")
    assert helper["parent"] == outer["id"]
    instrumentation.uninstall()
    for attr in ("outer", "inner", "helper"):
        assert not hasattr(_Toy.__dict__[attr], "__wrapped__")


def test_forked_spans_are_spooled_and_collected(tmp_path):
    recorder = Recorder(str(tmp_path))
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        with recorder.span("child.work", "child"):
            pass
        os._exit(0)
    os.waitpid(pid, 0)
    with recorder.span("parent.work", "parent"):
        pass
    rows = recorder.collect()
    assert sorted(r["name"] for r in rows) == ["child.work", "parent.work"]
    assert {r["pid"] for r in rows} == {pid, os.getpid()}


# -- process-group reaping -----------------------------------------------------
def test_clean_exit_is_clean():
    code, timed_out, clean = run_in_group([sys.executable, "-c", "pass"], timeout_s=30)
    assert (code, timed_out, clean) == (0, False, True)


def test_orphaned_grandchild_is_killed_and_flagged(tmp_path):
    marker = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(marker)!r}, 'w').write(str(p.pid))\n"
    )
    start = time.monotonic()
    code, timed_out, clean = run_in_group(
        [sys.executable, "-c", script], timeout_s=30, grace_s=0.5
    )
    assert code == 0 and not timed_out
    assert not clean
    grandchild = int(marker.read_text())
    assert not _alive(grandchild)
    assert time.monotonic() - start < 20


def test_timeout_kills_the_whole_group(tmp_path):
    marker = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(marker)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n"
    )
    proc_start = time.monotonic()
    code, timed_out, clean = run_in_group([sys.executable, "-c", script], timeout_s=2)
    assert timed_out and not clean and code != 0
    assert not _alive(int(marker.read_text()))
    assert time.monotonic() - proc_start < 20


def test_group_members_ignores_unknown_groups():
    assert group_members(2**22 + 12345) == []


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read().decode()
    except FileNotFoundError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


if __name__ == "__main__":
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", __file__, "-q"]))
