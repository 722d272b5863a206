"""Load client: one process, one unix-socket connection, open loop and bursts.

Run by the workload process as a separate program::

    python3 client.py --src SRC --socket PATH --seed N --rate HZ \
        --window N --burst N --cycles K --warm N --out FILE

First ``--warm`` requests are written at once and awaited, untimed, so
the socket path, the codec and every shard have run before the clock
starts; then the client prints ``ready``.  Each line then read from
standard input runs one cycle and is answered with ``done``, so the
workload process can put its training fits between cycles; the client
stops at end of input or after ``--cycles`` cycles.

A cycle has two phases.  The open-loop window sends ``--window`` seeded
``LoadGenerator`` repair requests at Poisson arrival times (consecutive
slices of one ``arrival_offsets(burstiness=1)`` schedule at ``--rate``
per second), whether or not earlier responses came back.  Each request
is timed from when it was due, so a stall also charges the requests
queued behind it, and the generator's own lateness is recorded.  Once
every response of the window is in, the burst writes ``--burst`` further
requests at once and waits for all of them.  Request ``i`` is
``LoadGenerator`` request ``i``: the warm-up takes the first ``--warm``,
then each cycle its window and its burst.

Requests are encoded before the clock starts.  One thread sends, one
reads.  The raw response lines and the timings go to ``--out`` as JSON
for the workload process to check and summarise.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time


class Reader(threading.Thread):
    """Reads response lines, stamping each with its arrival time."""

    def __init__(self, stream):
        super().__init__(name="client-reader", daemon=True)
        self.stream = stream
        self.received: list[tuple[float, bytes]] = []
        self.cond = threading.Condition()
        self.closed = False

    def run(self) -> None:
        for line in self.stream:
            now = time.perf_counter()
            with self.cond:
                self.received.append((now, line))
                self.cond.notify_all()
        with self.cond:
            self.closed = True
            self.cond.notify_all()

    def wait_for(self, count: int, timeout: float) -> None:
        """Until ``count`` responses are in, the stream ends, or ``timeout``."""
        with self.cond:
            self.cond.wait_for(lambda: self.closed or len(self.received) >= count, timeout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--window", type=int, required=True)
    parser.add_argument("--burst", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--warm", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from repro.serving import encode_request
    from repro.serving.testing import LoadGenerator

    generator = LoadGenerator(args.seed, length=96, mode="repair")
    per_cycle = args.window + args.burst
    lines = [
        encode_request(generator.request(i)) + b"\n"
        for i in range(args.warm + per_cycle * args.cycles)
    ]
    offsets = generator.arrival_offsets(
        args.window * args.cycles, rate_hz=args.rate, burstiness=1.0
    )

    conn = socket.socket(socket.AF_UNIX)
    conn.connect(args.socket)
    reader = Reader(conn.makefile("rb"))
    sent, bursts = [], []
    n_sent = args.warm
    try:
        reader.start()
        conn.sendall(b"".join(lines[: args.warm]))
        reader.wait_for(n_sent, args.timeout)
        print("ready", flush=True)
        for cycle in range(args.cycles):
            if not sys.stdin.readline():
                break
            first = args.warm + cycle * per_cycle
            window = offsets[cycle * args.window : (cycle + 1) * args.window]
            t0 = time.perf_counter() + 0.02
            for j in range(args.window):
                due = t0 + float(window[j] - window[0])
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                conn.sendall(lines[first + j])
                sent.append((first + j, due, time.perf_counter()))
            n_sent += args.window
            reader.wait_for(n_sent, args.timeout)
            burst_first = first + args.window
            bursts.append((burst_first, time.perf_counter()))
            conn.sendall(b"".join(lines[burst_first : burst_first + args.burst]))
            n_sent += args.burst
            reader.wait_for(n_sent, args.timeout)
            print("done", flush=True)
    finally:
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:  # the server already closed the connection
            pass
        reader.join(timeout=5.0)
        reader.stream.close()
        conn.close()

    received = [(t, line.decode("utf-8")) for t, line in reader.received]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "total": n_sent,
                "burst": args.burst,
                "sent": sent,
                "bursts": bursts,
                "received": received,
            },
            fh,
        )
    return 0 if len(received) == n_sent else 1


if __name__ == "__main__":
    sys.exit(main())
