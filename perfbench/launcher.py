"""Daemon launcher for the ``daemon_browse`` workload.

Runs a :class:`repro.server.daemon.MediatorServer` in its own process
over the seed's two catalogs and the ``allbooks`` view, prints
``serving HOST PORT`` once it accepts, and drains on SIGTERM.  SIGUSR1
prints one JSON snapshot line of the process's counters (and, with
``--trace 1``, its per-layer self times), so the benchmark can take
deltas around a phase.  The launcher also drains when its parent
process goes away, so it never outlives the benchmark.

    python3 perfbench/launcher.py --seed 1 [--trace 1 --spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import EngineConfig, MIXMediator  # noqa: E402
from repro.server.daemon import MediatorServer  # noqa: E402

from inputs import N_PAIRS, BrowseInputs, browse_mediator  # noqa: E402
from spans import Recorder, TimedDocument, TracedStack, peak_rss_mb, \
    timed_prepare  # noqa: E402

#: how often the main loop looks for signals and a vanished parent (s)
POLL_S = 0.02


class Daemon:
    """The served mediator plus what its snapshots read."""

    def __init__(self, seed: int, traced: bool) -> None:
        inputs = BrowseInputs(seed)
        pairs = [(pair, inputs.wrappers(pair)) for pair in range(N_PAIRS)]
        self.wrappers = [wrapper for _, wrappers in pairs
                         for wrapper in wrappers.values()]
        config = EngineConfig(serve_port=0)
        mediator = MIXMediator(config)
        self.recorder = Recorder() if traced else None
        self.cache_hits = self.cache_misses = 0
        self._results: list = []
        if traced:
            stack = TracedStack(self.recorder)
            browse_mediator(pairs, mediator, stack.register)
            self.meters, self.buffers = stack.meters, stack.buffers
            self._wrap_prepare(mediator)
        else:
            browse_mediator(pairs, mediator)
            self.meters = list(mediator.meters.values())
            self.buffers = [meter.inner for meter in self.meters]
        self.server = MediatorServer(mediator)

    def _wrap_prepare(self, mediator: MIXMediator) -> None:
        """Time each session's ``prepare`` and put the lazy-layer proxy
        between the exported answer and the document it serves."""
        recorder = self.recorder
        prepare = mediator.prepare

        def traced_prepare(query, analyze=None):
            result = recorder.call("mediator.prepare", prepare, query,
                                   analyze)
            result.document = TimedDocument(result.document, "lazy",
                                            recorder)
            self._results.append(result)
            return result

        mediator.prepare = traced_prepare

    def snapshot(self) -> dict:
        """Cumulative counters since start (sessions must be idle)."""
        results, self._results = self._results, []
        for result in results:
            for counts in result.stats()["caches"]["caches"].values():
                self.cache_hits += counts["hits"]
                self.cache_misses += counts["misses"]
        buffers = [buffer.stats for buffer in self.buffers]
        wrappers = [wrapper.stats for wrapper in self.wrappers]
        return {
            "counts": {
                "source_navs": sum(m.total for m in self.meters),
                "buffer_fills": sum(s.fills for s in buffers),
                "buffer_hits": sum(s.hits for s in buffers),
                "buffer_navigations": sum(s.navigations for s in buffers),
                "wrapper_fills": sum(s.fills for s in wrappers),
                "elements_shipped": sum(s.elements_shipped
                                        for s in wrappers),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            },
            "layers_s": (self.recorder.totals()
                         if self.recorder is not None else {}),
            "peak_rss_mb": peak_rss_mb(),
        }


def emit(event: str, payload: dict) -> None:
    payload = dict(payload, event=event)
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the recorded spans here on drain")
    args = parser.parse_args(argv)

    parent = os.getppid()
    stop = threading.Event()
    snap = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGUSR1, lambda *_: snap.set())

    daemon = Daemon(args.seed, bool(args.trace))
    with (timed_prepare(daemon.recorder) if args.trace
          else contextlib.nullcontext()):
        host, port = daemon.server.start()
        print("serving %s %d" % (host, port), flush=True)
        while not stop.is_set() and os.getppid() == parent:
            if snap.is_set():
                snap.clear()
                emit("snapshot", daemon.snapshot())
            stop.wait(POLL_S)
        clean = daemon.server.drain()
    final = daemon.snapshot()
    final["clean"] = clean
    if args.spans and daemon.recorder is not None:
        final["spans_written"] = daemon.recorder.dump(args.spans)
        final["spans_dropped"] = daemon.recorder.dropped
    emit("drained", final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
