"""The navigation benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop; README.md gives sizes and reasons):

* ``browse_prefix`` -- in process, one client: each query registers a
  fresh mediator over two 300-book catalogs, asks for "books under $T"
  and reads the first k results.
* ``join_scan`` -- in process, one client: the Figure 3 homes/schools
  join read to the end over cold buffers.
* ``daemon_browse`` -- the ``browse_prefix`` query sequence sent to a
  mediator daemon in its own process, from two client threads.

With ``--trace 0`` the run measures the end-to-end metrics with no
proxy in the stack.  With ``--trace 1`` it measures half the time
untraced and half traced, prints the per-layer self-time table, and
reads the per-query counts over a fixed, seed-determined pass.  Every
answer is checked against the eager oracle.  The last stdout line is
the JSON result; any wrong answer makes the exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    from repro import open_virtual_document
    from repro.server.client import SocketChannel, connect, fetch_status
    from repro.xtree import Tree, to_xml

    import inputs
    import spans
except ImportError as err:  # no program to measure: no result
    sys.exit("perfbench: cannot import the program from src/: %s" % err)

#: where spans are written (the benchmark's only file output)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

clock = time.perf_counter

#: set-ups per process of an in-process run, in the parent and in
#: every measuring window, so the reported median spans the whole run
#: (a daemon_browse run starts one daemon per window)
SETUP_REPS = {"browse_prefix": 1, "join_scan": 3}
#: untimed warm-up before the first measured query (s)
WARMUP_S = 0.5
#: measuring windows of an untraced run, each in a fresh process (a
#: fresh daemon for daemon_browse), and how far into the query sequence
#: each one starts after the previous.  On a shared machine speed comes
#: in bursts of several seconds, so every end-to-end timing is taken
#: per window and the run reports the median over its windows.
WINDOWS = 8
SKIP = 1000
#: queries (sessions) in the seed-determined count pass
COUNT_QUERIES = {"browse_prefix": 40, "join_scan": 5, "daemon_browse": 20}
#: client threads of daemon_browse.  With two (one per core of a
#: 2-core machine) the daemon's interpreter-lock hand-offs decide every
#: percentile and run-to-run spreads of the p90s reached 0.4 to 0.75;
#: one client keeps them within the 0.25 bounds.
CLIENT_THREADS = 1
#: levels per element the daemon ships to a session: a result is a
#: book, its fields and their text, so every fill carries whole books
#: (at the default depth 3 most round trips fetch one field's text, and
#: the few that ship books sat right at the rtt p90)
SESSION_DEPTH = 4
#: bounds on waiting for the daemon (s)
DAEMON_START_S = 60.0
DAEMON_REPLY_S = 30.0
#: time a measuring process may take beyond its window (start-up,
#: set-up, warm-up) before it is killed (s)
WORKER_SLACK_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("first_result_ms.mean", "ms"), ("first_result_ms.p90", "ms"),
    ("query_ms.p50", "ms"), ("query_ms.p90", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("rtt_ms.p50", "ms"), ("rtt_ms.p90", "ms"),
)

#: per-layer self-time rows (ms per query); they sum to the traced
#: query total
ROWS = (
    "client.self_ms", "mediator.register_ms", "mediator.self_ms",
    "xmas.parse_ms", "xmas.compose_ms", "xmas.translate_ms",
    "rewriter.optimize_ms", "lazy.build_ms", "lazy.self_ms",
    "navigation.self_ms", "buffer.self_ms", "wrappers.fill_ms",
    "server.self_ms", "server.transport_ms", "residual_ms",
)
#: span name -> the row its self time folds into
SPAN_ROWS = {
    "query": "residual_ms", "client": "client.self_ms",
    "mediator.register": "mediator.register_ms",
    "mediator.prepare": "mediator.self_ms",
    "xmas.parse": "xmas.parse_ms", "xmas.compose": "xmas.compose_ms",
    "xmas.translate": "xmas.translate_ms",
    "rewriter.optimize": "rewriter.optimize_ms",
    "lazy.build": "lazy.build_ms", "lazy": "lazy.self_ms",
    "navigation": "navigation.self_ms", "buffer": "buffer.self_ms",
    "wrappers": "wrappers.fill_ms",
}
#: client spans of daemon_browse spent waiting on the daemon
REMOTE_SPANS = ("client.connect", "rtt", "client.close")
PREPARE_ROWS = ("mediator.self_ms", "xmas.parse_ms", "xmas.compose_ms",
                "xmas.translate_ms", "rewriter.optimize_ms",
                "lazy.build_ms")
COUNTS = (
    ("navigation.source_navs", "count"), ("buffer.fills", "count"),
    ("buffer.hit_ratio", "ratio"), ("wrappers.fills", "count"),
    ("wrappers.elements_shipped", "count"),
    ("runtime.cache_hits", "count"), ("runtime.cache_misses", "count"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("server.requests", "count"), ("server.bytes", "bytes"),
)
PER_LAYER = (
    tuple((name, "ms") for name in ROWS)
    + (("traced_query_ms", "ms"), ("trace.overhead_ratio", "ratio"),
       ("mediator.prepare_ms", "ms"), ("client.connect_ms", "ms"),
       ("server.dispatch_ms.open", "ms"),
       ("server.dispatch_ms.fill", "ms"))
    + COUNTS
)


class AnswerError(Exception):
    """A check on the program's output failed."""


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (inclusive linear interpolation); 0
    when every query failed (the run then reports ``correct: false``)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def span(recorder, name: str):
    return (recorder.span(name) if recorder is not None
            else contextlib.nullcontext())


def report_error(workload: str, item, err: BaseException) -> None:
    print("perfbench: %s query %r failed: %s: %s"
          % (workload, item, type(err).__name__, err), file=sys.stderr)


class Outcome:
    """One query's timings, answer and the objects that served it."""

    __slots__ = ("first_s", "connect_s", "total_s", "answer", "mediator",
                 "result", "wrappers", "stack", "channel")

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields.get(name))


class Phase:
    """Samples of one timed phase (thread-safe)."""

    def __init__(self) -> None:
        # timings (s) as packed doubles: an in-process run keeps some
        # 50 fill samples per query, and as float objects in lists they
        # grew the measured process's peak RSS with its query count
        self.first_s = array("d")
        self.connect_s = array("d")
        self.query_s = array("d")
        self.rtt_s = array("d")
        self.attempted = 0
        self.failed = 0
        #: client-observed daemon traffic: requests and fill commands
        self.requests = 0
        self.fills = 0
        self.wire_bytes = 0
        self.wall_s = 0.0
        self._lock = threading.Lock()

    def record(self, outcome: Outcome, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            if outcome.channel is not None:
                # open + fills + close
                self.requests += outcome.channel.messages + 2
                self.fills += outcome.channel.commands
                self.wire_bytes += outcome.channel.bytes_transferred
            if not ok:
                self.failed += 1
                return
            self.first_s.append(outcome.first_s)
            self.connect_s.append(outcome.connect_s)
            self.query_s.append(outcome.total_s)

    def fail(self) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1

    FIELDS = ("first_s", "connect_s", "query_s", "rtt_s", "attempted",
              "failed", "requests", "fills", "wire_bytes", "wall_s")

    def export(self) -> dict:
        """The samples and counters as plain data (for pickling)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def absorb(self, data: dict) -> None:
        """Pool another phase's samples into this one."""
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + data[name])

    def timings(self) -> dict:
        """The per-window end-to-end timings."""
        ms = [1000.0 * s for s in self.query_s]
        first = [1000.0 * s for s in self.first_s]
        rtt = [1000.0 * s for s in self.rtt_s]
        return {
            # the mean, as the median of browse_prefix's near-equal
            # first results jumps with the machine's speed (README.md)
            "first_result_ms.mean": (statistics.fmean(first) if first
                                     else 0.0),
            "first_result_ms.p90": percentile(first, 90),
            "query_ms.p50": percentile(ms, 50),
            "query_ms.p90": percentile(ms, 90),
            "queries_per_s": len(ms) / self.wall_s,
            "rtt_ms.p50": percentile(rtt, 50),
            "rtt_ms.p90": percentile(rtt, 90),
        }


def end_to_end(windows: list, setup_s: list, rss_mb: list) -> dict:
    """The run's end-to-end metrics: the median over its windows of
    each timing, the median set-up time and the peak RSS."""
    timings = [window.timings() for window in windows]
    metrics = {name: statistics.median(t[name] for t in timings)
               for name in timings[0]}
    metrics.update(setup_s=statistics.median(setup_s),
                   peak_rss_mb=max(rss_mb))
    return metrics


def timed_fills(wrappers, samples: list) -> None:
    """Time each wrapper fill: the in-process LXP round trip."""
    for wrapper in wrappers.values():
        fill = wrapper.fill

        def timed(hole_id, fill=fill):
            start = clock()
            try:
                return fill(hole_id)
            finally:
                samples.append(clock() - start)

        wrapper.fill = timed


def read_books(root, k: int, results: list) -> float:
    """Read the first ``k`` results below ``root``; returns the time
    the first one was read in full."""
    first = None
    book = root.first_child()
    while book is not None:
        results.append(book.to_tree())
        if first is None:
            first = clock()
        if len(results) == k:
            break
        book = book.right()
    return first


def count_metrics(totals: dict, n: int, requests: int = 0,
                  wire_bytes: int = 0) -> dict:
    cache_lookups = totals["cache_hits"] + totals["cache_misses"]
    return {
        "navigation.source_navs": totals["source_navs"] / n,
        "buffer.fills": totals["buffer_fills"] / n,
        "buffer.hit_ratio": (totals["buffer_hits"]
                             / totals["buffer_navigations"]),
        "wrappers.fills": totals["wrapper_fills"] / n,
        "wrappers.elements_shipped": totals["elements_shipped"] / n,
        "runtime.cache_hits": totals["cache_hits"] / n,
        "runtime.cache_misses": totals["cache_misses"] / n,
        "runtime.cache_hit_ratio": (totals["cache_hits"] / cache_lookups
                                    if cache_lookups else 0.0),
        "server.requests": requests / n,
        "server.bytes": wire_bytes / n,
    }


def rows_from_spans(self_s: dict, n: int) -> dict:
    """Per-query self-time rows (ms) from span self times (s)."""
    rows = dict.fromkeys(ROWS, 0.0)
    for name, seconds in self_s.items():
        if name in SPAN_ROWS:
            rows[SPAN_ROWS[name]] += 1000.0 * seconds / n
    return rows


def overhead(traced: "Phase", untraced: "Phase") -> float:
    return (statistics.median(traced.query_s)
            / statistics.median(untraced.query_s))


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

class InProcess:
    """The closed loop and count pass shared by the in-process
    workloads."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = None
        self.oracle = None

    def _stack(self, recorder):
        """(register function, traced stack) for one query."""
        if recorder is None:
            return inputs.register_wrapper, None
        stack = spans.TracedStack(recorder)
        return stack.register, stack

    @staticmethod
    def _root(result, recorder):
        if recorder is None:
            return result.root
        return open_virtual_document(
            spans.TimedDocument(result.document, "lazy", recorder))

    def loop(self, phase: Phase, seconds: float, recorder=None,
             skip: int = 0) -> None:
        items = self.items()
        for _ in range(skip):
            next(items)
        query_id = 0
        start = clock()
        deadline = start + seconds
        while clock() < deadline:
            item = next(items)
            query_id += 1
            if recorder is not None:
                recorder.set_query(query_id)
            try:
                outcome = self.once(item, recorder, rtt=phase.rtt_s)
            except Exception as err:  # report it, keep measuring
                report_error(self.name, item, err)
                phase.fail()
                continue
            phase.record(outcome, self.check(item, outcome))
        phase.wall_s = clock() - start

    def counts(self, traced: bool, phase: Phase) -> dict:
        """Per-query counts over the seed's first queries."""
        n = COUNT_QUERIES[self.name]
        items = self.items()
        totals = dict.fromkeys(
            ("source_navs", "buffer_fills", "buffer_hits",
             "buffer_navigations", "wrapper_fills", "elements_shipped",
             "cache_hits", "cache_misses"), 0)
        recorder = spans.Recorder(cap=0) if traced else None
        with (spans.timed_prepare(recorder) if traced
              else contextlib.nullcontext()):
            for _ in range(n):
                item = next(items)
                outcome = self.once(item, recorder)
                phase.record(outcome, self.check(item, outcome))
                if traced:
                    meters = outcome.stack.meters
                    buffers = outcome.stack.buffers
                else:
                    meters = list(outcome.mediator.meters.values())
                    buffers = [meter.inner for meter in meters]
                totals["source_navs"] += sum(m.total for m in meters)
                for buffer in buffers:
                    totals["buffer_fills"] += buffer.stats.fills
                    totals["buffer_hits"] += buffer.stats.hits
                    totals["buffer_navigations"] += buffer.stats.navigations
                for wrapper in outcome.wrappers.values():
                    totals["wrapper_fills"] += wrapper.stats.fills
                    totals["elements_shipped"] += \
                        wrapper.stats.elements_shipped
                caches = outcome.result.stats()["caches"]["caches"]
                for cache in caches.values():
                    totals["cache_hits"] += cache["hits"]
                    totals["cache_misses"] += cache["misses"]
        return count_metrics(totals, n)

    def once(self, item, recorder=None, rtt=None) -> Outcome:
        """One query: register a fresh mediator, prepare, read."""
        register, stack = self._stack(recorder)
        with span(recorder, "query"):
            start = clock()
            with span(recorder, "mediator.register"):
                wrappers = self.wrappers(item)
                if rtt is not None:
                    timed_fills(wrappers, rtt)
                mediator = self.mediator(item, wrappers, register)
            with span(recorder, "mediator.prepare"):
                result = mediator.prepare(self.query(item))
            connected = clock()
            answer: list = []
            with span(recorder, "client"):
                first = self.read(self._root(result, recorder), item, answer)
            end = clock()
        return Outcome(first_s=first - start, connect_s=connected - start,
                       total_s=end - start, answer=answer,
                       mediator=mediator, result=result, wrappers=wrappers,
                       stack=stack)


class BrowsePrefix(InProcess):
    """Cold buffers on every query: prepare, the first-result path and
    buffer fills do the work."""

    name = "browse_prefix"

    def setup_once(self) -> None:
        self.inputs = inputs.BrowseInputs(self.seed)
        inputs.browse_mediator(
            (pair, self.inputs.wrappers(pair))
            for pair in range(inputs.N_PAIRS))

    def items(self):
        return self.inputs.queries()

    def wrappers(self, item):
        return self.inputs.wrappers(item[0])

    @staticmethod
    def mediator(item, wrappers, register):
        return inputs.browse_mediator([(item[0], wrappers)],
                                      register=register)

    @staticmethod
    def query(item) -> str:
        return inputs.browse_query(item[0], item[1])

    @staticmethod
    def read(root, item, answer: list) -> float:
        return read_books(root, item[2], answer)

    def compute_oracle(self) -> None:
        """The eager answer's first MAX_K results per (pair, T)."""
        mediator = inputs.browse_mediator(
            (pair, self.inputs.wrappers(pair))
            for pair in range(inputs.N_PAIRS))
        self.oracle = {}
        for pair in range(inputs.N_PAIRS):
            for threshold in inputs.THRESHOLDS:
                answer = mediator.query_eager(
                    inputs.browse_query(pair, threshold))
                self.oracle[pair, threshold] = [
                    to_xml(book) for book in answer.children[:inputs.MAX_K]]

    def check(self, item, outcome: Outcome) -> bool:
        pair, threshold, k = item
        return ([to_xml(book) for book in outcome.answer]
                == self.oracle[pair, threshold][:k])


class JoinScan(InProcess):
    """The lazy join/groupBy, the operator caches and a full buffer
    drain do the work; prepare is a small share."""

    name = "join_scan"

    def setup_once(self) -> None:
        self.inputs = inputs.JoinInputs(self.seed)
        for dataset in range(len(self.inputs.datasets)):
            inputs.join_mediator(self.inputs.wrappers(dataset))

    def items(self):
        return self.inputs.queries()

    def wrappers(self, item):
        return self.inputs.wrappers(item)

    @staticmethod
    def mediator(item, wrappers, register):
        return inputs.join_mediator(wrappers, register=register)

    @staticmethod
    def query(item) -> str:
        return inputs.JOIN_QUERY

    @staticmethod
    def read(root, item, answer: list) -> float:
        answer.append(root.tag)
        return read_books(root, -1, answer)

    def compute_oracle(self) -> None:
        """The eager answer per dataset."""
        self.oracle = [
            to_xml(inputs.join_mediator(self.inputs.wrappers(dataset))
                   .query_eager(inputs.JOIN_QUERY))
            for dataset in range(len(self.inputs.datasets))]

    def check(self, item, outcome: Outcome) -> bool:
        label, homes = outcome.answer[0], outcome.answer[1:]
        return to_xml(Tree(label, homes)) == self.oracle[item]


def measure_in_worker(name: str, seed: int, seconds: float, oracle,
                      skip: int) -> dict:
    """One fresh process's share of an untraced run: set up, warm up,
    measure ``seconds`` starting ``skip`` queries into the sequence."""
    workload = IN_PROCESS[name](seed)
    setup_s = set_up(workload)
    workload.oracle = oracle
    workload.loop(Phase(), WARMUP_S)
    phase = Phase()
    workload.loop(phase, seconds, skip=skip)
    return {"phase": phase.export(), "setup_s": setup_s,
            "peak_rss_mb": spans.peak_rss_mb()}


def measure_in_subprocess(name: str, seed: int, seconds: float, oracle,
                          skip: int) -> dict:
    """:func:`measure_in_worker` in a fresh interpreter, waited for on
    every path out (the arguments go in on stdin, the result comes back
    on stdout, both pickled)."""
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "--worker"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(
            pickle.dumps((name, seed, seconds, oracle, skip)),
            timeout=seconds + WORKER_SLACK_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("measuring process exited with status %d"
                           % proc.returncode)
    return pickle.loads(out)


def worker_main() -> int:
    """The ``--worker`` entry point of :func:`measure_in_subprocess`."""
    args = pickle.load(sys.stdin.buffer)
    done = measure_in_worker(*args)
    sys.stdout.buffer.write(pickle.dumps(done))
    sys.stdout.buffer.flush()
    return 0


def set_up(workload: InProcess) -> list:
    """Time this process's set-ups of ``workload``."""
    times = []
    for _ in range(SETUP_REPS[workload.name]):
        start = clock()
        workload.setup_once()
        times.append(clock() - start)
    return times


def run_in_process(workload: InProcess, seconds: float,
                   trace: bool) -> dict:
    setup_s = set_up(workload)
    workload.compute_oracle()
    untraced = Phase()
    report = {"phases": [untraced], "problems": []}
    if not trace:
        windows, rss = [], []
        for index in range(WINDOWS):
            done = measure_in_subprocess(workload.name, workload.seed,
                                         seconds / WINDOWS, workload.oracle,
                                         index * SKIP)
            window = Phase()
            window.absorb(done["phase"])
            windows.append(window)
            untraced.absorb(done["phase"])
            setup_s += done["setup_s"]
            rss.append(done["peak_rss_mb"])
        report["metrics"] = end_to_end(windows, setup_s, rss)
        return report
    workload.loop(Phase(), WARMUP_S)
    workload.loop(untraced, seconds / 2)
    recorder = spans.Recorder()
    traced = Phase()
    with spans.timed_prepare(recorder):
        workload.loop(traced, seconds / 2, recorder)
    count_phase = Phase()
    counts = workload.counts(False, count_phase)
    if workload.counts(True, count_phase) != counts:
        report["problems"].append(
            "the traced stack changed the per-query counts")
    report["phases"] += [traced, count_phase]
    n = traced.attempted
    rows = rows_from_spans(recorder.totals(), n)
    metrics = dict(rows)
    metrics.update(counts)
    metrics.update({
        "traced_query_ms": 1000.0 * recorder.durations()["query"] / n,
        "trace.overhead_ratio": overhead(traced, untraced),
        "mediator.prepare_ms": sum(rows[r] for r in PREPARE_ROWS),
        "client.connect_ms": 1000.0 * statistics.mean(untraced.connect_s),
        "server.dispatch_ms.open": 0.0,
        "server.dispatch_ms.fill": 0.0,
    })
    report["metrics"] = metrics
    report["spans"] = {"client": recorder}
    return report


# ---------------------------------------------------------------------------
# daemon_browse
# ---------------------------------------------------------------------------

class Launcher:
    """The daemon subprocess: started, snapshotted, drained."""

    def __init__(self, seed: int, traced: bool, spans_path=None) -> None:
        command = [sys.executable, os.path.join(HERE, "launcher.py"),
                   "--seed", str(seed), "--trace", "1" if traced else "0"]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self.command = command
        self.proc = None
        self.address = None
        self._lines: "queue.Queue" = queue.Queue()

    def start(self) -> None:
        self.proc = subprocess.Popen(self.command, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True,
                                     cwd=ROOT)
        threading.Thread(target=self._pump, daemon=True).start()
        line = self._next_line(DAEMON_START_S)
        parts = line.split()
        if len(parts) != 3 or parts[0] != "serving":
            raise RuntimeError("daemon did not start: %r" % line)
        self.address = (parts[1], int(parts[2]))

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("daemon silent for %.0fs" % timeout) from None
        if line is None:
            raise RuntimeError("daemon exited (status %s)"
                               % self.proc.poll())
        return line

    def _event(self, event: str) -> dict:
        while True:
            payload = json.loads(self._next_line(DAEMON_REPLY_S))
            if payload.get("event") == event:
                return payload

    def snapshot(self) -> dict:
        os.kill(self.proc.pid, signal.SIGUSR1)
        return self._event("snapshot")

    def status(self) -> dict:
        return fetch_status(*self.address, prometheus=True)

    def wait_idle(self) -> dict:
        """The status once every session has ended (their counters
        are bumped only after the final reply is sent).  The probe's
        own connection is the one admitted session left."""
        deadline = clock() + DAEMON_REPLY_S
        while True:
            status = self.status()
            if status["active_sessions"] <= 1:
                return status
            if clock() > deadline:
                raise RuntimeError("daemon sessions did not end")
            time.sleep(0.005)

    def stop(self) -> dict:
        """Drain with SIGTERM and reap; kill if it does not end."""
        proc = self.proc
        if proc is None:
            return {}
        final = {}
        if proc.poll() is None:
            proc.terminate()
            try:
                final = self._event("drained")
            except (RuntimeError, ValueError):
                pass
        try:
            proc.wait(timeout=DAEMON_REPLY_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self.proc = None
        return final


def dispatch(status: dict) -> dict:
    """{op: (sum_ms, count)} of the daemon's request histogram."""
    found: dict = {}
    pattern = re.compile(
        r'^repro_server_request_ms_(sum|count)\{op="(\w+)"\} (\S+)$')
    for line in status.get("prometheus", "").splitlines():
        match = pattern.match(line)
        if match:
            kind, op, value = match.groups()
            total, count = found.get(op, (0.0, 0))
            if kind == "sum":
                total = float(value)
            else:
                count = int(value)
            found[op] = (total, count)
    return found


def dispatch_delta(before: dict, after: dict) -> dict:
    a, b = dispatch(before), dispatch(after)
    return {op: (total - a.get(op, (0.0, 0))[0],
                 count - a.get(op, (0.0, 0))[1])
            for op, (total, count) in b.items()}


class DaemonBrowse:
    """browse_prefix's query sequence over TCP, two client threads."""

    name = "daemon_browse"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.local = BrowsePrefix(seed)
        self.launchers: list = []

    def start(self, traced: bool, spans_path=None) -> Launcher:
        launcher = Launcher(self.seed, traced, spans_path)
        self.launchers.append(launcher)
        launcher.start()
        return launcher

    def stop_all(self) -> None:
        for launcher in self.launchers:
            launcher.stop()

    def compute_oracle(self) -> list:
        """The eager oracle, plus the in-process lazy answer for every
        (pair, T), which the daemon's answers must equal."""
        self.local.compute_oracle()
        problems = []
        for pair, threshold in self.local.oracle:
            item = (pair, threshold, inputs.MAX_K)
            if not self.local.check(item, self.local.once(item)):
                problems.append("in-process answer differs from the "
                                "eager oracle for %r" % (item,))
        return problems

    def once(self, address, item, recorder=None) -> Outcome:
        pair, threshold, k = item
        answer: list = []
        with span(recorder, "query"):
            start = clock()
            with span(recorder, "client.connect"):
                session = connect(address[0], address[1],
                                  inputs.browse_query(pair, threshold),
                                  depth=SESSION_DEPTH)
            connected = clock()
            try:
                with span(recorder, "client"):
                    first = read_books(session.root, k, answer)
            finally:
                with span(recorder, "client.close"):
                    session.close()
            end = clock()
        return Outcome(first_s=first - start, connect_s=connected - start,
                       total_s=end - start, answer=answer,
                       channel=session.stats)

    def check(self, item, outcome: Outcome) -> bool:
        return self.local.check(item, outcome)

    def warm(self, launcher: Launcher) -> None:
        """Fill the daemon's source buffers as far as any query reads
        (the lowest T read to MAX_K scans furthest into each pair),
        then run the closed loop untimed."""
        for pair in range(inputs.N_PAIRS):
            item = (pair, min(inputs.THRESHOLDS), inputs.MAX_K)
            if not self.check(item, self.once(launcher.address, item)):
                raise AnswerError("wrong daemon answer while warming up")
        self.loop(launcher, Phase(), WARMUP_S)

    def loop(self, launcher: Launcher, phase: Phase, seconds: float,
             recorder=None, skip: int = 0) -> None:
        items = self.local.inputs.queries()
        for _ in range(skip):
            next(items)
        lock = threading.Lock()
        serial = [0]
        start = clock()
        deadline = start + seconds

        def client() -> None:
            while clock() < deadline:
                with lock:
                    item = next(items)
                    serial[0] += 1
                    query_id = serial[0]
                if recorder is not None:
                    recorder.set_query(query_id)
                try:
                    outcome = self.once(launcher.address, item, recorder)
                except Exception as err:  # report it, keep measuring
                    report_error(self.name, item, err)
                    phase.fail()
                    continue
                phase.record(outcome, self.check(item, outcome))

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(CLIENT_THREADS)]
        with timed_channel(phase.rtt_s, recorder):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(seconds + DAEMON_REPLY_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("client threads did not finish")
        phase.wall_s = clock() - start

    def measure(self, launcher: Launcher, phase: Phase, seconds: float,
                recorder=None, skip: int = 0) -> tuple:
        """A timed phase bracketed by idle status reads; returns the
        (before, after) statuses."""
        before = launcher.wait_idle()
        self.loop(launcher, phase, seconds, recorder, skip)
        after = launcher.wait_idle()
        return before, after

    def count_pass(self, launcher: Launcher, phase: Phase) -> None:
        """The seed's first sessions, one at a time."""
        items = self.local.inputs.queries()
        for _ in range(COUNT_QUERIES[self.name]):
            item = next(items)
            outcome = self.once(launcher.address, item)
            phase.record(outcome, self.check(item, outcome))


@contextlib.contextmanager
def timed_channel(samples: list, recorder=None):
    """Time every client fill round trip (``rtt``) for the block."""
    fill = SocketChannel.fill

    def timed(channel, hole_id):
        start = clock()
        try:
            if recorder is None:
                return fill(channel, hole_id)
            return recorder.call("rtt", fill, channel, hole_id)
        finally:
            samples.append(clock() - start)

    SocketChannel.fill = timed
    try:
        yield
    finally:
        SocketChannel.fill = fill


def reconcile(phase: Phase, before: dict, after: dict) -> list:
    """The daemon's request/fill counters must move exactly as far as
    the clients observed."""
    problems = []
    for key, seen in (("requests", phase.requests), ("fills", phase.fills)):
        moved = after["server"][key] - before["server"][key]
        if moved != seen:
            problems.append("mix:status %s moved by %d, clients saw %d"
                            % (key, moved, seen))
    return problems


def snapshot_delta(before: dict, after: dict) -> tuple:
    counts = {key: after["counts"][key] - before["counts"][key]
              for key in after["counts"]}
    layers = {name: seconds - before["layers_s"].get(name, 0.0)
              for name, seconds in after["layers_s"].items()}
    return counts, layers


def run_daemon(workload: DaemonBrowse, seconds: float, trace: bool) -> dict:
    report = {"phases": [], "problems": []}
    setup_s, rss, windows = [], [], []
    untraced = Phase()
    report["phases"].append(untraced)
    workload.local.setup_once()
    report["problems"] += workload.compute_oracle()
    # Untraced, every measuring window gets a fresh daemon; traced, one
    # daemon serves the untraced half and a traced one the other.
    rounds = 1 if trace else WINDOWS
    share = seconds / 2 if trace else seconds / rounds
    try:
        for index in range(rounds):
            start = clock()
            launcher = workload.start(traced=False)
            setup_s.append(clock() - start)
            workload.warm(launcher)
            phase = Phase()
            before, after = workload.measure(launcher, phase, share,
                                             skip=index * SKIP)
            report["problems"] += reconcile(phase, before, after)
            windows.append(phase)
            untraced.absorb(phase.export())
            rss.append(launcher.snapshot()["peak_rss_mb"])
            launcher.stop()
        if not trace:
            report["metrics"] = end_to_end(windows, setup_s, rss)
            return report
        opened = dispatch_delta(before, after)
        os.makedirs(OUT_DIR, exist_ok=True)
        launcher = workload.start(traced=True, spans_path=os.path.join(
            OUT_DIR, "daemon_browse-seed%d-daemon.spans.jsonl"
            % workload.seed))
        workload.warm(launcher)
        recorder = spans.Recorder()
        traced = Phase()
        snap0 = launcher.snapshot()
        before, after = workload.measure(launcher, traced, seconds / 2,
                                         recorder)
        snap1 = launcher.snapshot()
        report["problems"] += reconcile(traced, before, after)
        count_phase = Phase()
        workload.count_pass(launcher, count_phase)
        launcher.wait_idle()
        snap2 = launcher.snapshot()
        report["phases"] += [traced, count_phase]
    finally:
        workload.stop_all()
    n = traced.attempted
    client = recorder.totals()
    _, daemon_s = snapshot_delta(snap0, snap1)
    rows = rows_from_spans(daemon_s, n)
    served_ms = sum(rows.values())
    dispatched_ms = sum(total for total, _ in
                        dispatch_delta(before, after).values()) / n
    remote_ms = 1000.0 * sum(client.get(name, 0.0)
                             for name in REMOTE_SPANS) / n
    rows["client.self_ms"] = 1000.0 * client.get("client", 0.0) / n
    rows["residual_ms"] = 1000.0 * client.get("query", 0.0) / n
    rows["server.self_ms"] = dispatched_ms - served_ms
    rows["server.transport_ms"] = remote_ms - dispatched_ms
    counts, _ = snapshot_delta(snap1, snap2)
    metrics = dict(rows)
    metrics.update(count_metrics(counts, count_phase.attempted,
                                 requests=count_phase.requests,
                                 wire_bytes=count_phase.wire_bytes))
    open_ms, opens = opened.get("open", (0.0, 0))
    fill_ms, fills = opened.get("fill", (0.0, 0))
    metrics.update({
        "traced_query_ms": 1000.0 * recorder.durations()["query"] / n,
        "trace.overhead_ratio": overhead(traced, untraced),
        "mediator.prepare_ms": sum(rows[r] for r in PREPARE_ROWS),
        "client.connect_ms": 1000.0 * statistics.mean(untraced.connect_s),
        "server.dispatch_ms.open": open_ms / opens,
        "server.dispatch_ms.fill": fill_ms / fills,
    })
    report["metrics"] = metrics
    report["spans"] = {"client": recorder}
    return report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_end_to_end(metrics: dict, phase: Phase) -> None:
    print("%-24s %14s  unit" % ("metric", "value"))
    for name, unit in END_TO_END:
        print("%-24s %14.4f  %s" % (name, metrics[name], unit))
    print("%-24s %14.4f  ms (not gated: all windows pooled)"
          % ("first_result_ms.p50",
             percentile([1000.0 * s for s in phase.first_s], 50)))
    print("samples: %d queries, %d fill round trips"
          % (len(phase.query_s), len(phase.rtt_s)))


def print_layers(metrics: dict) -> None:
    total = metrics["traced_query_ms"]
    print("%-24s %12s %7s" % ("layer row", "ms/query", "share"))
    for name in ROWS:
        print("%-24s %12.4f %6.1f%%"
              % (name, metrics[name], 100.0 * metrics[name] / total))
    print("%-24s %12.4f  (rows sum to %.4f)"
          % ("traced_query_ms", total, sum(metrics[r] for r in ROWS)))
    print("trace.overhead_ratio %.3f (traced / untraced query_ms.p50)"
          % metrics["trace.overhead_ratio"])
    for name, unit in PER_LAYER[len(ROWS) + 2:]:
        print("%-26s %14.4f  %s" % (name, metrics[name], unit))


def dump_spans(report: dict, workload: str, seed: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    for side, recorder in report.get("spans", {}).items():
        path = os.path.join(OUT_DIR, "%s-seed%d-%s.spans.jsonl"
                            % (workload, seed, side))
        written = recorder.dump(path)
        print("spans: %d written to %s (%d not kept)"
              % (written, os.path.relpath(path, ROOT), recorder.dropped))


WORKLOADS = ("browse_prefix", "join_scan", "daemon_browse")
IN_PROCESS = {"browse_prefix": BrowsePrefix, "join_scan": JoinScan}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "daemon_browse":
        return run_daemon(DaemonBrowse(seed), seconds, trace)
    return run_in_process(IN_PROCESS[workload](seed), seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="navigation benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an exception, so the daemon is drained.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(phase.attempted for phase in report["phases"])
    failed = sum(phase.failed for phase in report["phases"])
    for problem in report["problems"]:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)
    correct = failed == 0 and not report["problems"]
    metrics = report["metrics"]
    print("workload %s, seed %d, %.0fs, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        print_layers(metrics)
        dump_spans(report, args.workload, args.seed)
        units = PER_LAYER
    else:
        print_end_to_end(metrics, report["phases"][0])
        units = END_TO_END
    print("attempted %d, failed %d, failed_ratio %.4f"
          % (attempted, failed, failed / max(1, attempted)))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(worker_main() if sys.argv[1:] == ["--worker"] else main())
