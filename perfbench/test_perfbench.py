"""Self-tests of the navigation benchmark.

    python3 -m pytest perfbench -q

They run the benchmark command for a second or two per workload, so
the whole file takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

import pytest

import run  # puts the program's src/ on the import path
import inputs

ROOT = run.ROOT
COUNT_METRICS = [name for name, _ in run.COUNTS]


def bench(workload: str, seed: int, trace: int, seconds: float = 1.0,
          cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs with the same seed, per workload."""
    return {workload: [result(bench(workload, 3, 1)) for _ in range(2)]
            for workload in run.WORKLOADS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_counts(traced_runs, workload):
    first, second = traced_runs[workload]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and first["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_rows_and_residual_sum_to_traced_total(traced_runs,
                                                     workload):
    metrics = traced_runs[workload][0]["metrics"]
    rows = sum(metrics[name]["value"] for name in run.ROWS)
    total = metrics["traced_query_ms"]["value"]
    assert rows == pytest.approx(total, rel=1e-9)
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_untraced_run_prints_every_end_to_end_metric():
    printed = result(bench("browse_prefix", 3, 0))
    assert set(printed["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(metric["value"] > 0 for metric in printed["metrics"].values())


def test_a_different_seed_changes_the_inputs():
    one, two = inputs.BrowseInputs(1), inputs.BrowseInputs(2)
    assert (list(itertools.islice(one.queries(), 50))
            != list(itertools.islice(two.queries(), 50)))
    assert (list(itertools.islice(one.queries(), 50))
            == list(itertools.islice(inputs.BrowseInputs(1).queries(), 50)))
    assert repr(one.catalogs[0][0]) != repr(two.catalogs[0][0])
    joins = [inputs.JoinInputs(seed) for seed in (1, 2)]
    assert (list(itertools.islice(joins[0].queries(), 50))
            != list(itertools.islice(joins[1].queries(), 50)))
    assert repr(joins[0].datasets[0][0]) != repr(joins[1].datasets[0][0])


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys):
    compute = run.BrowsePrefix.compute_oracle

    def tampered(self):
        compute(self)
        for key, books in self.oracle.items():
            self.oracle[key] = ["<wrong/>"] + books[1:]

    monkeypatch.setattr(run.BrowsePrefix, "compute_oracle", tampered)
    status = run.main(["--workload", "browse_prefix", "--seed", "1",
                       "--seconds", "0.5"])
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert not printed["correct"] and printed["failed"] > 0


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("browse_prefix", 1, 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _gone(pid: int, within_s: float) -> bool:
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def _refused(address) -> bool:
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        return True
    return False


def _live_in_session(sid: int) -> list:
    """Pids of the running (not zombie) processes in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # after the command: state, ppid, pgrp, session
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append(int(entry))
    return found


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_no_process_outlives_a_run(workload):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=300) == 0
    assert _live_in_session(proc.pid) == []


def test_daemon_is_reaped_when_a_workload_fails(monkeypatch):
    workload = run.DaemonBrowse(1)

    def broken_warm(launcher):
        raise run.AnswerError("injected failure")

    monkeypatch.setattr(workload, "warm", broken_warm)
    with pytest.raises(run.AnswerError):
        run.run_daemon(workload, 1.0, False)
    assert workload.launchers
    for launcher in workload.launchers:
        assert launcher.proc is None
        assert _refused(launcher.address)


def test_daemon_is_reaped_when_the_benchmark_is_interrupted():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "daemon_browse",
         "--seed", "1", "--seconds", "30"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = "/proc/%d/task/%d/children" % (proc.pid, proc.pid)
    pids = []
    deadline = time.monotonic() + 60
    while not pids and time.monotonic() < deadline:
        time.sleep(0.2)
        with open(children) as handle:
            pids = [int(pid) for pid in handle.read().split()]
    assert pids, "the daemon never started"
    time.sleep(1.0)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) != 0
    for pid in pids:
        assert _gone(pid, 10.0), "daemon %d outlived the benchmark" % pid
