"""Closed-loop serving benchmark of the gSR* (SimRank*) stack.

Usage::

    python3 perfbench/run.py --workload web-exact --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each):
``web-exact``, ``http-mixed`` and ``sf-approx``. One run draws its inputs
from ``--seed``, writes them under ``perfbench/.work/``, and serves them from
fresh processes that receive only those files:

* the main process sets up, runs the untimed warm-up and the fixed timed
  request sequence (sized by ``--seconds``) in one piece, and answers a
  check sample;
* then more fresh processes run one after another, set-ups and restarts
  interleaved so that each kind samples the machine across the run:
  "set-ups" only set up, so ``setup_s`` is a median; "restarts" start
  over the same edge list and whatever the main process persisted (the
  ``.simidx`` of sf-approx). The first restart answers the check sample
  again, and the first ones apply the plan's edit batches between them
  (http-mixed writes during its timed sequence). Where nothing persists
  a restart is one more cold set-up, so ``setup_s`` and ``restart_s``
  are then both the median of one pooled sample.

Every answer that the gate needs is checked against the program's
reference oracle; the command exits 1 if any check fails. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` an untraced pass and a traced pass are run, a per-layer
report is printed, and the last line holds the per-layer metrics.
Each run's full record is appended to ``perfbench/results/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from common import (
    BENCH_DIR,
    RESULTS_FILE,
    ROOT,
    WORK_DIR,
    counters,
    median,
    percentile,
    program_present,
    read_json,
    use_source_tree,
    write_json,
)

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "mutate_p50_ms": "ms",
    "ok_frac": "fraction",
    "precision_at_10": "fraction",
    "rss_peak_mb": "MB",
}
#: measured, printed and recorded by ``--trace 0`` but not part of the
#: result line: like a cold set-up, a restart's time follows the host's
#: state from one run to the next (within a run its samples agree); on a
#: 2-vCPU KVM guest its spread over ten seeds reached 0.27 of the median
REPORTED = {**END_TO_END, "restart_s": "s"}
#: the whole run, set-up included, must end well inside 180 s
RUN_BUDGET_S = 170.0
ACCOUNTING_TOLERANCE = 0.10


class BenchError(RuntimeError):
    """The run could not be completed (not a wrong answer)."""


# -- processes ----------------------------------------------------------
def reap(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` until ``deadline``; return its resource usage.

    ``os.wait4`` is used instead of ``Popen.wait`` because it also
    reports the child's peak resident memory; for the same reason the
    children are signalled with ``os.kill``, never through ``Popen``.
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"process {proc.args[1]} overran the budget")
        time.sleep(0.01)


class Runner:
    """Starts, waits for and always stops the run's child processes."""

    def __init__(self, workload, workdir: Path, perturb: bool) -> None:
        self.workload = workload
        self.workdir = workdir
        self.perturb = perturb
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.live: list[subprocess.Popen] = []
        self._names = 0

    def _name(self, role: str) -> str:
        self._names += 1
        return f"{self._names:02d}-{role}"

    def _spawn(self, cmd: list[str], name: str, **kwargs):
        err = open(self.workdir / f"{name}.err", "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, *cmd], cwd=ROOT, stderr=err, **kwargs
            )
        finally:
            err.close()
        self.live.append(proc)
        return proc

    def _finish(self, proc, name: str, deadline=None):
        usage = reap(proc, deadline or self.deadline)
        self.live.remove(proc)
        if proc.returncode != 0:
            tail = (self.workdir / f"{name}.err").read_text(
                errors="replace")[-2000:]
            raise BenchError(f"{name} exited {proc.returncode}:\n{tail}")
        return usage

    def stop_all(self) -> None:
        for proc in self.live:
            if proc.returncode is None:
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -9
        self.live.clear()

    # -- in-process workloads ---------------------------------------------
    def inproc(self, role: str, files, *, index=None, timed=False,
               check=False, edits=None, trace=False) -> dict:
        """Run one serving process to its end; return what it measured."""
        name = self._name(role)
        spec = {
            "role": role,
            "workload": self.workload.name,
            "edge_file": str(files["edges"]),
            "plan_file": str(files["plan"]),
            "index_path": None if index is None else str(index),
            "timed": timed,
            "check": check,
            "edits": edits,
            "out": str(self.workdir / f"{name}.json"),
            "trace_out": (
                str(self.workdir / f"{name}.trace.json") if trace else None
            ),
        }
        spec_path = self.workdir / f"{name}.spec.json"
        write_json(spec_path, spec)
        proc = self._spawn([str(BENCH_DIR / "inproc.py"), str(spec_path)],
                           name, stdout=subprocess.DEVNULL)
        usage = self._finish(proc, name)
        result = read_json(spec["out"])
        result["rss_mb"] = usage.ru_maxrss / 1024
        result["trace_file"] = spec["trace_out"]
        return result

    # -- the HTTP server ----------------------------------------------------
    def server(self, edge_file: Path, trace: bool = False) -> "Server":
        name = self._name("server")
        trace_out = self.workdir / f"{name}.trace.json" if trace else None
        cmd = [str(BENCH_DIR / "http_server.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve", "--edge-file", str(edge_file), "--port", "0"]
        spawned = perf_counter()
        proc = self._spawn(cmd, name, stdout=subprocess.PIPE, bufsize=0)
        return Server(self, proc, name, spawned, trace_out)


def expect(proc, name: str, pattern: bytes, deadline: float):
    """Read ``proc``'s stdout until ``pattern`` matches, before
    ``deadline``."""
    buffer, fd = b"", proc.stdout.fileno()
    while True:
        match = re.search(pattern, buffer)
        if match:
            return match
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
        chunk = os.read(fd, 65536) if ready else b""
        if not chunk:
            raise BenchError(f"{name} stopped before {pattern!r}")
        buffer += chunk


class Server:
    """One ``repro.serve serve`` process, stopped with SIGINT."""

    def __init__(self, runner, proc, name, spawned, trace_out) -> None:
        self.runner, self.proc, self.name = runner, proc, name
        self.spawned, self.trace_out = spawned, trace_out
        try:
            match = expect(proc, name, rb"on http://([0-9.]+):([0-9]+)",
                           runner.deadline)
        except BenchError:
            self.stop()
            raise
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def stop(self):
        """SIGINT (the server's own clean shutdown) and wait."""
        if self.proc.returncode is None:
            # os.kill, not Popen.send_signal: that may reap the child,
            # and reap() needs to collect its resource usage itself
            os.kill(self.proc.pid, signal.SIGINT)
        try:
            return self.runner._finish(
                self.proc, self.name,
                min(self.runner.deadline, time.monotonic() + 30),
            )
        finally:
            self.proc.stdout.close()


class Client:
    """One keep-alive ``http.client`` connection."""

    def __init__(self, host: str, port: int) -> None:
        import http.client

        self._factory = lambda: http.client.HTTPConnection(
            host, port, timeout=60)
        self.conn = self._factory()

    def call(self, path: str, payload=None):
        body = None if payload is None else json.dumps(payload)
        try:
            self.conn.request(
                "GET" if body is None else "POST", path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            reply = self.conn.getresponse()
            data = reply.read()
        except OSError:
            self.conn.close()
            self.conn = self._factory()
            return 0, None
        try:
            return reply.status, json.loads(data) if data else None
        except ValueError:
            return reply.status, None

    def close(self) -> None:
        self.conn.close()


def http_op(op, plan) -> tuple[str, dict, object]:
    """``(path, body, column query)`` of one plan operation."""
    kind = op[0]
    if kind == "top_k":
        return "/top_k", {"query": op[1], "k": plan["k"]}, op[1]
    if kind == "score":
        return "/score", {"u": op[1], "v": op[2]}, op[2]
    return "/mutate", plan["mutations"][op[1]], None


def http_loop(server: Server, ops: list, plan: dict, threads: int) -> dict:
    """``threads`` closed-loop callers, one connection each."""
    records: list = [None] * len(ops)
    cursor = iter(range(len(ops)))
    lock = threading.Lock()

    def caller() -> None:
        client = Client(server.host, server.port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                path, body, query = http_op(ops[i], plan)
                start = perf_counter()
                status, reply = client.call(path, body)
                end = perf_counter()
                answered = reply is not None and (
                    "results" in reply or "score" in reply
                    or "snapshot" in reply
                )
                records[i] = {
                    "kind": ops[i][0], "q": query, "start": start,
                    "end": end, "status": status,
                    "ok": 200 <= status < 300 and answered,
                }
        finally:
            client.close()

    workers = [threading.Thread(target=caller) for _ in range(threads)]
    begin = perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return {"ops": records, "window": [begin, perf_counter()]}


def first_answer(server: Server, plan: dict) -> tuple[float, dict | None]:
    """Send the first query; return (seconds since spawn, answer)."""
    client = Client(server.host, server.port)
    try:
        status, reply = client.call(
            "/top_k", {"query": plan["first_query"], "k": plan["k"]})
    finally:
        client.close()
    elapsed = perf_counter() - server.spawned
    return elapsed, _answer(status, reply)


def _answer(status, reply) -> dict | None:
    if status != 200 or not reply or "results" not in reply:
        return None
    return {
        "nodes": [r["node"] for r in reply["results"]],
        "scores": [r["score"] for r in reply["results"]],
    }


def http_status(server: Server) -> dict:
    client = Client(server.host, server.port)
    try:
        status, reply = client.call("/status")
    finally:
        client.close()
    if status != 200:
        raise BenchError(f"GET /status answered {status}")
    return counters(reply)


def http_check(server: Server, plan: dict) -> dict:
    client = Client(server.host, server.port)
    try:
        return {
            str(q): _answer(*client.call(
                "/top_k", {"query": q, "k": plan["k"]}))
            for q in plan["check"]
        }
    finally:
        client.close()


# -- one pass of each workload kind -------------------------------------
def inproc_pass(runner: Runner, files, *, trace=False, tag="main") -> dict:
    """Main process of an in-process workload: set-up, warm-up, the timed
    sequence, the check sample."""
    index = files["dir"] / f"{tag}.simidx" if runner.workload.persist_index \
        else None
    result = runner.inproc("main", files, index=index, timed=True,
                           check=True, trace=trace)
    result["index"] = index
    timed = result["timed"]
    result["reads"] = [
        {"q": q, "start": s, "end": e, "ok": ok}
        for q, s, e, ok in zip(files["plan_doc"]["timed"], timed["start"],
                               timed["end"], timed["ok"])
    ]
    result["window"] = timed["window"]
    result["writes"] = []
    return result


def http_pass(runner: Runner, files, *, trace=False) -> dict:
    """The same for http-mixed, with the load driven from here."""
    plan = files["plan_doc"]
    threads = runner.workload.concurrency
    server = runner.server(files["edges"], trace=trace)
    try:
        setup_s, first = first_answer(server, plan)
        http_loop(server, [["top_k", q] for q in plan["warmup"]], plan,
                  threads)
        before = http_status(server)
        timed = http_loop(server, plan["timed"], plan, threads)
        after = http_status(server)
        check = http_check(server, plan)
    finally:
        usage = server.stop()
    ops = timed["ops"]
    return {
        "setup_s": setup_s,
        "first": first,
        "check": check,
        "rss_mb": usage.ru_maxrss / 1024,
        "window": timed["window"],
        "ops": ops,
        "reads": [op for op in ops if op["kind"] != "mutate"],
        "writes": [op for op in ops if op["kind"] == "mutate"],
        "counters_before": before,
        "counters_after": after,
        "trace_file": server.trace_out,
        "index": None,
    }


def setup_only(runner: Runner, files, role: str, index=None, **flags):
    """A fresh process that sets up, answers the first query and, for
    in-process workloads, whatever ``flags`` ask (check, edits)."""
    if runner.workload.http:
        server = runner.server(files["edges"])
        try:
            setup_s, first = first_answer(server, files["plan_doc"])
        finally:
            server.stop()
        return {"setup_s": setup_s, "first": first}
    return runner.inproc(role, files, index=index, **flags)


def linked_index(files, main_index, name: str):
    """A new name for the main process's persisted index (a hard link):
    a restart that edits the graph persists its delta segments beside
    the name it was given, so other restarts never replay them."""
    if main_index is None:
        return None
    link = files["dir"] / f"{name}.simidx"
    os.link(main_index, link)
    return link


# -- metrics --------------------------------------------------------------
def read_metrics(main: dict) -> dict:
    reads = main["reads"]
    done = [r["end"] - r["start"] for r in reads if r["ok"]]
    wall = main["window"][1] - main["window"][0]
    if not done:
        raise BenchError("no read was answered")
    return {
        "throughput_rps": len(done) / wall,
        "p50_ms": median(done) * 1e3,
        "p90_ms": percentile(done, 90) * 1e3,
        "reads": len(reads),
        "reads_ok": len(done),
        "quantiles_ms": {
            str(q): percentile(done, q) * 1e3 for q in (50, 90, 95, 99)
        },
    }


def check_answers(gate, refs, main, setups_first, restart, spec,
                  perturb=False) -> float:
    """Gate checks on answers; returns the check sample's precision.

    ``perturb`` (self-tests only) first replaces the best served node of
    one check answer with the reference's worst node.
    """
    from gate import mean_precision, precision_at_k, well_formed

    k, plan = refs["k"], refs["plan"]
    first_q = plan["first_query"]
    served = refs["final"] if spec.http else refs["original"]
    if perturb:
        q = plan["check"][-1]
        wrong = dict(main["check"][str(q)])
        wrong["nodes"] = [int(served[q].argmin()), *wrong["nodes"][1:]]
        main["check"][str(q)] = wrong
    firsts = [main["first"], *setups_first]
    if restart is not None:
        firsts += restart["firsts"]
    for i, answer in enumerate(firsts):
        if answer is None:
            gate.check("first_answers", False, f"process {i}: no answer")
        elif spec.mode == "exact":
            p = precision_at_k(answer["nodes"], refs["original"][first_q],
                               first_q, k)
            gate.check("first_answers", p == 1.0,
                       f"process {i}: precision {p}")
        else:
            gate.check("first_answers",
                       well_formed(answer, first_q, k, refs["n"]),
                       f"process {i}: malformed top-{k}")
    missing = [q for q, a in main["check"].items() if a is None]
    gate.check("check_sample_answered", not missing, f"queries {missing}")
    answers = {q: a for q, a in main["check"].items() if a is not None}
    precision = mean_precision(answers, served, k) if answers else 0.0
    if spec.mode == "exact":
        gate.check("precision_at_10_is_1", precision == 1.0,
                   f"precision {precision}")
    if spec.persist_index and restart is not None:
        # a restart that rebuilt (say, after a fingerprint mismatch)
        # answers alike in seeded approx mode; it must have adopted the
        # persisted index and saved none before its edits
        for i, io in enumerate(restart["index_io"]):
            gate.check("restart_loaded_index",
                       io["loads"] >= 1 and io["saves"] == 0,
                       f"restart {i}: index loads {io['loads']}, "
                       f"saves {io['saves']}")
        same = restart["check"] == main["check"] and all(
            a == main["first"] for a in restart["firsts"])
        gate.check("restart_bit_identical", same,
                   "restarted process answered differently")
    return precision


def references(graph, plan, spec) -> dict:
    """Reference columns for every checked query, computed before any
    serving process starts (the graph is then dropped)."""
    from gate import reference_columns
    from workloads import SERVE_DEFAULTS, final_graph

    c, terms = SERVE_DEFAULTS["c"], SERVE_DEFAULTS["num_iterations"]
    refs = {"k": plan["k"], "plan": plan, "n": graph.num_nodes}
    refs["original"] = reference_columns(
        graph, {plan["first_query"], *plan["check"]}, c, terms)
    if spec.http:
        refs["final"] = reference_columns(
            final_graph(graph, plan["mutations"]), plan["check"], c, terms)
    return refs


# -- the two modes ----------------------------------------------------------
def interleave(first: list, second: list) -> list:
    """Both lists merged, each spread evenly over the result."""
    keyed = [((i + 0.5) / len(items), j, item)
             for j, items in enumerate((first, second))
             for i, item in enumerate(items)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


def measure(runner: Runner, files, refs, gate) -> tuple[dict, dict]:
    """``--trace 0``: every end-to-end metric.

    Process order: the main process, then the other cold set-ups and
    the restarts, interleaved.
    """
    spec = runner.workload
    main_index = files["dir"] / "main.simidx" if spec.persist_index else None
    setups, restarts = [], []

    def setup() -> None:
        index = None
        if spec.persist_index:
            index = files["dir"] / f"setup-{len(setups)}.simidx"
        setups.append(setup_only(runner, files, "setup", index=index))
        for path in files["dir"].glob(f"setup-{len(setups) - 1}.simidx*"):
            path.unlink()

    def restart() -> None:
        j, flags = len(restarts), {}
        if not spec.http:
            per = -(-spec.edits // spec.restarts)
            flags = {"check": j == 0,
                     "edits": [min(j * per, spec.edits),
                               min((j + 1) * per, spec.edits)]}
        index = linked_index(files, main_index, f"restart-{j}")
        restarts.append(setup_only(runner, files, "restart", index=index,
                                   **flags))

    main = http_pass(runner, files) if spec.http \
        else inproc_pass(runner, files)
    for step in interleave([setup] * (spec.setups - 1),
                           [restart] * spec.restarts):
        step()

    if spec.http:
        writes = main["writes"]
        mutate_ms = [(w["end"] - w["start"]) * 1e3 for w in writes
                     if w["ok"]]
        writes_attempted = len(writes)
        write_failures = sum(1 for w in writes if not w["ok"])
    else:
        edits = [r["mutations"] for r in restarts]
        mutate_ms = [s * 1e3 for e in edits for s in e["latencies_s"]]
        writes_attempted = sum(e["attempted"] for e in edits)
        write_failures = sum(len(e["errors"]) for e in edits)
    reads = read_metrics(main)
    restart_doc = {"firsts": [r["first"] for r in restarts],
                   "check": restarts[0].get("check"),
                   "index_io": [r.get("index_io") for r in restarts]}
    precision = check_answers(gate, refs, main,
                              [r["first"] for r in setups], restart_doc,
                              spec, runner.perturb)
    attempted = reads["reads"] + writes_attempted
    failed = reads["reads"] - reads["reads_ok"] + write_failures
    if spec.http:
        non_2xx = sum(1 for op in main["ops"]
                      if not 200 <= op["status"] < 300)
        gate.check("no_non_2xx_reply", non_2xx == 0,
                   f"{non_2xx} non-2xx replies")
    gate.check("no_failed_operation", failed == 0, f"{failed} failed")
    if not mutate_ms:
        raise BenchError("no write was applied")
    setup_samples = [main["setup_s"], *(r["setup_s"] for r in setups)]
    restart_samples = [r["setup_s"] for r in restarts]
    if not spec.persist_index:
        # nothing persisted: every restart was one more cold set-up
        setup_samples = restart_samples = setup_samples + restart_samples
    metrics = {
        "setup_s": median(setup_samples),
        "restart_s": median(restart_samples),
        "throughput_rps": reads["throughput_rps"],
        "p50_ms": reads["p50_ms"],
        "p90_ms": reads["p90_ms"],
        "mutate_p50_ms": median(mutate_ms),
        "ok_frac": (attempted - failed) / attempted,
        "precision_at_10": precision,
        "rss_peak_mb": main["rss_mb"],
    }
    samples = {
        "setup_s": setup_samples,
        "restart_s": restart_samples,
        "mutate_ms": mutate_ms,
        "read_quantiles_ms": reads["quantiles_ms"],
        "timed_window": main["window"],
        "reads": reads["reads"],
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, samples


#: edit batches the traced restart applies (per-layer write metrics)
TRACE_EDITS = 3


def traced(runner: Runner, files, refs, gate) -> tuple[dict, dict]:
    """``--trace 1``: an untraced pass, a traced pass, the report."""
    from layers import UNACCOUNTED, Trace, busy_table, layer_metrics

    spec = runner.workload
    if spec.http:
        base = http_pass(runner, files)
        main = http_pass(runner, files, trace=True)
        restart, mutation = None, {}
    else:
        base = inproc_pass(runner, files, tag="base")
        main = inproc_pass(runner, files, trace=True, tag="traced")
        restart = runner.inproc(
            "restart", files, check=True, trace=True,
            index=linked_index(files, main["index"], "restart"),
            edits=[0, min(TRACE_EDITS, len(files["plan_doc"]["mutations"]))],
        )
        restart["firsts"] = [restart["first"]]
        restart["index_io"] = [restart["index_io"]]
        mutation = {
            "mutation_trace": Trace(restart["trace_file"]),
            "mutation_window": restart["mutation_window"],
            "mutation_counters": restart["mutation_counters"],
            "restart_trace": None,
        }
        if spec.persist_index:
            mutation["restart_trace"] = mutation["mutation_trace"]
    check_answers(gate, refs, main, [base["first"]], restart, spec,
                  runner.perturb)
    ops = main["reads"] + base["reads"] + main["writes"]
    failed = sum(1 for op in ops if not op["ok"])
    attempted = len(ops)
    if restart is not None:
        attempted += restart["mutations"]["attempted"]
        failed += len(restart["mutations"]["errors"])
    gate.check("no_failed_operation", failed == 0, f"{failed} failed")
    trace = Trace(main["trace_file"])
    index_mb = 0.0
    if main["index"] is not None and Path(main["index"]).exists():
        index_mb = Path(main["index"]).stat().st_size / 2**20
    window = main["window"]
    metrics, budget = layer_metrics(
        trace, window,
        setup_end=window[0],
        counters=(main["counters_before"], main["counters_after"]),
        http_ops=main["ops"] if spec.http else None,
        reads=main["reads"],
        index_file_mb=index_mb,
        **mutation,
    )
    done = [r for r in main["reads"] if r["ok"]]
    mean_latency = sum(r["end"] - r["start"] for r in done) / len(done)
    per_read = {
        layer: seconds / len(done)
        for layer, seconds in budget["totals"].items()
    }
    unaccounted = per_read.pop(UNACCOUNTED, 0.0)
    share = unaccounted / mean_latency
    gate.check(
        "blocking_path_accounts_for_latency",
        share <= ACCOUNTING_TOLERANCE,
        f"{unaccounted * 1e3:.2f} ms of {mean_latency * 1e3:.2f} ms per "
        f"read unaccounted",
    )
    p50_base = read_metrics(base)["p50_ms"]
    p50_traced = read_metrics(main)["p50_ms"]
    report = {
        "blocking_ms_per_read": {k: v * 1e3 for k, v in per_read.items()},
        "busy_s": busy_table(trace, window),
        "largest_self_time": max(per_read, key=per_read.get),
        "accounted_ms": sum(per_read.values()) * 1e3,
        "unaccounted_ms": unaccounted * 1e3,
        "unaccounted_share": share,
        "mean_read_ms": mean_latency * 1e3,
        "reads": len(done),
        "reads_matched": budget["matched"],
        "cache_hits_confirmed": budget["cache_hits"],
        "p50_ms_untraced": p50_base,
        "p50_ms_traced": p50_traced,
        "tracing_overhead_ms": p50_traced - p50_base,
        "tracing_overhead_frac": (p50_traced - p50_base) / p50_base,
    }
    samples = {"attempted": attempted, "failed": failed, "report": report}
    return metrics, samples


def print_report(name: str, report: dict, metrics: dict, units: dict):
    print(f"== traced run: {name} ==")
    print(f"{'layer':32s} {'blocking ms/read':>17s} {'busy s':>9s}")
    layers = sorted(
        set(report["blocking_ms_per_read"]) | set(report["busy_s"]),
        key=lambda layer: -report["blocking_ms_per_read"].get(layer, 0.0),
    )
    for layer in layers:
        print(f"{layer:32s} "
              f"{report['blocking_ms_per_read'].get(layer, 0.0):17.3f} "
              f"{report['busy_s'].get(layer, 0.0):9.3f}")
    print(f"largest self time: {report['largest_self_time']}")
    print(f"blocking path {report['accounted_ms']:.2f} ms of mean read "
          f"latency {report['mean_read_ms']:.2f} ms; unaccounted "
          f"{report['unaccounted_ms']:.2f} ms "
          f"({report['unaccounted_share']:.1%}; limit "
          f"{ACCOUNTING_TOLERANCE:.0%}); {report['reads_matched']} of "
          f"{report['reads']} reads matched, "
          f"{report['cache_hits_confirmed']} cache hits confirmed")
    print(f"tracing overhead: p50 {report['p50_ms_traced']:.2f} ms traced "
          f"vs {report['p50_ms_untraced']:.2f} ms untraced "
          f"({report['tracing_overhead_frac']:+.1%})")
    for metric, value in metrics.items():
        print(f"  {metric:32s} {value:14.4f} {units[metric]}")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=1,
        help="input seed (default 1; re-check a claimed gain on seed 2)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test hooks: small graphs, and a deliberately wrong answer
    parser.add_argument("--toy", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not program_present():
        print("perfbench: no src/repro here; run from a full checkout",
              file=sys.stderr)
        return 2
    use_source_tree()
    args = parse_args(argv)
    import gc

    from common import cpu_jiffies, environment
    from gate import Gate
    from layers import PER_LAYER
    from workloads import WORKLOADS, prepare

    spec = WORKLOADS[args.workload]
    started = time.time()
    load_before = os.getloadavg()
    jiffies_before = cpu_jiffies()
    workdir = WORK_DIR / f"{spec.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(spec, workdir, args.perturb)
    gate = Gate()
    try:
        graph, plan, edge_file, plan_file = prepare(
            spec.name, args.seed, args.seconds, workdir, toy=args.toy)
        refs = references(graph, plan, spec)
        del graph
        gc.collect()
        files = {"edges": edge_file, "plan": plan_file, "dir": workdir,
                 "plan_doc": plan}
        if args.trace:
            metrics, samples = traced(runner, files, refs, gate)
        else:
            metrics, samples = measure(runner, files, refs, gate)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        print_report(spec.name, samples["report"], metrics, units)
    else:
        for metric, value in metrics.items():
            print(f"  {metric:16s} {value:14.4f} {REPORTED[metric]}")
    for note in gate.notes:
        print(f"GATE FAILED {note}")
    env = environment()
    print(f"env: python {env['python']} numpy {env['numpy']} scipy "
          f"{env['scipy']} openblas_threads {env['openblas_threads']} "
          f"nproc {env['nproc']} loadavg {load_before[0]:.2f} -> "
          f"{os.getloadavg()[0]:.2f}; record in {RESULTS_FILE}")
    record = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "started": started,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "cpu_jiffies": [jiffies_before, cpu_jiffies()],
        "environment": env, "checks": gate.checks,
        "metrics": metrics, "samples": samples,
    }
    RESULTS_FILE.parent.mkdir(exist_ok=True)
    with RESULTS_FILE.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": gate.passed,
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if gate.passed else 1


if __name__ == "__main__":
    sys.exit(main())
