"""serve-classify: an open loop of ``POST /classify`` against ``cxk serve``.

Why: it is the front-end-heavy workload (parse and ``ClusterModel.transact``
are most of a warm classify) and the store-read side: the served model
was saved with its compiled-corpus store, so loading it is a warm attach
that ``setup_s`` (launch until ``/healthz`` answers) includes.

The model is fitted through the CLI (``cluster --xml-dir``) on XML files
of one seed; the queries are DBLP documents of another.  Load comes from
this process, one thread driving at most two connections.  After every
query has been sent once (untimed), two phases alternate in
``WINDOWS`` windows, so both see the whole run: an open loop at a fixed
rate well under the sustained rate, so queueing does not magnify host
drift, whose per-window p50 and p90 latencies give the latency metrics;
and a closed loop that keeps both connections busy, whose per-window
completion rate gives the capacity (see ``WINDOWS``).  Every open-loop
request is timed from when it was due.  Timings are rescaled to the
reference host speed (``HostSpeed``), probed between windows.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import socket
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.core.model_store import load_model
from repro.evaluation.fmeasure import overall_f_measure

import inputs
import layers
import tracer
from common import (
    END_TO_END,
    HERE,
    PER_LAYER,
    BenchError,
    HostSpeed,
    Outcome,
    child_env,
    directory_bytes,
    median,
    peak_rss_mb,
    percentile,
    result,
)

MODEL = ["--k", "16", "--peers", "3", "--f", "0.5", "--gamma", "0.5",
         "--max-iterations", "6", "--backend", "numpy"]
FIT_DOCUMENTS = {"full": 160, "tiny": 48}
QUERIES = {"full": 160, "tiny": 24}
#: Load generator connections: at most the host's two cores.
CONNECTIONS = 2
#: Offered rate of the fixed-rate phase (requests/s), and its share of
#: ``--seconds``.
BASE_RATE = 100.0
BASE_SHARE = 0.4
#: Windows the fixed-rate phase is split into, each followed by a
#: closed-loop window of ``SATURATING_REQUESTS`` requests.  The host's
#: interference only ever slows a window down, so each metric is taken
#: from the quarter of windows it slowed least: the lower quartile of the
#: windows' latencies, the upper quartile of their completion rates.
WINDOWS = 12
SATURATING_REQUESTS = 160
#: p90 latency a fixed-rate window should meet, and the median queue wait
#: its last quarter may not exceed (a growing backlog); the run reports
#: how many windows met both.  Generous against the ~5 ms p50, because
#: the server stalls for tens of milliseconds now and then.
LATENCY_LIMIT_MS = 50.0
BACKLOG_LIMIT_MS = 25.0
LAUNCHES = 10
HEALTH_POLL_SECONDS = 0.002


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port: int, method: str, path: str, body: Optional[bytes] = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/xml"} if body else {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _store_fields(health: dict) -> List[dict]:
    """Per-model store fields of ``/healthz`` (flat or per-route)."""
    if "store" in health:
        return [health]
    return [entry for entry in (health.get("models") or {}).values() if isinstance(entry, dict)]


class Server:
    """One launch of the server; set-up is launch until ``/healthz`` answers."""

    def __init__(self, ctx, model_dir: str, trace_path: Optional[str] = None) -> None:
        self.port = _free_port()
        serve = ["serve", "--model", model_dir, "--port", str(self.port)]
        if trace_path is None:
            argv = [sys.executable, "-m", "repro.cli"] + serve
        else:
            argv = [sys.executable, os.path.join(HERE, "servehost.py"), trace_path] + serve
        self.ctx = ctx
        self.log = open(ctx.log_path(), "ab")
        start = time.perf_counter()
        self.process = ctx.children.start(
            argv, cwd=ctx.root, env=child_env(ctx.root),
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
        )
        deadline = start + 60.0
        while True:
            if self.process.poll() is not None:
                raise BenchError(f"server exited with code {self.process.returncode}; see {self.log.name}")
            try:
                status, body = _request(self.port, "GET", "/healthz")
                if status == 200:
                    break
            except (OSError, http.client.HTTPException):
                # not listening yet (or a garbled answer before it was)
                pass
            if time.perf_counter() > deadline:
                raise BenchError("server did not answer /healthz within 60 s")
            time.sleep(HEALTH_POLL_SECONDS)
        self.setup_s = time.perf_counter() - start
        self.health = json.loads(body)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def close(self) -> None:
        self.ctx.children.stop(self.process)
        self.log.close()


class _Exchange:
    """One request in flight on its own connection."""

    def __init__(self, index: int, due: float, query: int, sock: socket.socket) -> None:
        self.index = index
        self.due = due
        self.query = query
        self.sock = sock
        self.data = bytearray()

    def complete(self) -> bool:
        head, sep, body = bytes(self.data).partition(b"\r\n\r\n")
        if not sep:
            return False
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                return len(body) >= int(value)
        return False

    def reply(self):
        head, _, body = bytes(self.data).partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, body


class Phase:
    """One open-loop phase at a fixed offered rate.

    A single thread drives at most ``CONNECTIONS`` requests at a time
    through a selector, so the generator's own timing does not depend on
    thread scheduling.  Each request is sent when due, or as soon as a
    connection frees up; its latency runs from when it was due.  The
    wait for a free connection is queue wait; any further delay in
    sending is generator lateness.
    """

    def __init__(self, port: int, rate: float, count: int, first: int,
                 bodies: List[bytes], check: Callable[[int, dict], bool]) -> None:
        self.rate = rate
        self.latency_ms = [0.0] * count
        self.late_ms = [0.0] * count
        self.queue_ms = [0.0] * count
        self.ok = [False] * count
        requests = [
            b"POST /classify HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/xml\r\nContent-Length: "
            + str(len(body)).encode("ascii") + b"\r\n\r\n" + body
            for body in bodies
        ]
        selector = selectors.DefaultSelector()
        free_at = [0.0] * CONNECTIONS
        start = time.perf_counter() + 0.02
        finished = start
        sent = done = 0
        try:
            while done < count:
                now = time.perf_counter()
                while sent < count and len(selector.get_map()) < CONNECTIONS:
                    due = start + sent / rate
                    if due > now:
                        break
                    slot = free_at.index(min(free_at))
                    freed = max(free_at[slot], due)
                    free_at[slot] = float("inf")
                    self.queue_ms[sent] = (freed - due) * 1000.0
                    self.late_ms[sent] = (now - freed) * 1000.0
                    query = (first + sent) % len(bodies)
                    try:
                        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
                        sock.sendall(requests[query])
                    except OSError:
                        # a refused or broken connection is a failed request
                        free_at[slot] = time.perf_counter()
                        self.latency_ms[sent] = (free_at[slot] - due) * 1000.0
                        sent += 1
                        done += 1
                        continue
                    sock.setblocking(False)
                    selector.register(
                        sock, selectors.EVENT_READ, (_Exchange(sent, due, query, sock), slot)
                    )
                    sent += 1
                if sent < count and len(selector.get_map()) < CONNECTIONS:
                    timeout = max(0.0, start + sent / rate - time.perf_counter())
                else:
                    timeout = 10.0
                events = selector.select(timeout)
                if not events and timeout == 10.0:
                    raise BenchError("no response within 10 s")
                for key, _ in events:
                    exchange, slot = key.data
                    try:
                        chunk = exchange.sock.recv(65536)
                    except OSError:
                        chunk = b""
                    exchange.data.extend(chunk)
                    if chunk and not exchange.complete():
                        continue
                    finish = time.perf_counter()
                    selector.unregister(exchange.sock)
                    exchange.sock.close()
                    free_at[slot] = finish
                    finished = max(finished, finish)
                    done += 1
                    self.latency_ms[exchange.index] = (finish - exchange.due) * 1000.0
                    try:
                        status, body = exchange.reply()
                        self.ok[exchange.index] = status == 200 and check(
                            exchange.query, json.loads(body)
                        )
                    except (ValueError, IndexError):
                        self.ok[exchange.index] = False
        finally:
            for key in list(selector.get_map().values()):
                key.fileobj.close()
            selector.close()
        self.achieved_rate = count / (finished - start)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def meets_limit(self) -> bool:
        tail = self.queue_ms[-max(1, len(self.queue_ms) // 4):]
        return (
            self.failed == 0
            and percentile(self.latency_ms, 0.9) <= LATENCY_LIMIT_MS
            and median(tail) <= BACKLOG_LIMIT_MS
        )


def _fit_model(ctx, fit_docs: inputs.XMLInput, outcome: Outcome) -> str:
    xml_dir = ctx.workspace.join("fit-documents")
    os.makedirs(xml_dir)
    for position, text in enumerate(fit_docs.texts):
        with open(os.path.join(xml_dir, f"d{position:05d}.xml"), "w", encoding="utf-8") as handle:
            handle.write(text)
    model_dir = ctx.workspace.join("model")
    argv = [sys.executable, "-m", "repro.cli", "cluster", "--xml-dir", xml_dir,
            "--seed", str(ctx.seed), "--corpus-cache", ctx.workspace.join("corpus-cache"),
            "--save-model", model_dir] + MODEL
    with open(ctx.log_path(), "ab") as log:
        process = ctx.children.start(argv, cwd=ctx.root, env=child_env(ctx.root),
                                     stdout=log, stderr=log)
        code = process.wait(timeout=120)
    if not outcome.check(code == 0 and os.path.isfile(os.path.join(model_dir, "model.json")),
                         f"cluster --save-model exited with {code}"):
        raise BenchError("the served model could not be fitted")
    return model_dir


def _reference(model_dir: str, queries: inputs.XMLInput, outcome: Outcome):
    """In-process verdicts of ``load_model(DIR).classify`` for every query."""
    model = load_model(model_dir)
    try:
        stats = model.stats()
        outcome.check(
            stats["store"] == "hit" and stats["corpus_compile_count"] == 0,
            f"in-process load: store {stats['store']}, compiled {stats['corpus_compile_count']}",
        )
        verdicts = []
        for text in queries.texts:
            verdict = model.classify(text)
            verdicts.append((verdict.cluster_id, verdict.score, verdict.transactions))
    finally:
        model.close()
    return verdicts


def _f_measure(queries: inputs.XMLInput, verdicts) -> float:
    clusters: Dict[int, List[str]] = {}
    for position, (cluster_id, _, _) in enumerate(verdicts):
        if cluster_id >= 0:
            clusters.setdefault(cluster_id, []).append(str(position))
    labels = {str(position): label for position, label in enumerate(queries.labels)}
    return overall_f_measure(list(clusters.values()), labels)


def run(ctx) -> dict:
    outcome = Outcome()
    fit_docs = inputs.dblp("serve-fit", FIT_DOCUMENTS[ctx.size], inputs.sub_seed(ctx.seed, 6, 0))
    queries = inputs.dblp("serve-queries", QUERIES[ctx.size], inputs.sub_seed(ctx.seed, 7, 0))
    model_dir = _fit_model(ctx, fit_docs, outcome)
    verdicts = _reference(model_dir, queries, outcome)
    expected = list(verdicts)
    if ctx.fault == "wrong-verdict":
        cluster_id, score, transactions = expected[0]
        expected[0] = (cluster_id + 1, score, transactions)
    bodies = [text.encode("utf-8") for text in queries.texts]

    def check(query: int, payload: dict) -> bool:
        served = (payload.get("cluster_id"), payload.get("score"), payload.get("transactions"))
        return served == expected[query]

    def check_health(server: Server) -> None:
        for entry in _store_fields(server.health):
            outcome.check(
                entry.get("store") == "hit" and entry.get("corpus_compile_count", 0) == 0,
                f"served model store {entry.get('store')}, compiled "
                f"{entry.get('corpus_compile_count')}",
            )

    def phase(server: Server, rate: float, count: int, first: int) -> Phase:
        done = Phase(server.port, rate, count, first, bodies, check)
        for index in range(count):
            outcome.check(done.ok[index], f"request {first + index}: failed or wrong verdict")
        return done

    def warm(server: Server) -> None:
        """Send every query once, untimed: measure the warm server."""
        for body in bodies:
            _request(server.port, "POST", "/classify", body)

    # warm-up launch: compiles bytecode and fills the page cache, untimed
    Server(ctx, model_dir).close()
    base_count = max(len(bodies), int(BASE_RATE * ctx.seconds * BASE_SHARE))

    if ctx.trace:
        # the traced server sees every query once, then the fixed-rate phase
        served = list(range(len(bodies))) + [i % len(bodies) for i in range(base_count)]
        transactions = sum(verdicts[query][2] for query in served)
        return _traced(ctx, model_dir, outcome, check_health, warm, phase, base_count,
                       transactions)

    clock = HostSpeed()
    setups = []
    for _ in range(LAUNCHES - 1):
        clock.probe()
        server = Server(ctx, model_dir)
        setups.append(server.setup_s)
        check_health(server)
        server.close()
    clock.probe()
    server = Server(ctx, model_dir)
    setups.append(server.setup_s)
    check_health(server)
    warm(server)
    per_window = base_count // WINDOWS
    p50s, p90s, rates = [], [], []
    met = sent = 0
    for _ in range(WINDOWS):
        clock.probe()
        fixed = phase(server, BASE_RATE, per_window, sent)
        p50s.append(median(fixed.latency_ms))
        p90s.append(percentile(fixed.latency_ms, 0.9))
        met += fixed.meets_limit()
        clock.probe()
        # every request is due at once: two connections kept busy
        saturated = phase(server, float("inf"), SATURATING_REQUESTS, sent + per_window)
        rates.append(saturated.achieved_rate)
        sent += per_window + SATURATING_REQUESTS
    clock.probe()
    rss = server.peak_rss_mb()
    server.close()
    print(f"fixed-rate windows with p90 within {LATENCY_LIMIT_MS:g} ms and no growing "
          f"backlog: {met} of {WINDOWS}", file=sys.stderr)
    metrics = clock.scale({
        "setup_s": median(setups),
        "docs_per_s": percentile(rates, 0.75),
        "latency_p50_ms": percentile(p50s, 0.25),
        "latency_p90_ms": percentile(p90s, 0.25),
        "peak_rss_mb": rss,
        "f_measure": _f_measure(queries, verdicts),
    })
    return result(outcome, metrics, END_TO_END)


def _traced(ctx, model_dir, outcome, check_health, warm, phase, count, transactions) -> dict:
    plain = Server(ctx, model_dir)
    check_health(plain)
    warm(plain)
    untraced = phase(plain, BASE_RATE, count, 0)
    plain.close()
    trace_path = ctx.workspace.join("server-trace.json")
    server = Server(ctx, model_dir, trace_path)
    check_health(server)
    warm(server)
    traced = phase(server, BASE_RATE, count, 0)
    server.close()
    with open(trace_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    models = report.pop("models")
    compiled = sum(int(model.get("corpus_compile_count", 0)) for model in models)
    hits = sum(1 for model in models if model.get("store") == "hit")
    outcome.check(hits >= 1 and compiled == 0,
                  f"traced server: {hits} store hits, compiled {compiled}")
    # every query's transactions are scored against all k representatives
    pairs = transactions * int(MODEL[MODEL.index("--k") + 1])
    outcome.check(
        report["counters"].get("transactions.count") == transactions
        and report["counters"].get("similarity.assign_pairs") == pairs,
        f"traced server counted {report['counters'].get('transactions.count')} transactions "
        f"and {report['counters'].get('similarity.assign_pairs')} pairs, "
        f"expected {transactions} and {pairs}",
    )
    counts = {
        "transactions.count": report["counters"].get("transactions.count", 0),
        "transactions.items": report["counters"].get("transactions.items", 0),
        "similarity.compiled": compiled,
        "model_store.store_hit": hits,
        "corpus_store.bytes": directory_bytes(ctx.workspace.join("corpus-cache")),
    }
    values = layers.from_report([report], counts)
    http_p50 = median(traced.latency_ms)
    phases = (untraced, traced)
    values.update({
        "serving.overhead_ms_p50": http_p50 - tracer.span_p50_ms(report, "serving.classify"),
        "generator.sent": sum(len(p.ok) for p in phases),
        "generator.failed": sum(p.failed for p in phases),
        "generator.late_ms_max": max(max(p.late_ms) for p in phases),
        "generator.queue_wait_ms_p90": percentile([q for p in phases for q in p.queue_ms], 0.9),
        "trace.overhead_s": (http_p50 - median(untraced.latency_ms)) / 1000.0,
    })
    return result(outcome, layers.complete(values), PER_LAYER)

