"""The ``http-live-mix`` workload: reads and update batches over HTTP.

The client sends a seeded schedule over one keep-alive connection, in
``PASSES`` passes, each against an index and service built afresh in
one server process (``server.py``); client and server share one CPU:

* reads: single-source ``lb`` queries whose sources follow a Zipf law
  over a fixed support, so repeats hit the result cache until the next
  update moves the epoch, and one seeded ``mc`` read in a hundred
  requests;
* writes: one request in ten is an ``/update`` batch.

Phase one is an open loop at one fixed rate below capacity, latency
timed from each request's scheduled send time; phase two is a closed
loop (the next request is sent when the last returns) that measures
capacity.  Every answer is checked afterwards against the
graph at the epoch its quality block reports.
"""

from __future__ import annotations

import bisect
import gc
import http.client
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional

import common
import layers
import tracing

ETA = 0.3
MC_SAMPLES = 1000
REFERENCE_WORLDS = 4096
ZIPF_SUPPORT = 300
ZIPF_EXPONENT = 1.1
WARMUP_SOURCES = 20
#: Request ``i`` is an update batch when ``i % UPDATE_EVERY`` is
#: ``UPDATE_EVERY - 1`` and a seeded ``mc`` read when ``i % MC_EVERY`` is
#: ``MC_EVERY // 2``.  Neither is drawn: an ``mc`` read costs 25-45 ms of
#: server time against about 1 ms for a ``lb`` read, and with a 1% draw
#: the number of them per run moved server CPU per request by 25% from
#: seed to seed; the reads sent while an ``mc`` read or an index repair
#: holds the connection are the slowest, and where they fall sets the
#: tail.
UPDATE_EVERY = 10
MC_EVERY = 100
#: ``mc`` reads cycle over the first ``MC_SOURCES`` nodes of the support,
#: so their cost does not follow the seed either.
MC_SOURCES = 16
UPDATE_SIZE = 4
#: Open-loop phase: a fixed arrival rate (requests/s).
OPEN_RATE = 80.0
#: Requests of one pass per second of ``--seconds``, in the open loop
#: and in the capacity phase (fixed counts, sized from the run length
#: only).
OPEN_PER_SECOND = 16.0
CAPACITY_PER_SECOND = 66.7
#: Requests per segment: capacity-phase requests per segment timed for
#: ``throughput_qps`` (see ``common.closed_loop_qps``), and requests of
#: either phase between two readings of the server's CPU clock for
#: ``cpu_ms_per_query`` (see ``common.segment_best_total``).
SEGMENT = 100
LATENCY_LIMIT_MS = 100.0
F1_FLOOR = 0.9
#: Passes over the schedule per run, each against a fresh index and
#: service (the initial graph at epoch 0), so request ``i`` of every
#: pass is the same request at the same offset against the same state.
#: Latencies are each request's best over the passes, throughput and
#: CPU each segment's best: a stall from a neighbour on the host that
#: hits a request in one pass then does not set the figure.
PASSES = 6
#: Request ids of pass ``k`` start at ``k * RID_STRIDE``; the traced
#: pass's at ``TRACED_RID``.
RID_STRIDE = 100_000
TRACED_RID = 1_000_000


def make_schedule(seed: int, seconds: int, adj: common.Adjacency) -> dict:
    """The warm-up and the two timed phases, from the seed alone."""
    nodes = common.source_pool(
        len(adj), ZIPF_SUPPORT + WARMUP_SOURCES, "http-live-mix"
    )
    # Fixed support, ranking, update stream and request kinds (see
    # ``common.source_pool``); the seed draws the sources of the reads.
    support, warm = nodes[:ZIPF_SUPPORT], nodes[ZIPF_SUPPORT:]
    rng = random.Random(common.derive(seed, "http-live-mix"))
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(ZIPF_SUPPORT)]
    cumulative = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    open_count = max(1, round(OPEN_PER_SECOND * seconds))
    count = open_count + round(CAPACITY_PER_SECOND * seconds)
    batches = iter(common.update_batches(
        adj, count // UPDATE_EVERY, UPDATE_SIZE, "http-live-mix:updates",
    ))
    requests = []
    mc_reads = 0
    for i in range(count):
        if i % UPDATE_EVERY == UPDATE_EVERY - 1:
            requests.append({"kind": "update", "ops": next(batches)})
            continue
        if i % MC_EVERY == MC_EVERY // 2:
            # numpy is named explicitly: under "auto" the small candidate
            # subgraphs of this graph stay on the python sampler, and the
            # CSR snapshot rebuilt after each update would go unmeasured.
            source = support[mc_reads % MC_SOURCES]
            mc_reads += 1
            body = {"sources": [source], "eta": ETA, "method": "mc",
                    "num_samples": MC_SAMPLES, "backend": "numpy",
                    "seed": common.derive(source, "mc") % (1 << 31)}
        else:
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            source = support[min(rank, ZIPF_SUPPORT - 1)]
            body = {"sources": [source], "eta": ETA, "method": "lb"}
        requests.append({"kind": "query", "body": body})

    open_loop = [
        dict(item, due=i / OPEN_RATE)
        for i, item in enumerate(requests[:open_count])
    ]
    warmup = [
        {"kind": "query", "body": {"sources": [s], "eta": ETA, "method": "lb"}}
        for s in warm
    ] + [{"kind": "query", "body": {
        "sources": [warm[0]], "eta": ETA, "method": "mc",
        "num_samples": MC_SAMPLES, "backend": "numpy", "seed": 1}}]
    return {"warmup": warmup, "open": open_loop, "capacity": requests[open_count:]}


class Server:
    """The server subprocess and its command pipe (one per run)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "server.py")],
            cwd=str(common.ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.ready = self._read()
        if not self.ready.get("ready"):
            raise RuntimeError(f"server did not start: {self.ready}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with {self.proc.wait(timeout=30)}")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def cpu(self) -> float:
        """The server process's CPU clock (s)."""
        return self.command("mark")["cpu_s"]

    def stop(self) -> dict:
        try:
            return self.command("stop")
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def send(self, conn, item: dict, rid: int):
        if item["kind"] == "update":
            path, body = "/update", {"rid": rid, "updates": item["ops"]}
        else:
            path, body = "/query", dict({"rid": rid}, **item["body"])
        conn.request("POST", path, json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        return response.status, payload

    def run(self, items: List[dict], rid0: int, open_loop: bool,
            rec: Optional[tracing.Recorder], server: Server):
        """Send *items*; each record keeps due/sent/done times.  Also
        returns the server's CPU clock read before the first request,
        after every ``SEGMENT`` requests and after the last."""
        records = []
        cpu = [server.cpu()]
        start = time.perf_counter() + 0.05
        conn = self.connect()
        try:
            for i, item in enumerate(items):
                rid = rid0 + i
                due = start + item["due"] if open_loop else None
                if due is not None:
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                sent = time.perf_counter()
                try:
                    if rec is not None:
                        with rec.span("bench.client.request", rid=rid):
                            status, payload = self.send(conn, item, rid)
                    else:
                        status, payload = self.send(conn, item, rid)
                except (OSError, http.client.HTTPException) as error:
                    status, payload = -1, repr(error).encode()
                    conn.close()
                    conn = self.connect()
                done = time.perf_counter()
                records.append({
                    "rid": rid, "kind": item["kind"],
                    "due": due if due is not None else sent,
                    "sent": sent, "done": done,
                    "status": status, "payload": payload,
                })
                if (i + 1) % SEGMENT == 0 and i + 1 < len(items):
                    cpu.append(server.cpu())
        finally:
            conn.close()
        cpu.append(server.cpu())
        return records, cpu


def timed_pass(client, server, schedule, rid0, rec=None):
    """Warm-up, then the open-loop and capacity phases; with a recorder,
    the server's layer wrappers are in place for the two phases only."""
    for i, item in enumerate(schedule["warmup"]):
        conn = client.connect()
        try:
            client.send(conn, item, rid0 - 1 - i)
        finally:
            conn.close()
    if rec is not None:
        server.command("trace_on")
    gc.collect()
    open_records, open_cpu = client.run(schedule["open"], rid0, True, rec, server)
    cap_start = time.perf_counter()
    cap_records, cap_cpu = client.run(
        schedule["capacity"], rid0 + len(schedule["open"]), False, rec, server
    )
    cap_wall = time.perf_counter() - cap_start
    return {
        "open": open_records, "capacity": cap_records,
        "capacity_wall": cap_wall,
        # The server's CPU clock at the segment boundaries of both phases.
        "cpu_readings": open_cpu + cap_cpu,
        # The capacity phase's clock at its start and at each completion.
        "capacity_marks": [cap_start] + [r["done"] for r in cap_records],
    }


def check(adj, p: dict, score: common.AnswerScore) -> Dict[int, bool]:
    """Check every answer of one pass at its epoch, replaying the pass's
    update batches on *adj* (the initial graph); returns correctness per
    rid."""
    flags: Dict[int, bool] = {}
    batch_of: Dict[int, int] = {}  # epoch -> rid of the update
    reads = []
    for record in p["open"] + p["capacity"]:
        if record["status"] != 200:
            score.fail(f"rid {record['rid']}: HTTP {record['status']}")
            flags[record["rid"]] = False
            continue
        body = json.loads(record["payload"])
        record["body"] = body
        if record["kind"] == "update":
            epoch = body.get("epoch")
            ok = body.get("accepted") is True and epoch not in batch_of
            flags[record["rid"]] = ok
            if ok:
                score.checked += 1
                batch_of[epoch] = record["rid"]
            else:
                score.fail(f"rid {record['rid']}: update reply {body}")
        else:
            reads.append(record)
    ops_of = p["ops"]
    epochs = sorted(batch_of)
    if epochs != list(range(1, len(epochs) + 1)):
        score.fail(f"epochs are not 1..{len(epochs)}")
    reads.sort(key=lambda r: r["body"]["quality"]["epoch"])
    current = 0
    bank = common.CoinBank(REFERENCE_WORLDS, common.derive(0, "http-live-mix"))
    sampler = None
    exact: Dict[int, set] = {}
    freq: Dict[int, object] = {}
    margin = common.sampling_margin(ETA, MC_SAMPLES, REFERENCE_WORLDS)
    for read in reads:
        body = read["body"]
        epoch = body["quality"]["epoch"]
        while current < epoch and current + 1 in batch_of:
            current += 1
            common.apply_ops(adj, ops_of[batch_of[current]])
            exact.clear()
            freq.clear()
            sampler = None
        source = body["sources"][0]
        label = f"rid {read['rid']} epoch {epoch} source {source}"
        if current != epoch or body["degraded"]:
            score.fail(f"{label}: unknown epoch or degraded")
            flags[read["rid"]] = False
            continue
        got = set(body["nodes"])
        if body["estimator"] == "lb":
            if source not in exact:
                exact[source] = common.mlp_answer(adj, [source], ETA)
            flags[read["rid"]] = score.exact(got, exact[source], label)
        else:
            if source not in freq:
                if sampler is None:
                    sampler = common.WorldSampler(adj, bank)
                freq[source] = sampler.frequencies([source])
            flags[read["rid"]] = score.sampled(got, freq[source], ETA, margin, label)
    return flags


def _latency_ms(record) -> float:
    return (record["done"] - record["due"]) * 1000.0


def serve_pass(server: Server, info: dict, schedule: dict, rid0: int,
               rec: Optional[tracing.Recorder] = None) -> dict:
    """One pass of the schedule against the service *info* describes,
    freshly built and started in *server*."""
    client = Client(info["port"])
    result = timed_pass(client, server, schedule, rid0, rec)
    if rec is not None:
        result["trace"] = server.command("trace_off")
    result["ready"] = info
    items = schedule["open"] + schedule["capacity"]
    result["ops"] = {
        rid0 + i: item["ops"] for i, item in enumerate(items)
        if item["kind"] == "update"
    }
    return result


def _update_ms(record) -> float:
    return (record["done"] - record["sent"]) * 1000.0


def best_of(passes, kind: str, timing) -> list:
    """Each request's best time (ms) over passes of the same schedule:
    open-loop reads, or updates of both phases."""
    phases = ("open",) if kind == "query" else ("open", "capacity")
    columns = zip(*(
        [r for phase in phases for r in p[phase]] for p in passes
    ))
    return [
        min(timing(r) for r in column)
        for column in columns if column[0]["kind"] == kind
    ]


def pass_figures(p: dict) -> dict:
    """Figures of one pass, for the details line."""
    latencies = [_latency_ms(r) for r in p["open"] if r["kind"] == "query"]
    return {
        "query_p50_ms": common.median(latencies),
        "throughput_qps": len(p["capacity"]) / p["capacity_wall"],
        "cpu_ms_per_query": (
            (p["cpu_readings"][-1] - p["cpu_readings"][0]) * 1000.0
            / (len(p["open"]) + len(p["capacity"]))
        ),
        "lag_p99_ms": common.percentile(
            [(r["sent"] - r["due"]) * 1000.0 for r in p["open"]], 99
        ),
        "read_latency_quantiles_ms": common.quantile_map(latencies),
    }


def pin_to_one_cpu() -> None:
    """Run this process and the server it starts on one CPU.

    A request then passes between client and server as a context switch
    on that CPU.  Spread over two virtual CPUs, each hand-off woke a
    CPU that had gone idle, and that wake-up took as long as the host
    was busy: over three runs of one seed, alternating with pinned runs,
    throughput read 731, 549 and 557 requests/s unpinned against 759,
    753 and 684 pinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(seed: int, seconds: int, traced: bool) -> dict:
    import server as server_module

    pin_to_one_cpu()
    adj = common.adjacency_of(server_module.make_graph())
    schedule = make_schedule(seed, seconds, adj)
    rec = tracing.Recorder() if traced else None
    server = Server()
    try:
        passes = []
        for k in range(PASSES):
            info = server.command("restart") if k else server.ready
            passes.append(serve_pass(server, info, schedule, k * RID_STRIDE))
            if not k:
                # ru_maxrss only grows: read it over one service's life,
                # before memory freed by restarts is reused in pieces.
                peak_rss = server.command("peak_rss")["peak_rss_mb"]
        traced_pass = None
        if rec is not None:
            info = server.command("restart_traced")
            traced_pass = serve_pass(server, info, schedule, TRACED_RID, rec)
        server.stop()
    finally:
        server.close()

    # Each pass starts from the initial graph, so each is checked from a
    # fresh copy of it.
    score = common.AnswerScore()
    flags: Dict[int, bool] = {}
    for p in passes + ([traced_pass] if traced_pass else []):
        flags.update(check([dict(a) for a in adj], p, score))

    figures = [pass_figures(p) for p in passes]
    reads = best_of(passes, "query", _latency_ms)
    updates = best_of(passes, "update", _update_ms)
    tail_ms, tail_q, tail_n = common.tail(reads)
    records = [r for p in passes for r in p["open"] + p["capacity"]]
    ok = 0
    refused = 0
    for r in records:
        body = r.get("body") or {}
        shed = str(body.get("degraded_reason") or "").startswith("shed:")
        refused += shed or r["status"] != 200
        if (flags.get(r["rid"]) and not shed and not body.get("degraded")
                and _latency_ms(r) <= LATENCY_LIMIT_MS):
            ok += 1
    f1 = score.f1
    setup_runs = [
        p["ready"]["build_s"] + p["ready"]["service_start_s"] for p in passes
    ]
    metrics = {
        "setup_s": (min(setup_runs), "s"),
        "query_p50_ms": (common.median(reads), "ms"),
        "query_tail_ms": (tail_ms, "ms"),
        "throughput_qps": (common.closed_loop_qps(
            [p["capacity_marks"] for p in passes], len(schedule["capacity"]),
            SEGMENT,
        ), "1/s"),
        "cpu_ms_per_query": (
            common.segment_best_total([p["cpu_readings"] for p in passes])
            * 1000.0 / (len(schedule["open"]) + len(schedule["capacity"])),
            "ms",
        ),
        "slo_ok_rate": (ok / len(records), "ratio"),
        "answer_f1": (f1, "ratio"),
        "update_p50_ms": (common.median(updates), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    methods: Dict[str, int] = {}
    for r in records:
        body = r.get("body")
        if body and r["kind"] == "query":
            methods[body["estimator"]] = methods.get(body["estimator"], 0) + 1
    details = {
        "workload": "http-live-mix",
        "passes": PASSES,
        "open_requests": len(schedule["open"]),
        "open_rate": OPEN_RATE,
        "capacity_requests": len(schedule["capacity"]),
        "estimators": methods,
        "pass_figures": figures,
        "read_latency_quantiles_ms": common.quantile_map(reads),
        "tail_percentile": tail_q,
        "tail_samples_beyond": tail_n,
        "update_quantiles_ms": common.quantile_map(updates),
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "f1_floor": F1_FLOOR,
        "refused": refused,
        "setup_runs_s": setup_runs,
        "wrong_examples": score.examples,
    }
    out = {
        "correct": score.wrong == 0 and f1 >= F1_FLOOR,
        "attempted": score.checked,
        "failed": score.wrong,
        "metrics": metrics,
        "details": details,
    }
    if rec is not None:
        out.update(_traced(
            rec, traced_pass, common.median([f["query_p50_ms"] for f in figures])
        ))
    return out


def _traced(rec, traced_pass, untraced_p50) -> dict:
    import server as server_module

    server_trace = traced_pass["trace"]
    client_spans = rec.export()
    spans = tracing.stitch(client_spans, server_trace["spans"], "bench.client.request")
    records = traced_pass["open"] + traced_pass["capacity"]
    rids = [r["rid"] for r in records]
    query_rids = [r["rid"] for r in records if r["kind"] == "query"]
    results = []
    refused = 0
    for r in records:
        if r["status"] != 200:
            refused += 1
            continue
        body = json.loads(r["payload"])
        if str(body.get("degraded_reason") or "").startswith("shed:"):
            refused += 1
        if r["kind"] == "query":
            results.append({
                "candidates": body["num_candidates"],
                "answers": len(body["nodes"]),
                "estimator": body["estimator"],
            })
    lags = [(r["sent"] - r["due"]) * 1000.0 for r in traced_pass["open"]]
    traced_p50 = common.median(
        [_latency_ms(r) for r in traced_pass["open"] if r["kind"] == "query"]
    )
    values = layers.http_report(
        spans, rids, query_rids, server_trace["counts"], results,
        server_module.NUM_NODES, server_trace["setup_spans"],
        1, common.percentile(lags, 99), refused,
        untraced_p50, traced_p50,
    )
    return {"layers": values, "spans": {
        "client": client_spans, "server": server_trace["spans"],
        "server_setup": server_trace["setup_spans"],
    }}
