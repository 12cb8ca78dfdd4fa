"""Shared pieces of the benchmark: checkout discovery, seeded inputs,
statistics, answer references and the host/environment block.

Nothing here imports ``repro`` at module load, so the schedule and
statistics helpers can be tested (and the run refused cleanly) in a
directory that holds no program source.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fixed seeds: the graph (and so the index build measured by
#: ``setup_s``), the source pools and the update stream are the same on
#: every run; ``--seed`` varies the order of the work, the request
#: sequence and the sampling seeds.
GRAPH_SEED = 0
INDEX_SEED = 0
POOL_SEED = 0


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout that holds the program."""


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program source at {SRC / 'repro'}; run from a checkout root"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise CheckoutError(f"imported repro from {repro.__file__}, not {SRC}")


def build_engine(make_graph, rec=None, rid: str = "setup-0"):
    """Generate the graph and build its index once.

    Returns the engine and the seconds it took; a recorder gets the
    round as request ``rid``.
    """
    from repro import RQTreeEngine

    gc.collect()
    start = time.perf_counter()
    if rec is None:
        engine = RQTreeEngine.build(make_graph(), seed=INDEX_SEED)
    else:
        with rec.span("graph.generate", rid=rid):
            graph = make_graph()
        with rec.span("bench.setup", rid=rid):
            engine = RQTreeEngine.build(graph, seed=INDEX_SEED)
    return engine, time.perf_counter() - start


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def derive(seed: int, label: str) -> int:
    """A 63-bit seed for one named input stream of one workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def source_pool(num_nodes: int, size: int, label: str) -> List[int]:
    """A fixed sample of distinct sources for one workload.

    The pool does not depend on ``--seed``: every seed draws its work
    from the same sources (in its own order, with its own sampling
    seeds), so runs under different seeds compare like with like.
    """
    return random.Random(derive(POOL_SEED, label)).sample(range(num_nodes), size)


def dumps(obj) -> str:
    """Canonical JSON (the byte form the determinism test compares)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: The usual tail percentiles, tried from the highest down.
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.
    """
    n = len(values)
    for q in _TAIL_CANDIDATES:
        beyond = int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))
        if beyond >= 10:
            return percentile(values, q), q, beyond
    return percentile(values, 50.0), 50.0, n // 2


def quantile_map(values: Sequence[float]) -> Dict[str, float]:
    """A few percentiles, for the details line."""
    return {f"p{q:g}": round(percentile(values, q), 3)
            for q in (10, 25, 50, 75, 90, 95, 99)}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def segment_best_total(pass_readings) -> float:
    """Sum over segments of each segment's least growth over passes.

    ``pass_readings`` holds, for each pass of the same work, a clock
    (wall or CPU) read at the same segment boundaries.  A stretch that
    slows a segment of one pass then does not count, as long as another
    pass ran that segment unhindered.
    """
    return sum(
        min(r[k + 1] - r[k] for r in pass_readings)
        for k in range(len(pass_readings[0]) - 1)
    )


def closed_loop_qps(pass_marks, n: int, segment: int) -> float:
    """Requests per second of a closed loop's wall time over passes of
    the same list.  ``pass_marks`` holds each pass's clock at its start
    and after each of its ``n`` requests.  The pass is cut into segments
    of ``segment`` requests; a segment's wall time (all the loop did,
    between the calls too) is its best over the passes."""
    bounds = list(range(0, n, segment)) + [n]
    return n / segment_best_total(
        [[marks[k] for k in bounds] for marks in pass_marks]
    )


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Answer references (independent of the program's own code paths)
# ----------------------------------------------------------------------
Adjacency = List[Dict[int, float]]


def adjacency_of(graph) -> Adjacency:
    """Copy a program graph into plain dicts the references work on."""
    return [dict(graph.successors(u)) for u in range(graph.num_nodes)]


def apply_ops(adj: Adjacency, ops: Iterable[dict]) -> None:
    """The documented update semantics: set/insert write ``p`` exactly,
    delete removes the arc if present."""
    for op in ops:
        if op["op"] == "delete":
            adj[op["u"]].pop(op["v"], None)
        else:
            adj[op["u"]][op["v"]] = op["p"]


def mlp_answer(adj: Adjacency, sources: Sequence[int], eta: float) -> Set[int]:
    """``{t : MLP(S, t) >= eta}`` by truncated Dijkstra on ``-log p``."""
    limit = -math.log(eta)
    dist: Dict[int, float] = {}
    heap = [(0.0, s) for s in sources]
    for s in sources:
        dist[s] = 0.0
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, p in adj[u].items():
            nd = d - math.log(p)
            if nd <= limit and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return {t for t, d in dist.items() if math.exp(-d) >= eta}


class CoinBank:
    """Arc coins for a fixed set of worlds, keyed by ``(u, v, p)``.

    An arc keeps its coins while its probability is unchanged, so the
    reference after an update batch re-draws only the arcs it touched.
    """

    def __init__(self, worlds: int, seed: int) -> None:
        import numpy as np

        self.np = np
        self.worlds = worlds
        self.words = -(-worlds // 64)
        self.seed = seed
        self._rows: Dict[Tuple[int, int, float], object] = {}

    def row(self, u: int, v: int, p: float):
        key = (u, v, p)
        row = self._rows.get(key)
        if row is None:
            np = self.np
            rng = np.random.default_rng([self.seed, u, v, int(p * 1e9)])
            alive = np.zeros(self.words * 64, dtype=bool)
            alive[: self.worlds] = rng.random(self.worlds) < p
            row = np.packbits(alive, bitorder="little").view(np.uint64)
            self._rows[key] = row
        return row


class WorldSampler:
    """Reachability frequencies over many sampled worlds (numpy, bit-packed).

    Written for the benchmark only, so the reference shares no code with
    the estimators it checks.  Worlds are propagated breadth-first from
    the sources; each round expands only the (node, world) pairs reached
    in the round before.
    """

    def __init__(self, adj: Adjacency, bank: CoinBank) -> None:
        np = self.np = bank.np
        self.n = len(adj)
        self.bank = bank
        tails, heads, rows = [], [], []
        for u in range(self.n):
            for v, p in sorted(adj[u].items()):
                tails.append(u)
                heads.append(v)
                rows.append(bank.row(u, v, p))
        self.heads = np.array(heads, dtype=np.int64)
        self.indptr = np.searchsorted(
            np.array(tails, dtype=np.int64), np.arange(self.n + 1)
        )
        self.coins = (
            np.stack(rows) if rows
            else np.zeros((0, bank.words), dtype=np.uint64)
        )
        full = np.zeros(bank.words * 64, dtype=bool)
        full[: bank.worlds] = True
        self.full = np.packbits(full, bitorder="little").view(np.uint64)

    def frequencies(self, sources: Sequence[int]):
        np = self.np
        reached = np.zeros((self.n, self.bank.words), dtype=np.uint64)
        frontier = np.array(sorted(set(sources)), dtype=np.int64)
        fresh = np.tile(self.full, (len(frontier), 1))
        reached[frontier] = fresh
        while len(frontier):
            starts = self.indptr[frontier]
            lengths = self.indptr[frontier + 1] - starts
            total = int(lengths.sum())
            if total == 0:
                break
            owner = np.repeat(np.arange(len(frontier)), lengths)
            offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            arcs = offsets + np.arange(total)
            carried = fresh[owner] & self.coins[arcs]
            heads = self.heads[arcs]
            order = np.argsort(heads, kind="stable")
            heads = heads[order]
            first = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
            merged = np.bitwise_or.reduceat(carried[order], first, axis=0)
            targets = heads[first]
            merged &= ~reached[targets]
            keep = merged.any(axis=1)
            frontier = targets[keep]
            fresh = merged[keep]
            reached[frontier] |= fresh
        counts = np.unpackbits(reached.view(np.uint8), axis=1).sum(
            axis=1, dtype=np.int64
        )
        return counts / float(self.bank.worlds)


def sampling_margin(eta: float, num_samples: int, reference_worlds: int) -> float:
    """Half-width inside which a sampled verdict may disagree with the
    reference: four standard errors of the estimator plus the reference."""
    var = eta * (1.0 - eta)
    return 4.0 * (math.sqrt(var / num_samples) + math.sqrt(var / reference_worlds))


class AnswerScore:
    """Micro-averaged F1 plus a per-answer confidence check."""

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0
        self.checked = 0
        self.wrong = 0
        self.examples: List[str] = []

    def exact(self, got: Set[int], want: Set[int], label: str) -> bool:
        self._tally(got, want)
        self.checked += 1
        if got != want:
            self._wrong(
                f"{label}: {len(got - want)} extra, {len(want - got)} missing"
            )
            return False
        return True

    def sampled(
        self, got: Set[int], freq, eta: float, margin: float, label: str
    ) -> bool:
        want = {int(t) for t in freq.nonzero()[0] if freq[t] >= eta}
        self._tally(got, want)
        self.checked += 1
        far_extra = [t for t in got - want if freq[t] < eta - margin]
        far_missing = [t for t in want - got if freq[t] >= eta + margin]
        if far_extra or far_missing:
            self._wrong(
                f"{label}: {len(far_extra)} extra, {len(far_missing)} "
                f"missing beyond +-{margin:.3f}"
            )
            return False
        return True

    def fail(self, message: str) -> None:
        """Count an operation that produced no answer to score."""
        self.checked += 1
        self._wrong(message)

    def _tally(self, got: Set[int], want: Set[int]) -> None:
        self.tp += len(got & want)
        self.fp += len(got - want)
        self.fn += len(want - got)

    def _wrong(self, message: str) -> None:
        self.wrong += 1
        if len(self.examples) < 5:
            self.examples.append(message)

    @property
    def f1(self) -> float:
        denominator = 2 * self.tp + self.fp + self.fn
        return 1.0 if denominator == 0 else 2 * self.tp / denominator


# ----------------------------------------------------------------------
# Host calibration and environment block
# ----------------------------------------------------------------------
def host_calibration_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-python + numpy loop.

    Recorded to tell host drift from program change; never used to
    normalise a metric.
    """
    import numpy as np

    values = np.random.default_rng(0).random(200_000)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += (i * 7) % 13
        for _ in range(4):
            total += int(np.argsort(np.sin(values) + total)[0])
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def cpu_jiffies() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` CPU jiffies of the host so far (Linux only)."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after) -> Optional[float]:
    """Share of CPU time the hypervisor took between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "platform": platform.platform(),
    }


def update_batches(
    adj: Adjacency, count: int, size: int, label: str
) -> List[List[dict]]:
    """A fixed stream of arc-update batches over the initial graph.

    Half re-weight an existing arc, a quarter delete one and a quarter
    insert an arc that closes a two-hop path.  Inserts stay local, as in
    the co-authorship and social graphs the stand-ins model, so the
    index keeps pruning while the stream runs.  Like the source pools,
    the stream does not depend on ``--seed``: the index repairs it
    triggers (the slowest updates) then fall on the same batches in
    every run.
    """
    rng = random.Random(derive(POOL_SEED, label))
    arcs = [(u, v) for u in range(len(adj)) for v in sorted(adj[u])]
    batches = []
    for _ in range(count):
        batch: List[dict] = []
        touched = set()
        while len(batch) < size:
            roll = rng.random()
            u, v = arcs[rng.randrange(len(arcs))]
            if roll >= 0.75:
                onward = sorted(adj[v])
                w = onward[rng.randrange(len(onward))] if onward else u
                if w == u or w in adj[u]:
                    continue
                v = w
            if (u, v) in touched:
                continue
            touched.add((u, v))
            if 0.5 <= roll < 0.75:
                batch.append({"op": "delete", "u": u, "v": v})
            else:
                batch.append(
                    {"op": "set", "u": u, "v": v,
                     "p": round(rng.uniform(0.3, 0.7), 3)}
                )
        batches.append(batch)
    return batches
