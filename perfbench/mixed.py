"""The ``service-mixed`` workload: cached reads beside deepening writes.

Set-up seeds a store (read keys through the program's ``Orchestrator``
at every rung of their checkpoint ladder, write keys as member records at
their base depth), compacts it, starts the service in its own process
(``perfbench/server.py``) and sends a short warm-up.  Then
``SERVICE_CLIENTS`` closed-loop clients, threads of this one generator
process with one connection each, walk their own request schedules.
Each client owns its keys, so every request's outcome (cache hit or
deepening) is fixed by its position in the schedule.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import mean
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import oracle
import workloads
from calibrate import REFERENCE_EVERY_S, at_nominal, reference_seconds
from metrics import percentile
from sampling import layer_metrics
from tracer import Span, self_times
from workloads import (
    READ_RUNGS,
    SERVICE_CLIENTS,
    WARMUP_REQUESTS,
    WRITE_BASE,
    WRITE_INCREMENT,
    WRITE_KEYS_PER_CLIENT,
    KeySpec,
    Request,
)

HERE = Path(__file__).resolve().parent
#: Seconds one response may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Seconds the server gets to start or to stop.
SERVER_WAIT_S = 60.0

#: One completed request: (kind, seconds, correct).
Outcome = Tuple[str, float, bool]


class Server:
    """One launcher process serving a store directory."""

    def __init__(self, store: Path, workdir: Path, tag: str, trace: bool, env: dict) -> None:
        self.status_path = workdir / f"server-{tag}.json"
        self.spans_path = workdir / f"spans-{tag}.jsonl"
        command = [
            sys.executable, str(HERE / "server.py"),
            "--store", str(store), "--out", str(self.status_path),
            "--trace", "1" if trace else "0",
        ]
        if trace:
            command += ["--spans", str(self.spans_path)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=SERVER_WAIT_S):
                self.kill()
                raise RuntimeError("service did not start in time")
        line = self.proc.stdout.readline().decode("ascii", "replace").split()
        if len(line) != 2 or line[0] != "READY":
            self.kill()
            raise RuntimeError(f"service failed to start: {line!r}")
        return int(line[1])

    def stop(self) -> dict:
        """Shut the service down; returns its status document."""
        from repro.service import ServiceClient

        try:
            with ServiceClient(port=self.port, timeout=SERVER_WAIT_S) as client:
                client.shutdown()
            self.proc.wait(timeout=SERVER_WAIT_S)
        finally:
            self.kill()
        return json.loads(self.status_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class MixedWorkload:
    """Keys, schedules, goldens, the seeded store and the running service."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reads = [workloads.read_keys(seed, c) for c in range(SERVICE_CLIENTS)]
        self.writes = [
            workloads.write_keys(seed, c, "write", WRITE_KEYS_PER_CLIENT)
            for c in range(SERVICE_CLIENTS)
        ]
        #: Two warm-up key sets per client: one per server start.
        self.warm = [workloads.write_keys(seed, c, "warm", 2) for c in range(SERVICE_CLIENTS)]
        self.schedules = [
            workloads.request_schedule(self.reads[c], self.writes[c], c)
            for c in range(SERVICE_CLIENTS)
        ]
        self.goldens: Dict[Tuple[KeySpec, int], int] = {}
        self.server: Optional[Server] = None
        self.warm_outcomes: List[Outcome] = []
        self.env = dict(os.environ)

    def compute_goldens(self) -> None:
        """Oracle counts at every rung of every read key (untimed)."""
        from repro.lab import ExperimentSpec

        for keys in self.reads:
            for key in keys:
                word = ExperimentSpec.from_dict(key.spec_dict(1)).resolve_word()
                mask = oracle.accept_mask(word, key.recognizer, key.seed, READ_RUNGS[-1])
                for rung in READ_RUNGS:
                    self.goldens[(key, rung)] = int(mask[:rung].sum())

    def golden(self, request: Request) -> int:
        if request.kind == "write":
            return request.trials  # write keys are members: every trial accepts
        return self.goldens[(request.key, request.trials)]

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Seed and compact the store, start the service, warm up."""
        start = perf_counter()
        from repro.lab import ExperimentSpec, LabRecord, Orchestrator, ResultStore

        store_dir = self.workdir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        store = ResultStore(store_dir)
        orchestrator = Orchestrator(store)
        for keys in self.reads:
            for key in keys:
                for rung in READ_RUNGS:
                    orchestrator.run(ExperimentSpec.from_dict(key.spec_dict(rung)))
        records = []
        for keys in self.writes + self.warm:
            for key in keys:
                spec = ExperimentSpec.from_dict(key.spec_dict(WRITE_BASE))
                records.append(
                    LabRecord(key=spec.key, spec=spec.to_dict(), trials=WRITE_BASE,
                              accepted=WRITE_BASE, backend="batched")
                )
        store.append_many(records)
        store.compact()
        self.warm_outcomes = self.start_server(trace=False, warm_set=0)
        return perf_counter() - start

    def start_server(self, trace: bool, warm_set: int) -> List[Outcome]:
        tag = "traced" if trace else f"plain{warm_set}"
        self.server = Server(self.workdir / "store", self.workdir, tag, trace, self.env)
        warmups = [
            workloads.request_schedule(self.reads[c], self.warm[c][warm_set : warm_set + 1], c)[
                :WARMUP_REQUESTS
            ]
            for c in range(SERVICE_CLIENTS)
        ]
        return self.drive(warmups, 0, None)[0]

    # -- the closed loop ------------------------------------------------

    def drive(
        self,
        schedules: List[List[Request]],
        first: int,
        seconds: Optional[float],
        loop: Optional[str] = None,
    ) -> Tuple[List[Outcome], int, float]:
        """Step the clients in lockstep from step *first* until time is up.

        Each step, every client thread sends its next request and waits
        for its reply, then for the other clients.  With *seconds* None
        the schedules run to their end.  Returns the outcomes, the next
        step and the elapsed seconds.

        With a reference *loop* (``calibrate.py``), the loop runs between
        steps, every ``REFERENCE_EVERY_S``, while every client waits and
        the service is idle; each request's latency and each stretch of
        elapsed time between two loops is scaled to nominal host speed by
        the loops around it.
        """
        from repro.service import ServiceClient

        results: List[List[Tuple[str, float, bool, int]]] = [[] for _ in schedules]
        steps = min(len(schedule) for schedule in schedules)
        deadline = None if seconds is None else perf_counter() + seconds
        state = {"step": first, "stop": first >= steps, "segment": 0}
        #: Reference loop times, and the timed seconds between each pair.
        references: List[float] = []
        segments: List[float] = []

        def close_segment(now: float) -> None:
            segments.append(now - state["segment_start"])
            references.append(reference_seconds(loop))
            state["segment"] += 1
            state["segment_start"] = perf_counter()

        def advance() -> None:  # once per step, when every reply is in
            state["step"] += 1
            now = perf_counter()
            timed_out = deadline is not None and now >= deadline
            state["stop"] = timed_out or state["step"] >= steps
            if loop is not None and not state["stop"]:
                if now - state["segment_start"] >= REFERENCE_EVERY_S:
                    close_segment(now)

        barrier = threading.Barrier(len(schedules), action=advance)

        def client(c: int) -> None:
            try:
                with ServiceClient(port=self.server.port, timeout=REQUEST_TIMEOUT_S) as conn:
                    while not state["stop"]:
                        request = schedules[c][state["step"]]
                        sent = perf_counter()
                        try:
                            answer = conn.query(request.key.spec_dict(request.trials))
                            ok = self._correct(request, answer)
                        except Exception:  # repro-lint: disable=broad-except -- an error envelope, timeout or dropped connection is a failed request, counted as such
                            ok = False
                        spent = perf_counter() - sent
                        results[c].append((request.kind, spent, ok, state["segment"]))
                        barrier.wait()
            except threading.BrokenBarrierError:
                return
            finally:
                barrier.abort()  # a client that leaves early releases the others

        if loop is not None:
            reference_seconds(loop)  # warm-up; its time is not used
            references.append(reference_seconds(loop))
        start = state["segment_start"] = perf_counter()
        threads = [threading.Thread(target=client, args=(c,)) for c in range(len(schedules))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = perf_counter() - start
        outcomes = [o for per_client in results for o in per_client]
        if loop is None:
            return [(kind, s, ok) for kind, s, ok, _seg in outcomes], state["step"], elapsed
        close_segment(perf_counter())

        def scaled(spent: float, segment: int) -> float:
            around = (references[segment] + references[segment + 1]) / 2.0
            return at_nominal(spent, around, loop)

        elapsed = sum(scaled(spent, seg) for seg, spent in enumerate(segments))
        return [(kind, scaled(s, seg), ok) for kind, s, ok, seg in outcomes], state["step"], elapsed

    def _correct(self, request: Request, answer) -> bool:
        expected_source = "deepened" if request.kind == "write" else "cache"
        executed = WRITE_INCREMENT if request.kind == "write" else 0
        return (
            answer.source == expected_source
            and answer.trials == request.trials
            and answer.trials_executed == executed
            and answer.accepted == self.golden(request)
        )

    # -- the two kinds of run ---------------------------------------------

    def timed(self, seconds: float, tally: Dict[str, int]) -> Dict[str, float]:
        loop = workloads.REFERENCE_LOOP["service-mixed"]
        outcomes, _step, elapsed = self.drive(self.schedules, 0, seconds, loop)
        status = self.server.stop()
        count(self.warm_outcomes + outcomes, tally)
        reads = [s for kind, s, _ok in outcomes if kind != "write"]
        writes = [s for kind, s, _ok in outcomes if kind == "write"]
        return {
            "trials_per_s": len(writes) * WRITE_INCREMENT / elapsed,
            "queries_per_s": len(outcomes) / elapsed,
            "read_ms_p50": 1e3 * percentile(reads, 50),
            "read_ms_p99": 1e3 * percentile(reads, 99),
            "write_ms_p50": 1e3 * percentile(writes, 50),
            "write_ms_p90": 1e3 * percentile(writes, 90),
            "peak_rss_mb": status["peak_rss_mb"],
        }

    def traced(self, seconds: float, tally: Dict[str, int], spans_path: str) -> Dict[str, float]:
        """Half the time against a plain server, half against a traced one."""
        from repro.service import ServiceClient

        half = seconds / 2.0
        plain, step, _ = self.drive(self.schedules, 0, half)
        self.server.stop()
        count(self.start_server(trace=True, warm_set=1), tally)
        with ServiceClient(port=self.server.port) as conn:
            before = conn.metrics()
            traced, _step, _ = self.drive(self.schedules, step, half)
            after = conn.metrics()
        self.server.stop()
        shutil.copyfile(self.server.spans_path, spans_path)
        count(self.warm_outcomes + plain + traced, tally)
        spans = read_spans(self.server.spans_path)
        latency = mean(s for _kind, s, _ok in traced)
        out = service_layers(spans, before, after, latency)
        out["trace.overhead_frac"] = latency / mean(s for _kind, s, _ok in plain) - 1.0
        return out


def count(outcomes: List[Outcome], tally: Dict[str, int]) -> None:
    tally["attempted"] += len(outcomes)
    tally["failed"] += sum(1 for _kind, _s, ok in outcomes if not ok)


def read_spans(path: Path) -> List[Span]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            spans.append((d["id"], d["parent"], d["name"], d["start_s"], d["end_s"], d["work"]))
    return spans


def _diff(before: dict, after: dict, section: str, prefix: str) -> Tuple[float, float]:
    """Summed (count or value, sum) growth of the instruments under *prefix*."""
    grew_count = grew_sum = 0.0
    for key, value in after[section].items():
        if not key.startswith(prefix):
            continue
        old = before[section].get(key)
        if section == "counters":
            grew_count += value - (old or 0.0)
        else:
            grew_count += value["count"] - (old["count"] if old else 0)
            grew_sum += value["sum"] - (old["sum"] if old else 0.0)
    return grew_count, grew_sum


def service_layers(spans: List[Span], before: dict, after: dict, latency: float) -> Dict[str, float]:
    """Per-request layer metrics from a traced server's spans.

    The timed window lies between the two ``metrics`` requests.  Spans
    are charged to the query whose ``service.op`` span they descend from;
    ``service.encode`` runs after the op completes, so it is charged by
    time window instead.
    """
    from server import OP_METRICS, OP_READ, OP_WRITE

    by_id = {s[0]: s for s in spans}
    markers = sorted(s[3] for s in spans if s[2] == "service.op" and s[5] == OP_METRICS)
    lo, hi = markers[0], markers[-1]
    queries = {
        s[0]: s[5] for s in spans
        if s[2] == "service.op" and s[5] in (OP_READ, OP_WRITE) and lo < s[3] < hi
    }

    def root(sid: int) -> int:
        while by_id[sid][1] in by_id:
            sid = by_id[sid][1]
        return sid

    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    unattributed_reads = 0.0
    for s in spans:
        sid, _parent, name, start, _end, work = s
        if name == "service.encode":
            charged = lo < start < hi
        else:
            charged = root(sid) in queries
        if not charged:
            continue
        if name == "service.op":
            if queries[sid] == OP_READ:
                unattributed_reads += own[sid]
            continue
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0.0, "work": 0.0})
        entry["self_s"] += own[sid]
        entry["calls"] += 1
        entry["work"] += work
    n = len(queries)
    n_reads = sum(1 for kind in queries.values() if kind == OP_READ)

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0) / n

    op_count, op_sum = _diff(before, after, "histograms", "service.op.seconds{op=query}")
    scans, _ = _diff(before, after, "counters", "lab.store.file_scans")
    op_s = op_sum / op_count
    out = layer_metrics(get)
    out.update({
        "lab.spec.key.self_s": get("lab.spec.key", "self_s"),
        "lab.store.deepest.self_s": get("lab.store.deepest", "self_s"),
        "lab.store.checkpoints.self_s": get("lab.store.checkpoints", "self_s"),
        "lab.store.file_scans": scans / op_count,
        "lab.store.append.self_s": get("lab.store.append", "self_s"),
        "lab.run.self_s": get("lab.run", "self_s"),
        "service.decode.self_s": get("service.decode", "self_s"),
        "service.spec.self_s": get("service.spec", "self_s"),
        "service.encode.self_s": get("service.encode", "self_s"),
        "service.op_s": op_s,
        "service.unattributed_s": unattributed_reads / n_reads,
        "service.transport_s": latency - op_s - get("service.encode", "self_s"),
        "trace.e2e_s": latency,
    })
    attributed = sum(entry["self_s"] for entry in totals.values()) / n
    out["trace.unattributed_frac"] = (latency - attributed) / latency
    return out
