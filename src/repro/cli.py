"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``info``        — library, paper and model summary.
* ``recognize``   — stream a word (or a generated instance) through the
  quantum and classical recognizers and report decisions + space.
* ``sample``      — estimate acceptance probabilities by repeated
  trials through the execution engine (``batched`` or ``sequential``).
* ``separation``  — print the headline E5 table for a k-range.
* ``grover``      — the BBHT success-probability table for one k.
* ``comm``        — quantum vs classical communication costs for DISJ.
* ``qfa``         — the footnote-2 automata state-count table.
* ``lab``         — the persistent experiment store: ``lab run`` caches
  and deepens acceptance experiments, ``lab status`` / ``lab report``
  inspect the store.
* ``serve``       — run the acceptance service: a long-lived daemon
  that shares one store and engine across concurrent socket clients
  (request coalescing, bounded worker pool, precision mode).
* ``query``       — query a running service (``--target-halfwidth``
  for precision mode; ``--stats`` / ``--ping`` / ``--shutdown-server``
  for operations).
* ``metrics``     — fetch a running service's full telemetry snapshot
  (counters, gauges, latency histograms) as a table or ``--json``.

``sample``, ``lab run`` and ``query`` also take ``--trace FILE``: the
command runs inside a full-mode trace session and its hierarchical
span tree is written to FILE as JSONL (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import ReproError


def _cmd_info(args: argparse.Namespace) -> int:
    from . import __version__
    from .engine import BACKENDS, RECOGNIZERS

    print(f"repro {__version__}")
    print(
        "Reproduction of: F. Le Gall, 'Exponential Separation of Quantum and\n"
        "Classical Online Space Complexity', SPAA 2006 (quant-ph/0606066).\n"
        "\n"
        "Main objects:\n"
        "  L_DISJ        1^k#(x#y#x#)^{2^k} with x, y disjoint, |x| = 2^{2k}\n"
        "  Theorem 3.4   quantum online recognizer, O(log n) space\n"
        "  Theorem 3.6   classical online lower bound Omega(n^{1/3})\n"
        "  Prop. 3.7     classical online upper bound O(n^{1/3})\n"
        "\n"
        f"Engine backends (--backend): {', '.join(BACKENDS)}\n"
        f"Recognizers (--recognizer):  {', '.join(RECOGNIZERS)}\n"
        "Service: `repro serve` shares one store/engine across concurrent\n"
        "  clients (request coalescing, precision mode); `repro query`\n"
        "  talks to it; Python: repro.service.{AcceptanceService,\n"
        "  ServiceClient, ServiceThread}\n"
        "\n"
        "See docs/ARCHITECTURE.md for the layer map and the invariants,\n"
        "benchmarks/ for the regeneration harness (benchmarks/README.md\n"
        "documents the tracked BENCH_engine.json / BENCH_history.jsonl)."
    )
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    from .core import (
        QuantumOnlineRecognizer,
        BlockwiseClassicalRecognizer,
        in_ldisj,
    )
    from .core.quantum_recognizer import exact_acceptance_probability
    from .streaming import run_online

    word = _word_or_usage(args, "recognize")
    if word is None:
        return 2
    print(f"|w| = {len(word)}; in L_DISJ: {in_ldisj(word)}")
    q = run_online(QuantumOnlineRecognizer(rng=args.seed), word)
    print(
        f"quantum  : accepted={q.accepted}  "
        f"{q.space.classical_bits} bits + {q.space.qubits} qubits"
    )
    try:
        print(f"           exact Pr[accept] = {exact_acceptance_probability(word):.6f}")
    except ValueError as exc:
        print(f"           exact analysis unavailable: {exc}")
    c = run_online(BlockwiseClassicalRecognizer(rng=args.seed), word)
    print(f"classical: accepted={c.accepted}  {c.space.classical_bits} bits")
    return 0


def _add_word_args(parser: argparse.ArgumentParser) -> None:
    """The word-generation options shared by ``recognize`` and ``sample``
    (consumed by :func:`_make_word`; ``--seed`` also seeds the trials)."""
    parser.add_argument("--word", help="explicit word over {0,1,#}")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--t", type=int, default=2, help="intersection size")
    parser.add_argument(
        "--kind",
        default="member",
        help="member | intersecting | one of the malformed kinds",
    )
    parser.add_argument("--seed", type=int, default=0)


def _make_word(args: argparse.Namespace) -> str:
    from .core import intersecting_nonmember, malformed_nonmember, member

    if getattr(args, "word", None):
        return args.word
    if args.kind == "member":
        return member(args.k, np.random.default_rng(args.seed))
    if args.kind == "intersecting":
        return intersecting_nonmember(args.k, args.t, np.random.default_rng(args.seed))
    return malformed_nonmember(args.k, args.kind, np.random.default_rng(args.seed))


def _word_or_usage(args: argparse.Namespace, command: str) -> Optional[str]:
    """:func:`_make_word`, or ``None`` after reporting on stderr why the
    word options (``--k``, ``--t``, ``--kind``) name no word."""
    try:
        return _make_word(args)
    except (ValueError, ReproError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _backend_arg(text: str) -> str:
    """``--backend`` values: one of :data:`repro.engine.api.BACKENDS`."""
    from .engine import validate_backend

    try:
        return validate_backend(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write this command's hierarchical span tree to FILE as "
        "JSONL (forces full trace mode for the run; see "
        "docs/OBSERVABILITY.md)",
    )


def _cmd_sample(args: argparse.Namespace) -> int:
    from .engine import ExecutionEngine
    from .core import in_ldisj

    if args.trials <= 0:
        print("sample: --trials must be positive", file=sys.stderr)
        return 2
    word = _word_or_usage(args, "sample")
    if word is None:
        return 2
    engine = ExecutionEngine(args.backend)
    est = engine.estimate_acceptance(
        word, args.trials, rng=args.seed, recognizer=args.recognizer
    )
    print(f"|w| = {len(word)}; in L_DISJ: {in_ldisj(word)}")
    _print_estimate_stats(est)
    print(f"throughput: {est.trials_per_second:,.0f} trials/s ({est.elapsed_s:.3f} s)")
    return 0


def _lab_spec(args: argparse.Namespace):
    """Build an :class:`ExperimentSpec` from the shared word options."""
    from .lab import ExperimentSpec

    return ExperimentSpec(
        family="member" if args.word else args.kind,
        k=args.k,
        t=args.t,
        word=args.word,
        word_seed=args.seed,
        recognizer=args.recognizer,
        backend=args.backend,
        trials=args.trials,
        seed=args.seed,
    )


def _print_estimate_stats(est) -> None:
    print(
        f"backend={est.backend}  recognizer={est.recognizer}  trials={est.trials}  "
        f"accepted={est.accepted}  Pr[accept] ~= {est.probability:.4f}"
    )
    lo, hi = est.wilson95
    print(f"stderr = {est.stderr:.4f}; Wilson 95% CI [{lo:.4f}, {hi:.4f}]")


def _open_store(args: argparse.Namespace, command: str):
    """The ``--store`` directory as a :class:`ResultStore`, or ``None``
    after reporting an unmigrated flat store on stderr."""
    from .lab import ResultStore, UnmigratedStoreError

    try:
        return ResultStore(args.store)
    except UnmigratedStoreError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _cmd_lab_run(args: argparse.Namespace) -> int:
    from .lab import Orchestrator

    try:
        spec = _lab_spec(args)
        spec.resolve_word()
    except (ValueError, ReproError) as exc:
        print(f"lab run: {exc}", file=sys.stderr)
        return 2
    store = _open_store(args, "lab run")
    if store is None:
        return 2
    result = Orchestrator(store).run(spec)
    print(f"key={result.key[:16]}  {spec.describe()}  store={args.store}")
    print(
        f"source={result.source}  trials_executed={result.trials_executed}  "
        f"base_trials={result.base_trials}"
    )
    _print_estimate_stats(result.estimate)
    return 0


def _cmd_lab_status(args: argparse.Namespace) -> int:
    store = _open_store(args, "lab status")
    if store is None:
        return 2
    status = store.status()
    print(f"store: {store.root}")
    print(
        f"experiments: {status.experiments}  checkpoints: {status.checkpoints}  "
        f"corrupt lines skipped: {status.corrupt_lines}"
    )
    print(f"stored trials (deepest per experiment): {status.stored_trials}")
    print(
        f"shards: {status.shards} ({status.indexed_shards} indexed)  "
        f"source: {status.source}"
    )
    return 0


def _cmd_lab_report(args: argparse.Namespace) -> int:
    from .analysis import Table
    from .lab import ExperimentSpec

    store = _open_store(args, "lab report")
    if store is None:
        return 2
    snapshot = store.scan()
    latest = store.latest_by_key(snapshot.records)
    table = Table(
        f"Lab store report — {store.root}",
        ["key", "experiment", "backend", "trials", "accepted",
         "Pr[accept]", "stderr", "Wilson 95%"],
    )
    from .engine import AcceptanceEstimate

    for key in sorted(latest):
        record = latest[key]
        # ``backend`` is provenance, not identity, and older builds
        # stored names no longer accepted: label the spec without it.
        spec_fields = {f: v for f, v in record.spec.items() if f != "backend"}
        try:
            label = ExperimentSpec.from_dict(spec_fields).describe()
        except (TypeError, ValueError):
            label = "(unreadable spec)"
        est = AcceptanceEstimate(
            word_length=0,
            trials=record.trials,
            accepted=record.accepted,
            backend=record.backend,
            recognizer=record.spec.get("recognizer", "?"),
        )
        lo, hi = est.wilson95
        table.add_row(
            key[:10],
            label,
            record.backend,
            record.trials,
            record.accepted,
            f"{est.probability:.4f}",
            f"{est.stderr:.4f}",
            f"[{lo:.4f}, {hi:.4f}]",
        )
    table.print()
    if snapshot.corrupt_lines:
        print(f"(skipped {snapshot.corrupt_lines} corrupt line(s))")
    return 0


def _cmd_lab_compact(args: argparse.Namespace) -> int:
    from .lab import Orchestrator, ResultStore, UnmigratedStoreError

    if args.ttl_seconds is not None and args.ttl_seconds < 0:
        print("lab compact: --ttl-seconds must be non-negative", file=sys.stderr)
        return 2
    if args.max_keys is not None and args.max_keys < 0:
        print("lab compact: --max-keys must be non-negative", file=sys.stderr)
        return 2
    print(f"store: {args.store}")
    try:
        orchestrator = Orchestrator(args.store)
    except UnmigratedStoreError:
        moved = ResultStore.migrate(args.store)
        print(f"migrated {moved} record(s) from the flat layout into shards")
        orchestrator = Orchestrator(args.store)
    report = orchestrator.maintain(
        ttl_seconds=args.ttl_seconds, max_keys=args.max_keys
    )
    print(
        f"evicted keys: {report.evicted_keys}  "
        f"removed lines: {report.removed_lines}  "
        f"shards: {report.shards} ({report.indexed_shards} indexed)"
    )
    print(
        f"experiments: {report.experiments}  checkpoints: {report.checkpoints}  "
        f"({report.elapsed_s:.3f} s)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import AcceptanceService

    store = _open_store(args, "serve")
    if store is None:
        return 2
    service = AcceptanceService(
        store, host=args.host, port=args.port, workers=args.workers
    )

    async def _serve() -> None:
        host, port = await service.start()
        print(
            f"repro service listening on {host}:{port}  "
            f"store={args.store}  workers={args.workers}",
            flush=True,
        )
        await service.wait_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro service stopped")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    try:
        with client:
            if args.ping:
                info = client.ping()
                print(f"pong from {args.host}:{args.port}  "
                      f"repro {info['version']}  protocol {info['protocol']}")
                return 0
            if args.stats:
                stats = client.stats()
                for field in sorted(stats):
                    print(f"{field} = {stats[field]}")
                return 0
            if args.shutdown_server:
                client.shutdown()
                print(f"service at {args.host}:{args.port} stopping")
                return 0
            try:
                spec = _lab_spec(args)
            except ValueError as exc:
                print(f"query: {exc}", file=sys.stderr)
                return 2
            result = client.query(spec, target_halfwidth=args.target_halfwidth)
    except ServiceError as exc:
        print(f"query: service error ({exc.kind}): {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(
            f"query: cannot reach service at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    coalesced = "yes" if result.coalesced else "no"
    print(f"key={result.key[:16]}  {spec.describe()}  via {args.host}:{args.port}")
    print(
        f"source={result.source}  coalesced={coalesced}  "
        f"trials_executed={result.trials_executed}  base_trials={result.base_trials}"
    )
    print(
        f"backend={result.backend}  recognizer={result.recognizer}  "
        f"trials={result.trials}  accepted={result.accepted}  "
        f"Pr[accept] ~= {result.probability:.4f}"
    )
    lo, hi = result.wilson95
    print(
        f"stderr = {result.stderr:.4f}; Wilson 95% CI [{lo:.4f}, {hi:.4f}] "
        f"(half-width {result.halfwidth:.4f})"
    )
    if result.rounds is not None:
        print(
            f"precision: target half-width {result.target_halfwidth}  "
            f"rounds={result.rounds}"
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    try:
        with client:
            snapshot = client.metrics()
    except ServiceError as exc:
        print(f"metrics: service error ({exc.kind}): {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(
            f"metrics: cannot reach service at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
        return 0
    _print_metrics_tables(snapshot, f"{args.host}:{args.port}")
    return 0


def _print_metrics_tables(snapshot, source: str) -> None:
    """Render a registry snapshot as human tables (shared schema v1)."""
    from .analysis import Table

    print(f"telemetry snapshot v{snapshot.get('version')} from {source}")
    counters = snapshot.get("counters", {})
    if counters:
        table = Table("Counters", ["counter", "value"])
        for key in sorted(counters):
            table.add_row(key, counters[key])
        table.print()
    gauges = snapshot.get("gauges", {})
    if gauges:
        table = Table("Gauges", ["gauge", "value"])
        for key in sorted(gauges):
            table.add_row(key, gauges[key])
        table.print()
    histograms = snapshot.get("histograms", {})
    if histograms:
        table = Table(
            "Histograms", ["histogram", "count", "mean", "p50", "p95"]
        )
        for key in sorted(histograms):
            hist = histograms[key]
            count = hist.get("count", 0)
            mean = hist.get("sum", 0.0) / count if count else None
            table.add_row(
                key,
                count,
                _fmt_seconds(mean),
                _fmt_seconds(hist.get("p50")),
                _fmt_seconds(hist.get("p95")),
            )
        table.print()
    if not (counters or gauges or histograms):
        print("(no metrics recorded yet)")


def _fmt_seconds(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import lint_paths, rule_catalog

    if args.list_rules:
        for rule_id, summary in rule_catalog():
            print(f"{rule_id:<22} {summary}")
        return 0
    try:
        report = lint_paths(
            args.paths, select=args.rule or None, project=args.project
        )
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    elif args.format == "github":
        print(report.render_github())
    else:
        print(report.render_human())
    return report.exit_code


def _cmd_separation(args: argparse.Namespace) -> int:
    from .analysis import Table
    from .core import separation_table

    rows = separation_table(
        list(range(args.k_min, args.k_max + 1)), rng=args.seed
    )
    table = Table(
        "Measured online space for L_DISJ (bits / qubits)",
        ["k", "n", "quantum bits", "qubits", "classical bits", "gap"],
    )
    for r in rows:
        table.add_row(r.k, r.n, r.quantum_classical_bits, r.qubits,
                      r.classical_bits, r.gap)
    table.print()
    return 0


def _cmd_grover(args: argparse.Namespace) -> int:
    from .analysis import Table
    from .mathx.angles import average_success_probability

    n = 1 << (2 * args.k)
    m = 1 << args.k
    table = Table(
        f"BBHT average detection probability, N = {n}, j uniform < {m}",
        ["t", "Pr[detect]", ">= 1/4"],
    )
    step = max(1, n // 16)
    for t in list(range(1, n, step)) + [n]:
        p = average_success_probability(t, n, m)
        table.add_row(t, p, p >= 0.25)
    table.print()
    return 0


def _cmd_comm(args: argparse.Namespace) -> int:
    from .analysis import Table
    from .comm import BCWDisjointnessProtocol

    table = Table(
        "DISJ_n communication: classical n bits vs BCW (worst case)",
        ["k", "n", "classical bits", "BCW qubits", "rounds", "msg qubits"],
    )
    for k in range(1, args.k_max + 1):
        n = 1 << (2 * k)
        cost = BCWDisjointnessProtocol(k).worst_case_cost()
        table.add_row(k, n, n, cost["qubits"], cost["rounds"],
                      cost["qubits_per_message"])
    table.print()
    return 0


def _cmd_qfa(args: argparse.Namespace) -> int:
    from .analysis import Table
    from .qfa import af_qfa_for_mod_language, minimize_dfa, mod_dfa

    table = Table(
        "States for L_p = {a^i : p | i} (footnote 2)",
        ["p", "DFA states", "QFA states"],
    )
    rng = np.random.default_rng(args.seed)
    for p in args.primes:
        qfa, _ = af_qfa_for_mod_language(p, rng=rng)
        table.add_row(p, minimize_dfa(mod_dfa(p)).size, qfa.size)
    table.print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Le Gall (SPAA 2006) online space complexity reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="paper and library summary").set_defaults(
        func=_cmd_info
    )

    rec = sub.add_parser("recognize", help="run the recognizers on a word")
    _add_word_args(rec)
    rec.set_defaults(func=_cmd_recognize)

    samp = sub.add_parser(
        "sample", help="sampled acceptance probability via the execution engine"
    )
    _add_word_args(samp)
    samp.add_argument("--trials", type=int, default=1000)
    samp.add_argument(
        "--backend",
        default="batched",
        type=_backend_arg,
        help="execution backend (batched | sequential)",
    )
    samp.add_argument(
        "--recognizer",
        default="quantum",
        choices=["quantum", "classical-blockwise", "classical-full"],
        help="which machine to sample (Theorem 3.4, Prop. 3.7, or the "
        "full-storage baseline)",
    )
    _add_trace_arg(samp)
    samp.set_defaults(func=_cmd_sample)

    lint = sub.add_parser(
        "lint",
        help="check the repo's determinism/resource invariants "
        "(AST rules; see docs/LINT_RULES.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule (repeatable; default: all registered)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (schema versioned; CI archives it)",
    )
    lint.add_argument(
        "--project",
        action="store_true",
        help="also run the whole-program rules (cross-module call-graph "
        "and dataflow analysis: seed-flow, async-blocking, "
        "lock-discipline)",
    )
    lint.add_argument(
        "--format",
        choices=("human", "github"),
        default="human",
        help="human lines (default) or GitHub workflow annotations "
        "(::error file=...) that surface inline on PRs",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    sep = sub.add_parser("separation", help="the headline space table")
    sep.add_argument("--k-min", type=int, default=1)
    sep.add_argument("--k-max", type=int, default=4)
    sep.add_argument("--seed", type=int, default=0)
    sep.set_defaults(func=_cmd_separation)

    gro = sub.add_parser("grover", help="BBHT success probabilities")
    gro.add_argument("--k", type=int, default=3)
    gro.set_defaults(func=_cmd_grover)

    comm = sub.add_parser("comm", help="communication costs for DISJ")
    comm.add_argument("--k-max", type=int, default=7)
    comm.set_defaults(func=_cmd_comm)

    qfa = sub.add_parser("qfa", help="footnote-2 automata table")
    qfa.add_argument("--primes", type=int, nargs="+", default=[5, 13, 31, 61])
    qfa.add_argument("--seed", type=int, default=0)
    qfa.set_defaults(func=_cmd_qfa)

    import os

    lab = sub.add_parser(
        "lab", help="persistent experiment store with seed-exact deepening"
    )
    labsub = lab.add_subparsers(dest="lab_command", required=True)
    store_default = os.environ.get("REPRO_LAB_STORE", ".repro-lab")

    run = labsub.add_parser(
        "run", help="run a spec through the store (cache / deepen / fresh)"
    )
    _add_word_args(run)
    run.add_argument("--trials", type=int, default=1000)
    run.add_argument(
        "--backend",
        default="batched",
        type=_backend_arg,
        help="execution backend (does not affect counts or cache keys)",
    )
    run.add_argument(
        "--recognizer",
        default="quantum",
        choices=["quantum", "classical-blockwise", "classical-full"],
        help="which machine to sample",
    )
    run.add_argument("--store", default=store_default,
                     help="store directory (env REPRO_LAB_STORE)")
    _add_trace_arg(run)
    run.set_defaults(func=_cmd_lab_run)

    # Mirrors repro.service.protocol.DEFAULT_PORT; kept literal so the
    # parser never imports the service package (every other heavy
    # dependency here is deferred into its _cmd_* handler too).  A
    # tests/service/ check asserts the two stay in sync.
    DEFAULT_PORT = 7906

    serve = sub.add_parser(
        "serve", help="run the acceptance service (long-lived daemon)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (0 = OS-assigned; default {DEFAULT_PORT})")
    serve.add_argument("--store", default=store_default,
                       help="store directory (env REPRO_LAB_STORE)")
    serve.add_argument("--workers", type=int, default=2,
                       help="engine worker pool size (concurrent engine runs)")
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query", help="query a running acceptance service"
    )
    _add_word_args(query)
    query.add_argument("--trials", type=int, default=1000)
    query.add_argument(
        "--backend",
        default="batched",
        type=_backend_arg,
        help="execution backend for any trials the service must run",
    )
    query.add_argument(
        "--recognizer",
        default="quantum",
        choices=["quantum", "classical-blockwise", "classical-full"],
        help="which machine to sample",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=DEFAULT_PORT)
    query.add_argument("--timeout", type=float, default=600.0,
                       help="seconds to wait for the response")
    query.add_argument(
        "--target-halfwidth",
        type=float,
        default=None,
        metavar="H",
        help="precision mode: deepen seed-exactly until the Wilson 95%% "
        "half-width is at most H",
    )
    query.add_argument("--stats", action="store_true",
                       help="print the service's counters and exit")
    query.add_argument("--ping", action="store_true",
                       help="liveness check and exit")
    query.add_argument("--shutdown-server", action="store_true",
                       help="ask the service to stop and exit")
    _add_trace_arg(query)
    query.set_defaults(func=_cmd_query)

    metrics = sub.add_parser(
        "metrics",
        help="fetch a running service's telemetry snapshot "
        "(counters, gauges, latency histograms)",
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=DEFAULT_PORT)
    metrics.add_argument("--timeout", type=float, default=30.0,
                         help="seconds to wait for the response")
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the raw versioned snapshot document instead of tables",
    )
    metrics.set_defaults(func=_cmd_metrics)

    status = labsub.add_parser("status", help="store summary")
    status.add_argument("--store", default=store_default,
                        help="store directory (env REPRO_LAB_STORE)")
    status.set_defaults(func=_cmd_lab_status)

    report = labsub.add_parser(
        "report", help="per-experiment table with stderr and Wilson 95% CI"
    )
    report.add_argument("--store", default=store_default,
                        help="store directory (env REPRO_LAB_STORE)")
    report.set_defaults(func=_cmd_lab_report)

    compact = labsub.add_parser(
        "compact",
        help="migrate a flat store, evict per policy, compact shards, "
        "rebuild indexes",
    )
    compact.add_argument("--store", default=store_default,
                         help="store directory (env REPRO_LAB_STORE)")
    compact.add_argument(
        "--ttl-seconds", type=float, default=None,
        help="evict keys whose deepest rung is older than this (default: no TTL)",
    )
    compact.add_argument(
        "--max-keys", type=int, default=None,
        help="evict oldest keys beyond this count (default: no cap)",
    )
    compact.set_defaults(func=_cmd_lab_compact)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)
    # --trace: run the command inside a full-mode trace session so its
    # span tree (engine.run -> engine.backend.count, lab.run -> store
    # timings, ...) lands in trace_path as JSONL.  Tracing never feeds
    # back into execution, so the command's output is unchanged.
    from .obs import TraceSession

    with TraceSession("full") as session:
        code = args.func(args)
    spans = session.write_jsonl(trace_path)
    print(f"trace: {spans} span(s) -> {trace_path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
