"""The benchmark's own launcher for the acceptance service.

Runs one :class:`repro.service.AcceptanceService` in this process, as
``repro serve`` does, and prints ``READY <port>`` once it listens.  With
``--trace 1`` it first wraps the engine, core, quantum, lab and service
layers (see :mod:`tracer`), runs the event loop with executor calls that
carry the caller's context (so a worker thread's spans have the request
as their parent), and when the service stops it restores every wrapper
and writes the spans it kept in memory.  Either way it writes its own
peak resident set size to the ``--out`` status file on exit.

    python3 perfbench/server.py --store DIR --out STATUS.json [--trace 1]
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install_layers, write_spans  # noqa: E402


class ContextLoop(asyncio.SelectorEventLoop):
    """An event loop whose executor calls run in the caller's context."""

    def run_in_executor(self, executor, func, *args):  # type: ignore[override]
        return super().run_in_executor(
            executor, contextvars.copy_context().run, func, *args
        )


#: ``work`` codes of a ``service.op`` span: what the request turned out to be.
OP_OTHER, OP_READ, OP_WRITE, OP_METRICS = 0.0, 1.0, 2.0, 3.0


def _op_kind(args: tuple, kwargs: dict, result) -> float:
    if not result:
        return OP_OTHER
    payload = result[0].get("result") or {}
    if "source" in payload:
        return OP_READ if payload["source"] == "cache" else OP_WRITE
    return OP_METRICS if "counters" in payload else OP_OTHER


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the lab and service boundaries a query crosses."""
    from repro.lab import orchestrator, spec, store
    from repro.service import server

    install_layers(tracer)
    tracer.wrap(server, "decode_line", "service.decode")
    tracer.wrap(server, "encode_message", "service.encode")
    tracer.wrap(spec.ExperimentSpec, "from_dict", "service.spec")
    tracer.wrap(spec.ExperimentSpec, "key", "lab.spec.key")
    tracer.wrap(store.ResultStore, "deepest", "lab.store.deepest")
    tracer.wrap(store.ResultStore, "checkpoints", "lab.store.checkpoints")
    tracer.wrap(store.ResultStore, "append", "lab.store.append")
    tracer.wrap(orchestrator.Orchestrator, "run", "lab.run")
    # The service exposes per-op time only as an aggregate histogram;
    # the per-request span comes from the method that feeds it.
    tracer.wrap_async(server.AcceptanceService, "_respond", "service.op", _op_kind)


def exit_with_parent() -> None:
    """Exit if the benchmark that started this process goes away."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(3)

    threading.Thread(target=watch, name="perfbench-parent-watch", daemon=True).start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True, help="status file written on exit")
    parser.add_argument("--spans", help="span file written on exit (traced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    exit_with_parent()

    from repro.service import AcceptanceService

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_service_layers(tracer)
    service = AcceptanceService(args.store, port=0)

    async def serve() -> None:
        _host, port = await service.start()
        print(f"READY {port}", flush=True)
        await service.wait_stopped()

    loop = ContextLoop() if tracer is not None else asyncio.new_event_loop()
    try:
        loop.run_until_complete(serve())
    finally:
        loop.close()
        if tracer is not None:
            tracer.restore()
            write_spans(args.spans, tracer.take())
        status = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        Path(args.out).write_text(json.dumps(status), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
