"""The repository benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics (no wrappers anywhere);
``--trace 1`` is the separate traced run that reports per-layer metrics.
Before set-up the run computes golden counts from the seed with the
oracle in ``oracle.py``; every timed operation is checked against them.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 1 when any operation failed or was wrong.  Run from
the repository root; see ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for stores, server status files and span files.
WORKDIR = ROOT / ".perfbench"
#: Set-up is repeated in this many fresh processes; setup_s is the median,
#: at nominal host speed (``calibrate.py``).
SETUP_PROBES = 7

# One BLAS/OpenMP thread everywhere: the box is shared, and the program
# (and the service process, which inherits this environment) must not
# size its own thread pools from the core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_TRACE", None)  # the program's own spans stay off
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from calibrate import at_nominal, reference_seconds  # noqa: E402


def make_workload(name: str, seed: int, workdir: Path):
    if name == "service-mixed":
        from mixed import MixedWorkload

        return MixedWorkload(seed, workdir)
    from sampling import SamplingWorkload

    return SamplingWorkload(name, seed)


def setup_probe(name: str, seed: int) -> float:
    """Set-up once in a fresh interpreter, as a run would; returns seconds."""
    workdir = WORKDIR / f"probe-{os.getpid()}"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--setup-probe", str(workdir),
    ]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(name: str, seed: int) -> float:
    """``setup_s``: the median of ``SETUP_PROBES`` set-ups at nominal host speed.

    A set-up is shorter than the host's speed swings, so the loops right
    around one probe say little about it: the median probe is scaled by
    the median of the reference loops run between all probes instead.
    """
    loop = workloads.SETUP_REFERENCE_LOOP
    reference_seconds(loop)  # warm-up; its time is not used
    references = [reference_seconds(loop)]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(setup_probe(name, seed))
        references.append(reference_seconds(loop))
    return at_nominal(median(probes), median(references), loop)


def probe_main(name: str, seed: int, workdir: Path) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, workdir)
    if name == "service-mixed":
        workload.compute_goldens()  # store seeding is checked against them
    elapsed = workload.setup()
    if name == "service-mixed":
        workload.server.stop()
    print(repr(elapsed))
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_main(args.workload, args.seed, Path(args.setup_probe))

    workdir = WORKDIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = make_workload(args.workload, args.seed, workdir)
    tally: Dict[str, int] = {"attempted": 0, "failed": 0}
    try:
        workload.compute_goldens()
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        workload.setup()
        if args.trace:
            spans_path = str(WORKDIR / f"spans-{args.workload}.jsonl")
            values = workload.traced(args.seconds, tally, spans_path)
            catalog = metrics.PER_LAYER
        else:
            values = workload.timed(args.seconds, tally)
            values["setup_s"] = setup_s
            values.setdefault(
                "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            catalog = metrics.END_TO_END
    finally:
        server = getattr(workload, "server", None)
        if server is not None:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally["failed"] == 0 and tally["attempted"] > 0
    doc = metrics.document(values, catalog)
    for name, entry in doc.items():
        print(f"{args.workload:>15}  {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    error_frac = tally["failed"] / max(tally["attempted"], 1)
    print(f"{args.workload:>15}  {'error_frac':<30} {error_frac:>14.6g} fraction")
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": doc,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
