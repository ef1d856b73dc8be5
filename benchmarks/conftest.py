"""Benchmark-suite plumbing: result capture shared by every experiment.

Each ``bench_e*.py`` regenerates one paper experiment (E1–E13, listed
in ``benchmarks/README.md``): it prints the paper-style table AND
writes it to ``benchmarks/results/<experiment>.txt``, so any quoted
experiment data is produced by exactly this code.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Save (and echo) a rendered analysis Table under a stable name."""

    def save(table, name: str) -> None:
        text = table.render()
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return save
