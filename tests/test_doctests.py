"""Execute the public reference docstrings' ``>>>`` examples.

The curated modules below form the documented API surface
(docs/ARCHITECTURE.md points into them); their examples are living
documentation and must keep running.  CI additionally runs ``pytest
--doctest-modules`` over the same list, so a failure here and there is
the same failure — this copy makes it part of the tier-1 suite.
"""

import doctest
import importlib

import pytest

#: The documented public surface.  Additions welcome; removals mean a
#: public module lost its examples — don't.
CURATED_MODULES = (
    "repro.engine.api",
    "repro.analysis.bounds",
    "repro.analysis.sweep",
    "repro.lab.spec",
    "repro.lab.orchestrator",
    "repro.service.protocol",
    "repro.service.server",
    "repro.obs.spans",
    "repro.obs.metrics",
)


@pytest.mark.parametrize("module_name", CURATED_MODULES)
def test_public_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failure(s)"
    # A curated module with zero examples is a documentation regression.
    assert results.attempted > 0, f"{module_name} carries no runnable examples"
