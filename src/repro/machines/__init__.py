"""Online probabilistic Turing machines (Definition 2.1 of the paper).

This package is the *formal* substrate: explicit transition-table
machines with a one-way input tape, a read-write work tape, exact
rational transition probabilities, and optional write-only output tape
(used by Definition 2.3 machines to emit quantum-circuit descriptions).

Modules
-------
* :mod:`repro.machines.tape` — semi-infinite work tape with space metering.
* :mod:`repro.machines.transition` — probabilistic transition tables.
* :mod:`repro.machines.configuration` — configurations and the Fact 2.2
  counting bound.
* :mod:`repro.machines.optm` — the machine simulator (sampled runs, the
  literal Definition 2.1 semantics the exact distributions are tested
  against).
* :mod:`repro.machines.distributions` — exact configuration-distribution
  propagation (used for exact acceptance probabilities and the
  Theorem 3.6 reduction).
* :mod:`repro.machines.builders` — concrete machines: parity, mod-p
  counters, copy, a full disjointness checker, and a fair-coin machine.
"""

from .tape import WorkTape, BLANK, END_OF_INPUT
from .transition import Action, TransitionTable, Move
from .configuration import Configuration, fact_2_2_bound
from .optm import OPTM, RunOutcome
from .distributions import (
    ConfigurationDistribution,
    propagate,
    acceptance_probability,
    segment_kernel,
    reachable_configurations,
)
from .builders import (
    parity_machine,
    mod_counter_machine,
    copy_machine,
    coin_machine,
    disjointness_machine,
)

__all__ = [
    "WorkTape",
    "BLANK",
    "END_OF_INPUT",
    "Action",
    "TransitionTable",
    "Move",
    "Configuration",
    "fact_2_2_bound",
    "OPTM",
    "RunOutcome",
    "ConfigurationDistribution",
    "propagate",
    "acceptance_probability",
    "segment_kernel",
    "reachable_configurations",
    "parity_machine",
    "mod_counter_machine",
    "copy_machine",
    "coin_machine",
    "disjointness_machine",
]
