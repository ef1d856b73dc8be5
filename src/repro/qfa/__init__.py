"""Quantum finite automata: the footnote-2 companion separation.

The paper notes (footnote 2) that in the automata world, Ambainis and
Freivalds showed quantum automata can recognize some languages with
exponentially fewer states than any classical automaton.  This package
reproduces that companion result for the canonical witness language

    L_p = { a^i : i is divisible by p }   (p prime):

* any DFA needs exactly p states (Myhill-Nerode, computed exactly);
* a measure-once QFA built from O(log p) two-dimensional rotation
  blocks recognizes L_p with bounded error.

Modules
-------
* :mod:`repro.qfa.dfa` — DFAs, partition-refinement minimization,
  unary Myhill-Nerode index.
* :mod:`repro.qfa.mo1qfa` — measure-once quantum automata.
* :mod:`repro.qfa.ambainis_freivalds` — the O(log p)-state construction.
"""

from .dfa import DFA, mod_dfa, minimize_dfa, unary_myhill_nerode_index
from .mo1qfa import MO1QFA
from .ambainis_freivalds import (
    rotation_qfa,
    find_multipliers,
    af_qfa_for_mod_language,
    worst_nonmember_acceptance,
)

__all__ = [
    "DFA",
    "mod_dfa",
    "minimize_dfa",
    "unary_myhill_nerode_index",
    "MO1QFA",
    "rotation_qfa",
    "find_multipliers",
    "af_qfa_for_mod_language",
    "worst_nonmember_acceptance",
]
