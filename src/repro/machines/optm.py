"""The online probabilistic Turing machine simulator.

Runs are sampled step by step with an explicit RNG; exact acceptance
probabilities come from :mod:`repro.machines.distributions`.  A machine
halts when it enters an accepting/rejecting state or reaches a key with
no transition (an implicit reject, one of the paper's two rejection
modes; the other — running forever — is modelled by a step budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

import numpy as np

from ..alphabet import validate_word
from ..errors import MachineError
from ..rng import ensure_rng
from .configuration import Configuration
from .tape import BLANK, END_OF_INPUT, WorkTape
from .transition import Move, TransitionTable


@dataclass(frozen=True)
class RunOutcome:
    """Result of one sampled run."""

    accepted: bool
    halted: bool
    steps: int
    cells_used: int
    final_state: str
    output: str = ""

    @property
    def rejected(self) -> bool:
        """True when the run did not accept (including non-halting runs)."""
        return not self.accepted


@dataclass
class OPTM:
    """An online probabilistic Turing machine (Definition 2.1).

    Parameters
    ----------
    name: label for reports.
    transitions: the probabilistic transition table.
    initial_state: control state at time 0.
    accept_states: entering any of these halts and accepts.
    reject_states: entering any of these halts and rejects (a machine may
        also reject by having no applicable transition, or by running
        forever — both are supported).
    """

    name: str
    transitions: TransitionTable
    initial_state: str
    accept_states: Set[str]
    reject_states: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.transitions.validate()
        overlap = self.accept_states & self.reject_states
        if overlap:
            raise MachineError(f"states both accepting and rejecting: {overlap}")

    # -- structural quantities (Fact 2.2 ingredients) ------------------------

    def state_count(self) -> int:
        states = self.transitions.states()
        states.add(self.initial_state)
        states |= self.accept_states | self.reject_states
        return len(states)

    def work_alphabet_size(self) -> int:
        symbols = self.transitions.work_alphabet()
        symbols.add(BLANK)
        return len(symbols)

    # -- configuration plumbing ---------------------------------------------

    def initial_configuration(self) -> Configuration:
        return Configuration(
            state=self.initial_state, input_pos=0, work_head=0, work=()
        )

    def is_halting_state(self, state: str) -> bool:
        return state in self.accept_states or state in self.reject_states

    def input_symbol_at(self, word: str, pos: int) -> str:
        return word[pos] if pos < len(word) else END_OF_INPUT

    # -- sampled execution ------------------------------------------------

    def run(
        self,
        word: str,
        rng=None,
        max_steps: int = 100_000,
    ) -> RunOutcome:
        """Sample one run of the machine on *word*.

        ``max_steps`` bounds the run; exceeding it reports a non-halting
        (rejecting) outcome, the paper's second rejection mode.
        """
        validate_word(word)
        gen: np.random.Generator = ensure_rng(rng)
        state = self.initial_state
        input_pos = 0
        tape = WorkTape()
        output: list[str] = []
        steps = 0
        while steps < max_steps:
            if self.is_halting_state(state):
                return RunOutcome(
                    accepted=state in self.accept_states,
                    halted=True,
                    steps=steps,
                    cells_used=tape.cells_used,
                    final_state=state,
                    output="".join(output),
                )
            in_sym = self.input_symbol_at(word, input_pos)
            branches = self.transitions.branches(state, in_sym, tape.read())
            if not branches:
                # No applicable rule: halt in a non-accepting way.
                return RunOutcome(
                    accepted=False,
                    halted=True,
                    steps=steps,
                    cells_used=tape.cells_used,
                    final_state=state,
                    output="".join(output),
                )
            action = self._sample_branch(branches, gen)
            tape.write(action.write)
            tape.move(int(action.work_move))
            if action.input_move == Move.RIGHT and input_pos <= len(word):
                input_pos += 1
            if action.emit is not None:
                output.append(action.emit)
            state = action.state
            steps += 1
        return RunOutcome(
            accepted=False,
            halted=False,
            steps=steps,
            cells_used=tape.cells_used,
            final_state=state,
            output="".join(output),
        )

    @staticmethod
    def _sample_branch(branches, gen: np.random.Generator):
        if len(branches) == 1:
            return branches[0][1]
        u = gen.random()
        acc = 0.0
        for prob, action in branches:
            acc += float(prob)
            if u < acc:
                return action
        return branches[-1][1]

    # -- convenience ---------------------------------------------------------

    def sample_acceptance(
        self,
        word: str,
        trials: int,
        rng=None,
        max_steps: int = 100_000,
    ) -> float:
        """Empirical acceptance frequency over independent sampled runs."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        gen = ensure_rng(rng)
        hits = sum(
            1 for _ in range(trials) if self.run(word, gen, max_steps).accepted
        )
        return hits / trials
