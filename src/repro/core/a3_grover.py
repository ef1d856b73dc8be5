"""Procedure A3: the streamed Grover search on the quantum register.

A3 holds a (2k + 2)-qubit register laid out as |i>|h>|l> and evolves it
*as the input streams past* — the crucial point being that every
operator the paper uses factorizes over input bits:

* ``V_x``  — for each bit x_i = 1, swap the h = 0 / h = 1 amplitudes at
  index i (an O(1) update applied the moment x_i is read);
* ``W_y``  — for each y_i = 1, negate the amplitudes at index i, h = 1;
* ``R_y``  — for each y_i = 1, swap l at index i, h = 1;
* ``U_k S_k U_k`` — the Grover diffusion, applied once per repetition
  at the close of each z block (no input bits needed).

The iteration count j is drawn uniformly from {0, ..., 2^k - 1} up
front (BBHT); repetitions 1..j run full Grover iterations, repetition
j + 1 applies ``V_x`` then ``R_y``, and later repetitions are ignored.
At the end the l qubit is measured: b = 1 reveals an intersection and
A3 outputs 1 - b.

Space: the 2k + 2 qubits (reported as ``A3Registers.total_qubits``)
plus O(k) classical bits (j and the parser's counters).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..quantum.operators import SkOperator, UkOperator, initial_phi
from ..quantum.registers import A3Registers
from ..streaming.algorithm import OnlineAlgorithm
from .structure import BlockStreamParser, block_type, round_index


class A3GroverProcedure(OnlineAlgorithm):
    """One-sided online Grover check (assumes conditions (i)-(iii)).

    On inputs satisfying conditions (i)-(iii): outputs 1 with
    probability 1 if x and y are disjoint, and 0 with probability
    >= 1/4 otherwise (Theorem 3.4's analysis).  Gated behind A1/A2 by
    the recognizer; on other inputs the output is unspecified but the
    procedure never crashes.

    Parameters
    ----------
    forced_j:
        Override the random iteration count (ablation A-j and exact
        per-j analysis).  ``None`` draws uniformly at header time.
    """

    def __init__(self, budget_bits=None, rng=None, forced_j: Optional[int] = None) -> None:
        super().__init__("A3-grover", rng=rng, budget_bits=budget_bits)
        self.parser = BlockStreamParser(self.workspace, prefix="a3")
        self.parser.subscribe(self)
        self.forced_j = forced_j
        self.regs: Optional[A3Registers] = None
        self.state: Optional[np.ndarray] = None
        self._uk: Optional[UkOperator] = None
        self._sk: Optional[SkOperator] = None
        self._final_detection: Optional[float] = None

    # -- parser callbacks ---------------------------------------------------

    def on_header(self, k: int) -> None:
        self.regs = A3Registers(k)
        self.state = initial_phi(self.regs)
        self._uk = UkOperator(self.regs)
        self._sk = SkOperator(self.regs)
        ws = self.workspace
        ws.alloc("a3.j", max(1, k))
        if self.forced_j is None:
            j = int(self.rng.integers(0, 1 << k))
        else:
            if not 0 <= self.forced_j < (1 << k):
                raise ValueError(f"forced_j must lie in [0, 2^{k})")
            j = self.forced_j
        ws.set("a3.j", j)

    def on_block_bit(self, block: int, position: int, bit: int) -> None:
        if not bit or self.state is None:
            return
        j = self.workspace.get("a3.j")
        r = round_index(block)
        typ = block_type(block)
        regs = self.regs
        base = position
        p10 = base + regs.h_bit
        p11 = base + regs.h_bit + regs.l_bit
        vec = self.state
        if r < j:
            if typ in ("x", "z"):
                # V: swap h at this index (both l sectors).
                p00, p01 = base, base + regs.l_bit
                vec[p00], vec[p10] = vec[p10], vec[p00]
                vec[p01], vec[p11] = vec[p11], vec[p01]
            else:
                # W: phase -1 where h = 1.
                vec[p10] = -vec[p10]
                vec[p11] = -vec[p11]
        elif r == j:
            if typ == "x":
                p00, p01 = base, base + regs.l_bit
                vec[p00], vec[p10] = vec[p10], vec[p00]
                vec[p01], vec[p11] = vec[p11], vec[p01]
            elif typ == "y":
                # R: l ^= h (at this index).
                vec[p10], vec[p11] = vec[p11], vec[p10]
            # typ == 'z' in repetition j + 1: no gate.
        # r > j: the register is parked; nothing is applied.

    def on_block_end(self, block: int) -> None:
        if self.state is None:
            return
        j = self.workspace.get("a3.j")
        if block_type(block) == "z" and round_index(block) < j:
            # Close of a full Grover iteration: diffusion U_k S_k U_k.
            vec = self._uk.apply(self.state)
            vec = self._sk.apply(vec)
            self.state = self._uk.apply(vec)

    # -- algorithm contract ----------------------------------------------------

    def feed(self, symbol: str) -> None:
        self.parser.feed(symbol)

    def finish(self) -> int:
        self.parser.finish()
        if self.state is None:
            return 1  # no header: gated by A1
        from ..quantum.grover import marked_probability

        p_detect = marked_probability(self.state, self.regs)
        self._final_detection = p_detect
        b = 1 if self.rng.random() < p_detect else 0
        return 1 - b

    # -- analysis hooks ---------------------------------------------------------

    @property
    def detection_probability(self) -> Optional[float]:
        """Exact Pr[b = 1] of the run's final measurement (after finish)."""
        return self._final_detection

    @property
    def qubits_used(self) -> int:
        return self.regs.total_qubits if self.regs is not None else 0
