"""Shared online parser for the Definition 3.3 word shape.

Words of interest look like ``1^k # (B_0 # B_1 # ... # B_{3*2^k - 1} #)``
with every block ``B_j`` in ``{0,1}^{2^{2k}}`` — that is condition (i)
in the proof of Theorem 3.4.  Procedures A1, A2 and A3 all need to
track this structure online; this parser does it once, in O(log n)
metered bits, and drives subscriber callbacks:

* ``on_header(k)`` — fired when ``1^k#`` has been read;
* ``on_block_bit(block_index, position, bit)`` — per data bit;
* ``on_block_end(block_index)`` — fired at each block's closing '#';
* ``on_malformed()`` — fired once, at the first structural violation.

The parser's own registers: the growing k counter, the block-position
counter (2k + 1 bits), the block-index counter (k + 2 bits) and a
2-bit phase — all O(k) = O(log n).
"""

from __future__ import annotations

from typing import List

from ..streaming.workspace import GrowingCounter, Workspace

#: Parser phases (stored in a 2-bit register).
_PHASE_HEADER = 0
_PHASE_BLOCKS = 1
_PHASE_DONE = 2
_PHASE_BAD = 3


class BlockStreamParser:
    """One-pass, O(log n)-space parser for the 1^k#(B#)^{3*2^k} shape.

    Parameters
    ----------
    workspace:
        Registers are allocated here (namespaced by *prefix*) so the
        owning algorithm's space report includes the parser.
    """

    def __init__(self, workspace: Workspace, prefix: str = "parse") -> None:
        self.workspace = workspace
        self.prefix = prefix
        self.subscribers: List[object] = []
        self._k = GrowingCounter(workspace, f"{prefix}.k")
        workspace.alloc(f"{prefix}.phase", 2)
        workspace.set(f"{prefix}.phase", _PHASE_HEADER)
        # Block counters are allocated at header time, once k is known.
        self._counters_ready = False

    # -- subscriber plumbing ------------------------------------------------

    def subscribe(self, subscriber: object) -> None:
        self.subscribers.append(subscriber)

    def _fire(self, method: str, *args) -> None:
        for sub in self.subscribers:
            handler = getattr(sub, method, None)
            if handler is not None:
                handler(*args)

    # -- accessors ------------------------------------------------------------

    @property
    def k(self) -> int:
        return self._k.value

    @property
    def phase(self) -> int:
        return self.workspace.get(f"{self.prefix}.phase")

    @property
    def well_formed(self) -> bool:
        """True iff the stream seen so far completed as a valid word."""
        return self.phase == _PHASE_DONE

    @property
    def block_length(self) -> int:
        """N = 2^{2k} (valid after the header)."""
        return 1 << (2 * self.k)

    @property
    def total_blocks(self) -> int:
        """3 * 2^k (valid after the header)."""
        return 3 * (1 << self.k)

    # -- the parse ------------------------------------------------------------

    def _go_bad(self) -> None:
        if self.phase != _PHASE_BAD:
            self.workspace.set(f"{self.prefix}.phase", _PHASE_BAD)
            self._fire("on_malformed")

    def _begin_blocks(self) -> None:
        k = self.k
        self.workspace.alloc_counter(f"{self.prefix}.pos", self.block_length)
        self.workspace.alloc_counter(f"{self.prefix}.block", self.total_blocks)
        self._counters_ready = True
        self.workspace.set(f"{self.prefix}.phase", _PHASE_BLOCKS)
        self._fire("on_header", k)

    def feed(self, symbol: str) -> None:
        phase = self.phase
        if phase == _PHASE_BAD:
            return
        if phase == _PHASE_HEADER:
            if symbol == "1":
                self._k.increment()
            elif symbol == "#" and self.k >= 1:
                self._begin_blocks()
            else:
                self._go_bad()
            return
        if phase == _PHASE_DONE:
            self._go_bad()  # trailing garbage
            return
        # phase == _PHASE_BLOCKS
        pos_reg = f"{self.prefix}.pos"
        block_reg = f"{self.prefix}.block"
        pos = self.workspace.get(pos_reg)
        block = self.workspace.get(block_reg)
        if symbol in ("0", "1"):
            if pos >= self.block_length:
                self._go_bad()  # block too long
                return
            self._fire("on_block_bit", block, pos, 1 if symbol == "1" else 0)
            self.workspace.set(pos_reg, pos + 1)
            return
        # symbol == '#'
        if pos != self.block_length:
            self._go_bad()  # block too short
            return
        self._fire("on_block_end", block)
        self.workspace.set(pos_reg, 0)
        if block + 1 == self.total_blocks:
            self.workspace.set(f"{self.prefix}.phase", _PHASE_DONE)
        else:
            self.workspace.set(block_reg, block + 1)

    def finish(self) -> bool:
        """End of stream: the word was well-formed iff all blocks closed."""
        if self.phase != _PHASE_DONE:
            self._go_bad()
            return False
        return True


def block_type(block_index: int) -> str:
    """'x', 'y' or 'z' for a block's position in the x#y#x# pattern."""
    return ("x", "y", "z")[block_index % 3]


def round_index(block_index: int) -> int:
    """The 0-based repetition this block belongs to."""
    return block_index // 3
