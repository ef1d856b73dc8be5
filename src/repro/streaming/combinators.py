"""Composition of online algorithms.

The paper composes online procedures in two ways, both reproduced here:

* **Parallel composition** — Theorem 3.4 runs A1, A2 and A3 "in
  parallel" on the same stream and combines their outputs with a fixed
  rule.  :class:`ParallelComposition` feeds each symbol to every child
  and applies a combiner at the end.  Space adds up (Definition 2.1's
  remark that amplification costs only a constant factor).

* **Amplification** — Corollary 3.5 boosts one-sided error 1/4 to
  two-sided error 2/3 by running independent copies and rejecting if any
  copy rejects (:class:`AnyRejectsAmplifier`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .algorithm import OnlineAlgorithm


class ParallelComposition(OnlineAlgorithm):
    """Run several online algorithms side by side on the same stream.

    Parameters
    ----------
    children:
        The algorithms to run; each receives every symbol, in order.
    combiner:
        ``combiner(outputs) -> output`` applied to the children's outputs.
    """

    def __init__(
        self,
        name: str,
        children: Sequence[OnlineAlgorithm],
        combiner: Callable[[list[Any]], Any],
    ) -> None:
        super().__init__(name)
        if not children:
            raise ValueError("ParallelComposition needs at least one child")
        self.children = list(children)
        self.combiner = combiner

    def feed(self, symbol: str) -> None:
        for child in self.children:
            child.consume(symbol)

    def finish(self) -> Any:
        return self.combiner([child.complete() for child in self.children])

    @property
    def qubits_used(self) -> int:
        return sum(child.qubits_used for child in self.children)

    def space_report(self):
        report = self.workspace.report(qubits=0)
        for child in self.children:
            report = report.merged_with(child.space_report())
        return report


class AnyRejectsAmplifier(ParallelComposition):
    """Accept iff *every* copy accepts (one-sided error amplification).

    For a recognizer that accepts members with probability 1 and rejects
    non-members with probability >= 1/4, running r independent copies
    and rejecting when any copy rejects keeps perfect completeness and
    improves soundness to ``1 - (3/4)^r`` — the Corollary 3.5 route from
    OQRL-style error to the 2/3 bound of OQBPL (r = 4 suffices).
    """

    def __init__(self, name: str, children: Sequence[OnlineAlgorithm]) -> None:
        super().__init__(name, children, combiner=lambda outs: all(bool(o) for o in outs))

    @staticmethod
    def copies_needed(target_soundness: float, single_rejection: float = 0.25) -> int:
        """Smallest r with ``1 - (1 - single_rejection)^r >= target_soundness``."""
        if not 0 < target_soundness < 1:
            raise ValueError("target_soundness must lie in (0, 1)")
        if not 0 < single_rejection <= 1:
            raise ValueError("single_rejection must lie in (0, 1]")
        keep = 1.0 - single_rejection
        r = 1
        failure = keep
        while 1.0 - failure < target_soundness:
            r += 1
            failure *= keep
        return r
