"""Exact configuration-distribution propagation.

Transition probabilities are exact rationals, so the full distribution
over configurations can be pushed forward step by step with no sampling
error.  This powers:

* exact acceptance probabilities of OPTMs (tests of Definition 2.1);
* the Theorem 3.6 reduction, which needs, for each input segment, the
  exact kernel "configuration at the previous cut -> distribution over
  configurations at the next cut" (:func:`segment_kernel`);
* exhaustive reachability (:func:`reachable_configurations`) for
  checking Fact 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import MachineError
from .configuration import Configuration
from .tape import BLANK, END_OF_INPUT
from .transition import Move
from .optm import OPTM

#: A probability distribution over configurations, with exact weights.
ConfigurationDistribution = Dict[Configuration, Fraction]


def _apply_to_work(
    work: Tuple[str, ...], head: int, write: str, move: Move
) -> Tuple[Tuple[str, ...], int]:
    """Apply a write+move to a snapshot work tape, trimming trailing blanks."""
    cells = list(work)
    while len(cells) <= head:
        cells.append(BLANK)
    cells[head] = write
    new_head = max(0, head + int(move))
    while len(cells) <= new_head:
        cells.append(BLANK)
    end = len(cells)
    while end > 0 and cells[end - 1] == BLANK:
        end -= 1
    return tuple(cells[:end]), new_head


def step_configuration(
    machine: OPTM, config: Configuration, word: str
) -> List[Tuple[Fraction, Configuration]]:
    """One exact step: all successors of *config* with their probabilities.

    Halting states and dead keys become absorbing ``halted``
    configurations (acceptance is read off the control state later).
    """
    if config.halted:
        return [(Fraction(1), config)]
    if machine.is_halting_state(config.state):
        return [
            (
                Fraction(1),
                Configuration(
                    config.state, config.input_pos, config.work_head, config.work, True
                ),
            )
        ]
    in_sym = word[config.input_pos] if config.input_pos < len(word) else END_OF_INPUT
    work_sym = (
        config.work[config.work_head] if config.work_head < len(config.work) else BLANK
    )
    branches = machine.transitions.branches(config.state, in_sym, work_sym)
    if not branches:
        return [
            (
                Fraction(1),
                Configuration(
                    config.state, config.input_pos, config.work_head, config.work, True
                ),
            )
        ]
    successors: List[Tuple[Fraction, Configuration]] = []
    for prob, action in branches:
        work, head = _apply_to_work(
            config.work, config.work_head, action.write, action.work_move
        )
        input_pos = config.input_pos + (1 if action.input_move == Move.RIGHT else 0)
        successors.append(
            (prob, Configuration(action.state, input_pos, head, work, False))
        )
    return successors


@dataclass(frozen=True)
class PropagationResult:
    """Exact outcome probabilities after propagating a distribution."""

    accept: Fraction
    reject: Fraction
    residual: Fraction  # mass still running at the step cutoff
    final: ConfigurationDistribution

    @property
    def halted(self) -> Fraction:
        return self.accept + self.reject


def propagate(
    machine: OPTM,
    word: str,
    max_steps: int = 10_000,
    start: Optional[ConfigurationDistribution] = None,
) -> PropagationResult:
    """Push the configuration distribution forward until all mass halts.

    Mass still live after *max_steps* is reported as ``residual`` — the
    paper's "never halts" rejection mode shows up there.
    """
    dist: ConfigurationDistribution = (
        dict(start) if start is not None else {machine.initial_configuration(): Fraction(1)}
    )
    for _ in range(max_steps):
        if all(c.halted for c in dist):
            break
        nxt: ConfigurationDistribution = {}
        for config, weight in dist.items():
            for prob, succ in step_configuration(machine, config, word):
                nxt[succ] = nxt.get(succ, Fraction(0)) + weight * prob
        if nxt == dist:
            break
        dist = nxt
    accept = Fraction(0)
    reject = Fraction(0)
    residual = Fraction(0)
    for config, weight in dist.items():
        if config.halted:
            if config.state in machine.accept_states:
                accept += weight
            else:
                reject += weight
        else:
            residual += weight
    return PropagationResult(accept=accept, reject=reject, residual=residual, final=dist)


def acceptance_probability(
    machine: OPTM, word: str, max_steps: int = 10_000
) -> Fraction:
    """Exact probability the machine halts accepting on *word*."""
    return propagate(machine, word, max_steps=max_steps).accept


@dataclass(frozen=True)
class SegmentKernelEntry:
    """Kernel row for one start configuration over one input segment."""

    outgoing: Tuple[Tuple[Configuration, Fraction], ...]
    diverged: Fraction

    def as_dict(self) -> Dict[Configuration, Fraction]:
        return dict(self.outgoing)


def segment_kernel(
    machine: OPTM,
    starts: Iterable[Configuration],
    segment: str,
    segment_start: int,
    max_steps: int = 10_000,
) -> Dict[Configuration, SegmentKernelEntry]:
    """Exact kernel of Theorem 3.6: start configuration -> cut distribution.

    For each start configuration (whose ``input_pos`` must equal
    *segment_start*), propagate until the mass either

    * moves its input head past the segment (``input_pos`` reaches
      ``segment_start + len(segment)``) — these are exactly the paper's
      ``C1 --w--> C2`` boundary configurations and are frozen;
    * halts — carried as an absorbing halted configuration (the next
      player forwards it unchanged); or
    * is still running after *max_steps* — counted as ``diverged``
      (the protocol outputs 0 for that mass).
    """
    boundary = segment_start + len(segment)
    word_prefix_view = " " * segment_start + segment  # only positions >= start read
    result: Dict[Configuration, SegmentKernelEntry] = {}
    for start_config in starts:
        if not start_config.halted and start_config.input_pos != segment_start:
            raise MachineError(
                f"start configuration at input position {start_config.input_pos}, "
                f"expected {segment_start}"
            )
        if start_config.halted:
            result[start_config] = SegmentKernelEntry(
                outgoing=((start_config, Fraction(1)),), diverged=Fraction(0)
            )
            continue
        live: ConfigurationDistribution = {start_config: Fraction(1)}
        frozen: ConfigurationDistribution = {}
        for _ in range(max_steps):
            if not live:
                break
            nxt: ConfigurationDistribution = {}
            for config, weight in live.items():
                for prob, succ in step_configuration(machine, config, word_prefix_view):
                    mass = weight * prob
                    if succ.halted or succ.input_pos >= boundary:
                        frozen[succ] = frozen.get(succ, Fraction(0)) + mass
                    else:
                        nxt[succ] = nxt.get(succ, Fraction(0)) + mass
            live = nxt
        diverged = sum(live.values(), Fraction(0))
        result[start_config] = SegmentKernelEntry(
            outgoing=tuple(frozen.items()), diverged=diverged
        )
    return result


def reachable_configurations(
    machine: OPTM,
    word: str,
    max_steps: int = 10_000,
) -> Set[Configuration]:
    """All configurations reachable with positive probability on *word*.

    Breadth-first over the support of the distribution; ``max_steps``
    bounds the exploration depth (configurations of a space-bounded
    machine form a finite set, so exploration saturates).
    """
    frontier: Set[Configuration] = {machine.initial_configuration()}
    seen: Set[Configuration] = set(frontier)
    for _ in range(max_steps):
        nxt: Set[Configuration] = set()
        for config in frontier:
            if config.halted:
                continue
            for _, succ in step_configuration(machine, config, word):
                if succ not in seen:
                    seen.add(succ)
                    nxt.add(succ)
        if not nxt:
            break
        frontier = nxt
    return seen
