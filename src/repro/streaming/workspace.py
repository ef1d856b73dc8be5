"""Bit-metered classical registers.

Space claims in this library are *measurements*.  An algorithm that says
it runs in O(k) bits allocates named registers with declared bit-widths
from a :class:`Workspace`; every write is bounds-checked against the
declared width, and the workspace records the peak number of
simultaneously live bits.  A machine with ``b`` live bits corresponds to
an online TM using Theta(b) work-tape cells (see
:mod:`repro.analysis.counting` for the exact Fact 2.2 arithmetic).

Quantum space is not metered here: a quantum procedure reports its
register size, as A3 does with
:attr:`~repro.quantum.registers.A3Registers.total_qubits`, and a
:class:`SpaceReport` carries it beside the classical bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import RegisterError, SpaceLimitExceeded


def register_width(max_value: int) -> int:
    """Bits needed to store integers in ``[0, max_value]``."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return max(1, max_value.bit_length())


@dataclass(frozen=True)
class SpaceReport:
    """Peak space measured for one run of an online algorithm."""

    classical_bits: int
    qubits: int
    registers: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Classical bits + qubits, the paper's combined space measure."""
        return self.classical_bits + self.qubits

    def merged_with(self, other: "SpaceReport") -> "SpaceReport":
        """Combine reports of algorithms running side by side."""
        regs = dict(self.registers)
        for name, bits in other.registers.items():
            key = name
            suffix = 1
            while key in regs:
                suffix += 1
                key = f"{name}~{suffix}"
            regs[key] = bits
        return SpaceReport(
            classical_bits=self.classical_bits + other.classical_bits,
            qubits=self.qubits + other.qubits,
            registers=regs,
        )


class _Register:
    __slots__ = ("bits", "value")

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.value = 0


class Workspace:
    """A set of named, width-declared integer registers.

    Parameters
    ----------
    owner:
        Label used in error messages and register breakdowns.
    budget_bits:
        Optional hard budget; allocations beyond it raise
        :class:`~repro.errors.SpaceLimitExceeded`.  This is how tests
        *enforce* (not just observe) a space bound.
    """

    def __init__(self, owner: str = "workspace", budget_bits: Optional[int] = None) -> None:
        self.owner = owner
        self.budget_bits = budget_bits
        self._registers: Dict[str, _Register] = {}
        self._live_bits = 0
        self._peak_bits = 0
        self._peak_breakdown: Dict[str, int] = {}

    # -- allocation ----------------------------------------------------

    def alloc(self, name: str, bits: int) -> None:
        """Allocate a fresh register of the given width, initialized to 0."""
        if bits <= 0:
            raise RegisterError(f"{self.owner}: register {name!r} needs positive width")
        if name in self._registers:
            raise RegisterError(f"{self.owner}: register {name!r} already allocated")
        self._registers[name] = _Register(bits)
        self._live_bits += bits
        if self.budget_bits is not None and self._live_bits > self.budget_bits:
            raise SpaceLimitExceeded(self._live_bits, self.budget_bits, "bits")
        if self._live_bits > self._peak_bits:
            self._peak_bits = self._live_bits
            self._peak_breakdown = {n: r.bits for n, r in self._registers.items()}

    def alloc_counter(self, name: str, max_value: int) -> None:
        """Allocate a register wide enough to count up to *max_value*."""
        self.alloc(name, register_width(max_value))

    def free(self, name: str) -> None:
        """Release a register (its bits stop counting toward live space)."""
        reg = self._registers.pop(name, None)
        if reg is None:
            raise RegisterError(f"{self.owner}: register {name!r} is not allocated")
        self._live_bits -= reg.bits

    # -- access ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._registers

    def get(self, name: str) -> int:
        reg = self._registers.get(name)
        if reg is None:
            raise RegisterError(f"{self.owner}: register {name!r} is not allocated")
        return reg.value

    def set(self, name: str, value: int) -> None:
        reg = self._registers.get(name)
        if reg is None:
            raise RegisterError(f"{self.owner}: register {name!r} is not allocated")
        if value < 0:
            raise RegisterError(f"{self.owner}: register {name!r} cannot hold {value}")
        if value.bit_length() > reg.bits:
            raise RegisterError(
                f"{self.owner}: value {value} overflows register {name!r} "
                f"({reg.bits} bits)"
            )
        reg.value = value

    def add(self, name: str, delta: int = 1) -> int:
        """Increment a register, returning the new value (bounds-checked)."""
        self.set(name, self.get(name) + delta)
        return self.get(name)

    def width(self, name: str) -> int:
        reg = self._registers.get(name)
        if reg is None:
            raise RegisterError(f"{self.owner}: register {name!r} is not allocated")
        return reg.bits

    # -- accounting --------------------------------------------------------

    @property
    def live_bits(self) -> int:
        """Bits currently allocated."""
        return self._live_bits

    @property
    def peak_bits(self) -> int:
        """Maximum simultaneously live bits over the workspace's lifetime."""
        return self._peak_bits

    def breakdown(self) -> Dict[str, int]:
        """Register widths at the moment of peak usage."""
        return dict(self._peak_breakdown)

    def report(self, qubits: int = 0) -> SpaceReport:
        """Snapshot this workspace's peak usage as a :class:`SpaceReport`."""
        return SpaceReport(
            classical_bits=self._peak_bits,
            qubits=qubits,
            registers=self.breakdown(),
        )


class GrowingCounter:
    """A counter register that widens itself as its value grows.

    Online algorithms sometimes count quantities whose magnitude is not
    known in advance (e.g. k while reading the ``1^k`` header).  A fixed
    width would either over-charge or overflow; this counter re-allocates
    one bit wider whenever needed, so the measured space is the honest
    ``ceil(log2(value + 1))`` bits at every moment.
    """

    def __init__(self, workspace: "Workspace", name: str) -> None:
        self.workspace = workspace
        self.name = name
        workspace.alloc(name, 1)

    @property
    def value(self) -> int:
        return self.workspace.get(self.name)

    def set(self, value: int) -> None:
        if value < 0:
            raise RegisterError(f"counter {self.name!r} cannot hold {value}")
        needed = max(1, value.bit_length())
        if needed > self.workspace.width(self.name):
            self.workspace.free(self.name)
            self.workspace.alloc(self.name, needed)
        self.workspace.set(self.name, value)

    def increment(self, delta: int = 1) -> int:
        self.set(self.value + delta)
        return self.value

    def reset(self) -> None:
        self.set(0)
