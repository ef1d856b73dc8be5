"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AlphabetError(ReproError):
    """A word contains symbols outside the ternary alphabet {0, 1, #}."""


class FormatError(ReproError):
    """An input word does not have the structural shape an operation needs."""


class SpaceLimitExceeded(ReproError):
    """A space-bounded computation tried to exceed its declared budget."""

    def __init__(self, used: int, limit: int, what: str = "bits") -> None:
        super().__init__(f"space limit exceeded: {used} > {limit} {what}")
        self.used = used
        self.limit = limit
        self.what = what


class RegisterError(ReproError):
    """Invalid use of a metered workspace register."""


class MachineError(ReproError):
    """Ill-formed Turing machine description."""


class QuantumError(ReproError):
    """Invalid quantum state, gate, or circuit operation."""


class EncodingError(ReproError):
    """Malformed Definition 2.3 output-tape circuit encoding."""


class ProtocolError(ReproError):
    """Violation of the two-party communication protocol discipline."""


class ReductionError(ReproError):
    """The Theorem 3.6 OPTM-to-protocol reduction was misused."""
