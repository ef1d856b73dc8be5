"""Declarative experiment specifications with content-hash identity.

An :class:`ExperimentSpec` names everything that determines an
acceptance experiment's *statistics*: the word (a generated family or
an explicit string), the recognizer, the trial count and the parent
seed — plus the backend, which by the engine's seeding contract can
never change the counts and is therefore an execution detail.

The spec's :attr:`~ExperimentSpec.key` is a SHA-256 over the fields
that determine the outcome — the resolved word's own hash, the
recognizer and the seed.  Deliberately excluded:

* ``trials`` — depth, not identity.  Runs of the same experiment at
  different depths share a key so the store can *deepen* a cached
  result instead of restarting it (per-trial child seeds depend only on
  the parent seed and the trial index, so trials ``done..more`` of a
  deeper run are exactly the continuation of a shallower one);
* ``backend`` — the how, not the what.  Counts are backend-invariant,
  so a result computed by the batched backend is a valid cache hit for
  a sequential request (and vice versa);
* the family parameters themselves — two specs that resolve to the
  same word string are the same experiment, whether the word arrived
  explicitly or via ``(family, k, t, word_seed)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional

from ..core.instances import MALFORMED_KINDS
from ..engine.api import validate_backend, validate_recognizer

#: Word families a spec can name; "explicit" means the word string is
#: carried in the spec itself.
WORD_FAMILIES = ("member", "intersecting", "explicit") + MALFORMED_KINDS

#: Fields that must hold a plain ``int`` (never a ``bool``, a float or
#: a numeric string): wire values reach the store and the engine as-is.
INT_FIELDS = ("k", "t", "word_seed", "trials", "seed")


@dataclass(frozen=True)
class ExperimentSpec:
    """One acceptance experiment, fully determined by its fields.

    ``word_seed`` seeds the word generator (for the generated
    families); ``seed`` is the parent seed of the trial stream.  They
    default to the same value so the CLI's single ``--seed`` flag keeps
    its historical meaning.

    Args:
        family: one of :data:`WORD_FAMILIES`; forced to ``"explicit"``
            when *word* is given.
        k: the paper's size parameter (``|x| = 2^{2k}``).
        t: intersection size for the ``intersecting`` family.
        word: an explicit word over ``{0,1,#}``, overriding the family.
        word_seed: seed for the word generator.
        recognizer: which machine to sample (see
            :data:`repro.engine.RECOGNIZERS`).
        backend: how missing trials execute (one of
            :data:`repro.engine.api.BACKENDS`) — an execution detail,
            NOT identity.
        trials: requested depth — deepenable, NOT identity.
        seed: parent seed of the per-trial child streams — identity.

    Failure modes: construction raises ``ValueError`` for a value of
    :data:`INT_FIELDS` that is not an ``int`` (or is a ``bool``),
    non-positive trials, a negative seed, unknown
    recognizers/backends/families, ``family="explicit"`` without a
    word, or ``intersecting`` with ``t < 1``.

    Two specs are the same experiment exactly when their keys match:

    >>> spec = ExperimentSpec(family="member", k=1, trials=1000, seed=7)
    >>> spec.key == spec.with_trials(10**6).key     # depth is not identity
    True
    >>> from dataclasses import replace
    >>> spec.key == replace(spec, backend="sequential").key  # nor the backend
    True
    >>> spec.key == replace(spec, seed=8).key       # the seed IS
    False
    >>> explicit = ExperimentSpec(word=spec.resolve_word(), seed=7)
    >>> spec.key == explicit.key   # same word however it arrived
    True
    """

    family: str = "member"
    k: int = 2
    t: int = 2
    word: Optional[str] = None
    word_seed: int = 0
    recognizer: str = "quantum"
    backend: str = "batched"
    trials: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        validate_recognizer(self.recognizer)
        validate_backend(self.backend)
        if self.word is not None:
            # An explicit word overrides the family axis entirely.
            object.__setattr__(self, "family", "explicit")
        elif self.family == "explicit":
            raise ValueError("family='explicit' requires a word")
        elif self.family not in WORD_FAMILIES:
            raise ValueError(
                f"unknown word family {self.family!r}; available: "
                f"{', '.join(WORD_FAMILIES)}"
            )
        if self.family == "intersecting" and self.t < 1:
            raise ValueError("intersecting words need t >= 1")

    def resolve_word(self) -> str:
        """The concrete word this spec denotes (generated once, cached).

        The cache lives outside the dataclass fields, so equality,
        hashing and :meth:`to_dict` never see it.
        """
        if self.word is not None:
            return self.word
        cached = self.__dict__.get("_resolved_word")
        if cached is not None:
            return cached
        word = self._generate_word()
        object.__setattr__(self, "_resolved_word", word)
        return word

    def _generate_word(self) -> str:
        import numpy as np

        from ..core import intersecting_nonmember, malformed_nonmember, member

        rng = np.random.default_rng(self.word_seed)
        if self.family == "member":
            return member(self.k, rng)
        if self.family == "intersecting":
            return intersecting_nonmember(self.k, self.t, rng)
        return malformed_nonmember(self.k, self.family, rng)

    def identity(self) -> Dict[str, Any]:
        """The canonical outcome-determining fields (see module doc)."""
        word = self.resolve_word()
        return {
            "word_sha256": hashlib.sha256(word.encode("ascii")).hexdigest(),
            "word_length": len(word),
            "recognizer": self.recognizer,
            "seed": int(self.seed),
        }

    @property
    def key(self) -> str:
        """Content-hash key: SHA-256 of the canonical identity JSON.

        Computed once per instance and cached like :meth:`resolve_word`
        (outside the dataclass fields), so a query that reads it at
        several layers hashes the word once.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        canon = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(canon.encode("ascii")).hexdigest()
        object.__setattr__(self, "_key", key)
        return key

    @property
    def shard(self) -> str:
        """The store shard this spec's checkpoints live in.

        Delegates to :func:`repro.lab.shards.shard_prefix` over
        :attr:`key`, so routing is as stable across processes and
        platforms as the content key itself.
        """
        from .shards import shard_prefix

        return shard_prefix(self.key)

    def with_trials(self, trials: int) -> "ExperimentSpec":
        """The same experiment at a different depth (same key)."""
        return replace(self, trials=trials)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (stored verbatim in lab records)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**data)

    def describe(self) -> str:
        """Short human label for tables and CLI output."""
        if self.family == "explicit":
            word = self.resolve_word()
            source = f"explicit(|w|={len(word)})"
        elif self.family == "intersecting":
            source = f"intersecting(k={self.k},t={self.t})"
        elif self.family == "member":
            source = f"member(k={self.k})"
        else:
            source = f"{self.family}(k={self.k})"
        return f"{source}/{self.recognizer}@seed={self.seed}"
