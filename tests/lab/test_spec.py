"""ExperimentSpec: content-hash identity and validation."""

import pytest

from repro.core import member
from repro.engine import BACKENDS
from repro.lab import ExperimentSpec, WORD_FAMILIES


class TestKey:
    def test_key_is_stable(self):
        a = ExperimentSpec(family="member", k=1, trials=100, seed=7)
        b = ExperimentSpec(family="member", k=1, trials=100, seed=7)
        assert a.key == b.key

    def test_key_is_hashed_once_per_instance(self, monkeypatch):
        spec = ExperimentSpec(family="member", k=1, trials=100, seed=7)
        calls = []
        identity = ExperimentSpec.identity

        def counting(self):
            calls.append(self)
            return identity(self)

        monkeypatch.setattr(ExperimentSpec, "identity", counting)
        assert spec.key == spec.key == spec.key
        assert len(calls) == 1
        # Byte-identical to the keys stores already hold.
        assert spec.key == (
            "588450a1590b441292a1f27fbcadc9502be1ce522ab8818c095d69132858786d"
        )
        # The cache is not a field: equality and to_dict never see it.
        assert spec == ExperimentSpec(family="member", k=1, trials=100, seed=7)
        assert "_key" not in spec.to_dict()

    def test_trials_do_not_change_the_key(self):
        """Depth is not identity — that's what makes deepening a cache hit."""
        spec = ExperimentSpec(family="member", k=1, trials=100, seed=7)
        assert spec.key == spec.with_trials(100_000).key

    def test_backend_does_not_change_the_key(self):
        """Counts are backend-invariant, so backends share cache entries."""
        keys = {
            ExperimentSpec(family="member", k=1, seed=7, backend=b).key
            for b in BACKENDS
        }
        assert len(keys) == 1

    def test_explicit_word_matches_resolved_family(self):
        """Identity is the word *content*, not how it was specified."""
        import numpy as np

        fam = ExperimentSpec(family="member", k=1, word_seed=3, seed=7)
        explicit = ExperimentSpec(word=member(1, np.random.default_rng(3)), seed=7)
        assert fam.key == explicit.key
        assert explicit.family == "explicit"

    @pytest.mark.parametrize(
        "other",
        [
            dict(seed=8),
            dict(recognizer="classical-blockwise"),
            dict(word_seed=4),
            dict(k=2),
        ],
    )
    def test_identity_fields_change_the_key(self, other):
        base = ExperimentSpec(family="member", k=1, word_seed=3, seed=7)
        assert base.key != ExperimentSpec(**{**base.to_dict(), **other}).key


class TestValidation:
    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec(trials=0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            ExperimentSpec(family="nonsense")

    def test_rejects_explicit_family_without_word(self):
        with pytest.raises(ValueError, match="word"):
            ExperimentSpec(family="explicit")

    def test_rejects_unknown_recognizer(self):
        with pytest.raises(ValueError, match="recognizer"):
            ExperimentSpec(recognizer="oracle")

    def test_rejects_unknown_backend(self):
        """Checked at construction, not when trials first run, so a
        cached key cannot hide a bad name."""
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            ExperimentSpec(backend="bogus")

    @pytest.mark.parametrize("name", ["multiprocess", "sharedmem", "gpu"])
    def test_rejects_retired_backend(self, name):
        """Names older builds ran as ``batched`` are unknown names now."""
        with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
            ExperimentSpec(backend=name)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.9),
            ("seed", 2.0),
            ("seed", "1"),
            ("seed", True),
            ("word_seed", 0.5),
            ("trials", True),
            ("trials", 50.0),
            ("k", "2"),
            ("t", None),
        ],
    )
    def test_rejects_non_int_wire_values(self, field, value):
        """A float seed would share an int seed's key, and a ``bool``
        depth would be stored as ``true``: neither gets past the spec."""
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            ExperimentSpec(**{field: value})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ExperimentSpec(seed=-1)

    def test_rejects_intersecting_t_zero(self):
        with pytest.raises(ValueError, match="t >= 1"):
            ExperimentSpec(family="intersecting", t=0)

    def test_malformed_kinds_are_families(self):
        spec = ExperimentSpec(family="truncated", k=1)
        assert spec.family in WORD_FAMILIES
        word = spec.resolve_word()
        from repro.core import in_ldisj

        assert not in_ldisj(word)


class TestRoundTrip:
    def test_to_from_dict(self):
        spec = ExperimentSpec(
            family="intersecting", k=1, t=2, trials=50, seed=11, word_seed=3,
            recognizer="classical-blockwise", backend="sequential",
        )
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec and clone.key == spec.key

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"family": "member", "banana": 1})

    def test_resolve_word_is_deterministic(self):
        spec = ExperimentSpec(family="member", k=1, word_seed=5)
        assert spec.resolve_word() == spec.resolve_word()

    def test_describe_mentions_family_and_recognizer(self):
        spec = ExperimentSpec(family="intersecting", k=1, t=2)
        assert "intersecting" in spec.describe()
        assert "quantum" in spec.describe()
