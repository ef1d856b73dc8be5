"""``rng-discipline`` — all randomness flows from ``SeedSequence`` spawning.

The seeding contract (``docs/ARCHITECTURE.md``): one parent seed,
children derived *only* via ``repro.rng``'s ``spawn``/``spawn_seeds``
(NumPy ``SeedSequence`` spawning), generators rebuilt from those child
seeds at the point of use.  One stray ``np.random.default_rng()``
(fresh OS entropy) in a kernel makes counts irreproducible; one
module-level ``np.random.seed`` / legacy ``RandomState`` reintroduces
cross-trial coupling through global state; ``random``/``secrets``
bypass the NumPy seeding tree entirely.

What the rule flags:

* ``np.random.default_rng()`` **with no arguments** — fresh entropy —
  anywhere, allowlisted or not;
* any ``np.random.*`` call (including seeded ``default_rng(seed)``,
  ``Generator(...)``, ``SeedSequence(...)``) outside :data:`SEED_SITES`
  — the sanctioned modules that turn plan integers back into
  generators;
* legacy global-state APIs (``np.random.seed``, ``np.random.random``,
  ``np.random.RandomState``, …) everywhere, allowlist included;
* ``import random`` / ``import secrets`` (and ``from`` forms).

``np.random.Generator`` / ``np.random.SeedSequence`` as *annotations*
are fine — only calls and imports are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..framework import Finding, ModuleContext, Rule, call_name, register_rule

#: Modules whose seeded-generator construction is sanctioned: the rng
#: plumbing itself, the engine backends that rebuild generators from
#: spawned child seeds, the samplers that do the same from explicit
#: trial seeds, and the CLI/spec word-material seeding sites.  Entries
#: ending in ``/`` match as directory fragments, others as path suffixes.
SEED_SITES: Sequence[str] = (
    "repro/rng.py",
    "repro/cli.py",
    "repro/engine/api.py",
    "repro/engine/sequential.py",
    "repro/lab/spec.py",
    "repro/core/quantum_recognizer.py",
    "repro/core/classical_recognizer.py",
    # Benchmark drivers are experiment roots: they own their parent
    # seeds the same way the CLI does.  (The seed-flow project rule
    # still checks what any counting path builds generators *from*.)
    "benchmarks/",
)

#: ``np.random`` members that are construction-from-a-seed; allowed in
#: seed sites.  Everything else under ``np.random.`` is legacy global
#: state and allowed nowhere.
_SEEDED_CONSTRUCTORS = {"default_rng", "Generator", "SeedSequence"}

_BANNED_MODULES = {"random", "secrets"}


def _np_random_member(name: str) -> str:
    """``'default_rng'`` for ``np.random.default_rng`` etc., else ``''``."""
    for prefix in ("np.random.", "numpy.random."):
        if name.startswith(prefix):
            return name[len(prefix):]
    return ""


@register_rule
class RngDisciplineRule(Rule):
    id = "rng-discipline"
    summary = (
        "randomness only via SeedSequence spawning: no unseeded "
        "default_rng, no np.random globals, generator construction "
        "only in sanctioned seed sites"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        in_seed_site = module.matches(SEED_SITES)
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield self.finding(
                            module,
                            node,
                            f"`import {alias.name}` bypasses the seeded "
                            "numpy Generator tree; use repro.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES and node.level == 0:
                    yield self.finding(
                        module,
                        node,
                        f"`from {node.module} import …` bypasses the seeded "
                        "numpy Generator tree; use repro.rng",
                    )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                member = _np_random_member(name)
                if member:
                    yield from self._check_np_random(
                        module, node, name, member, in_seed_site
                    )
                elif name.split(".")[0] in _BANNED_MODULES and "." in name:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() draws outside the seeded numpy Generator "
                        "tree; use repro.rng",
                    )

    def _check_np_random(
        self,
        module: ModuleContext,
        node: ast.Call,
        name: str,
        member: str,
        in_seed_site: bool,
    ) -> Iterator[Finding]:
        if member == "default_rng" and not node.args and not node.keywords:
            yield self.finding(
                module,
                node,
                f"{name}() with no seed draws fresh OS entropy — counts "
                "become irreproducible; pass a seed spawned via "
                "repro.rng.spawn_seeds",
            )
        elif member.split(".")[0] not in _SEEDED_CONSTRUCTORS:
            yield self.finding(
                module,
                node,
                f"{name}() is legacy global-state RNG; construct a "
                "Generator from a spawned seed instead",
            )
        elif not in_seed_site:
            yield self.finding(
                module,
                node,
                f"{name}(...) constructs a generator outside the "
                "sanctioned seed sites; derive child seeds with "
                "repro.rng.spawn_seeds and rebuild generators only in "
                "the engine/sampler seeding layer",
            )
