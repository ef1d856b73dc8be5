"""``lock-discipline`` — mutations happen under the locks that protect them.

Two documented locking contracts (``docs/ARCHITECTURE.md``):

* **store writers serialize on ``_StoreLock``** — every mutation of a
  shard's ``results.jsonl`` (the ``os.write`` append of checkpoints,
  the ``os.replace`` compaction and eviction publish) must execute
  under the sidecar ``flock``;
  otherwise a concurrent compaction can retire the inode an appender
  holds and the append silently vanishes;
* **service deepening holds the per-key lock** — the coroutine that
  hands ``Orchestrator.run``/``run_to_precision`` to the worker pool
  must do so inside ``async with entry.lock``; without it two
  different-depth requests for one key re-run the shared seed-plan
  prefix concurrently.

Neither is checkable per file: the lock may be (and in the mutation
scenarios *is*) acquired in a caller in another module.  The analysis
is a dominator check over the call graph:

1. find every mutation primitive in the store modules
   (:data:`STORE_PATHS` / :data:`MUTATION_CALLS`).  A site lexically
   inside a ``with`` whose context constructs a lock
   (:data:`LOCK_NAMES`) is satisfied locally;
2. an unguarded site makes its enclosing function *lock-requiring*:
   every project call site of that function must itself sit inside a
   lock-holding ``with``, or the caller becomes lock-requiring in
   turn (transitively, cycle-guarded).  A requiring function with no
   guarded path — including one nobody calls — fires at the mutation
   site, naming the unguarded chain;
3. independently, every call or reference from a service coroutine to
   the orchestrator's run surface (:data:`GUARDED_TARGETS`) must lie
   inside an ``async with`` over a per-key lock (:data:`KEY_LOCK_ATTRS`,
   matching the final attribute — ``entry.lock``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set

from ..framework import Finding, ProjectRule, register_rule
from ..project import CALL, FunctionInfo, ProjectModel
from .async_blocking import service_coroutines

#: Modules whose file mutations the store contract covers.
STORE_PATHS = (
    "repro/lab/store.py",
    "repro/lab/shards.py",  # pure today; covered so mutations can't drift in
)

#: Mutation primitives (exact dotted call names) that rewrite the log.
MUTATION_CALLS = frozenset({"os.write", "os.replace"})

#: Lock constructors whose ``with`` dominates a store mutation
#: (matched on the final dotted segment of the context expression).
LOCK_NAMES = frozenset({"_StoreLock"})

#: Orchestrator surface the per-key lock must dominate in coroutines.
GUARDED_TARGETS: Sequence[str] = (
    "Orchestrator.run",
    "Orchestrator.run_to_precision",
)

#: Final attribute segment(s) identifying the per-key lock object.
KEY_LOCK_ATTRS = frozenset({"lock"})


def _span_guards(fn: FunctionInfo, node, finals: frozenset) -> bool:
    """Is *node* inside a ``with`` whose guard name ends in *finals*?"""
    for span in fn.with_spans:
        if not span.covers(node):
            continue
        for name in span.names:
            if name.split(".")[-1] in finals:
                return True
    return False


@register_rule
class LockDisciplineRule(ProjectRule):
    id = "lock-discipline"
    summary = (
        "whole-program: store mutations dominated by _StoreLock in the "
        "caller chain; service deepening holds the per-key lock"
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        yield from self._check_store(project)
        yield from self._check_service(project)

    # -- store mutations dominated by the store lock -------------------

    def _check_store(self, project: ProjectModel) -> Iterator[Finding]:
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            if not fn.norm_path.endswith(STORE_PATHS):
                continue
            for site in fn.calls:
                if site.kind != CALL or site.name not in MUTATION_CALLS:
                    continue
                if _span_guards(fn, site.node, LOCK_NAMES):
                    continue
                chain = self._unguarded_chain(project, fn)
                if chain is None:
                    continue  # every caller chain holds the lock
                yield self.finding_at(
                    fn.path,
                    site.node,
                    f"store mutation {site.name}() in {fn.qualname} is not "
                    "dominated by a _StoreLock acquisition: the path "
                    f"{' -> '.join(chain)} reaches it with no lock held; "
                    "acquire the store lock around the mutation (or in "
                    "every caller) so compaction cannot retire the inode "
                    "mid-write",
                )

    def _unguarded_chain(
        self,
        project: ProjectModel,
        fn: FunctionInfo,
        _seen: Optional[Set[str]] = None,
    ) -> Optional[List[str]]:
        """A caller chain reaching *fn* with no lock held, or ``None``.

        ``None`` means every path into *fn* acquires the lock first.
        A function nobody calls has no guarded path, so it is its own
        unguarded chain — the conservative reading for a public
        mutation entry point like ``ResultStore.append``.
        """
        seen = _seen if _seen is not None else set()
        if fn.qualname in seen:
            return None  # a cycle alone is not evidence of an unlocked path
        seen.add(fn.qualname)
        callers = project.callers_of(fn.qualname)
        if not callers:
            return [fn.qualname]
        for caller_qual, site in callers:
            caller = project.functions.get(caller_qual)
            if caller is None:
                continue
            if _span_guards(caller, site.node, LOCK_NAMES):
                continue
            chain = self._unguarded_chain(project, caller, seen)
            if chain is not None:
                return chain + [fn.qualname]
        return None

    # -- service deepening holds the per-key lock ----------------------

    def _check_service(self, project: ProjectModel) -> Iterator[Finding]:
        guarded = set(project.functions_matching(GUARDED_TARGETS))
        if not guarded:
            return
        for fn in service_coroutines(project):
            for site in fn.calls:
                hit = next(
                    (t for t in site.targets if t in guarded), None
                )
                if hit is None:
                    continue
                if _span_guards(fn, site.node, KEY_LOCK_ATTRS):
                    continue
                yield self.finding_at(
                    fn.path,
                    site.node,
                    f"coroutine {fn.qualname} dispatches {hit} outside the "
                    "per-key lock; wrap the dispatch in `async with "
                    "entry.lock` so same-key requests at different depths "
                    "serialize and deepen from each other's checkpoints",
                )
