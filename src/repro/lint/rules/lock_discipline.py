"""``lock-discipline`` — mutations happen under the locks that protect them.

Two documented locking contracts (``docs/ARCHITECTURE.md``):

* **store writers serialize on ``_StoreLock``** — every mutation of a
  shard's ``results.jsonl`` (the ``os.write`` append of checkpoints
  and tombstones, the ``os.replace`` compaction publish) must execute
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

1. find every mutation primitive in the store modules (options
   ``store_paths`` / ``mutation_calls``).  A site lexically inside a
   ``with`` whose context constructs a lock (option ``lock_names``)
   is satisfied locally;
2. an unguarded site makes its enclosing function *lock-requiring*:
   every project call site of that function must itself sit inside a
   lock-holding ``with``, or the caller becomes lock-requiring in
   turn (transitively, cycle-guarded).  A requiring function with no
   guarded path — including one nobody calls — fires at the mutation
   site, naming the unguarded chain;
3. independently, every call or reference from a service coroutine to
   the orchestrator's run surface (option ``guarded_targets``) must
   lie inside an ``async with`` over a per-key lock (option
   ``key_lock_attrs``, matching the final attribute — ``entry.lock``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..framework import Finding, ProjectRule, register_rule
from ..project import CALL, FunctionInfo, ProjectModel

#: Modules whose file mutations the store contract covers.
DEFAULT_STORE_PATHS: Sequence[str] = (
    "repro/lab/store.py",
    "repro/lab/shards.py",  # pure today; covered so mutations can't drift in
)

#: Mutation primitives (exact dotted call names) that rewrite the log.
DEFAULT_MUTATION_CALLS: Sequence[str] = ("os.write", "os.replace")

#: Lock constructors whose ``with`` dominates a store mutation
#: (matched on the final dotted segment of the context expression).
DEFAULT_LOCK_NAMES: Sequence[str] = ("_StoreLock",)

#: Where the checked service coroutines live.
DEFAULT_SERVICE_PATHS: Sequence[str] = ("repro/service/",)

#: Orchestrator surface the per-key lock must dominate in coroutines.
DEFAULT_GUARDED_TARGETS: Sequence[str] = (
    "Orchestrator.run",
    "Orchestrator.run_to_precision",
)

#: Final attribute segment(s) identifying the per-key lock object.
DEFAULT_KEY_LOCK_ATTRS: Sequence[str] = ("lock",)


def _span_guards(fn: FunctionInfo, node, finals: Set[str]) -> bool:
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

    def check_project(
        self, project: ProjectModel, options: Dict
    ) -> Iterator[Finding]:
        store_paths = tuple(options.get("store_paths", DEFAULT_STORE_PATHS))
        mutation_calls = set(
            options.get("mutation_calls", DEFAULT_MUTATION_CALLS)
        )
        lock_names = set(options.get("lock_names", DEFAULT_LOCK_NAMES))
        service_paths = tuple(
            options.get("service_paths", DEFAULT_SERVICE_PATHS)
        )
        guarded_targets = tuple(
            options.get("guarded_targets", DEFAULT_GUARDED_TARGETS)
        )
        key_lock_attrs = set(
            options.get("key_lock_attrs", DEFAULT_KEY_LOCK_ATTRS)
        )
        yield from self._check_store(
            project, store_paths, mutation_calls, lock_names
        )
        yield from self._check_service(
            project, service_paths, guarded_targets, key_lock_attrs
        )

    # -- store mutations dominated by the store lock -------------------

    def _check_store(
        self,
        project: ProjectModel,
        store_paths: Tuple[str, ...],
        mutation_calls: Set[str],
        lock_names: Set[str],
    ) -> Iterator[Finding]:
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            if not fn.norm_path.endswith(store_paths):
                continue
            for site in fn.calls:
                if site.kind != CALL or site.name not in mutation_calls:
                    continue
                if _span_guards(fn, site.node, lock_names):
                    continue
                chain = self._unguarded_chain(project, fn, lock_names)
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
        lock_names: Set[str],
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
            if _span_guards(caller, site.node, lock_names):
                continue
            chain = self._unguarded_chain(project, caller, lock_names, seen)
            if chain is not None:
                return chain + [fn.qualname]
        return None

    # -- service deepening holds the per-key lock ----------------------

    def _check_service(
        self,
        project: ProjectModel,
        service_paths: Tuple[str, ...],
        guarded_targets: Tuple[str, ...],
        key_lock_attrs: Set[str],
    ) -> Iterator[Finding]:
        guarded = set(project.functions_matching(guarded_targets))
        if not guarded:
            return
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            if not fn.is_async or not any(
                fragment in fn.norm_path for fragment in service_paths
            ):
                continue
            for site in fn.calls:
                hit = next(
                    (t for t in site.targets if t in guarded), None
                )
                if hit is None:
                    continue
                if _span_guards(fn, site.node, key_lock_attrs):
                    continue
                yield self.finding_at(
                    fn.path,
                    site.node,
                    f"coroutine {fn.qualname} dispatches {hit} outside the "
                    "per-key lock; wrap the dispatch in `async with "
                    "entry.lock` so same-key requests at different depths "
                    "serialize and deepen from each other's checkpoints",
                )
