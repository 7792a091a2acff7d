"""In-memory instances, call execution, and brute-force smartness oracles.

Calls run under two modes.  Standard mode binds every output variable or
yields nothing.  Optional-edge mode returns maximal-prefix rows with nulls
past the last matched atom, so projecting a call of the full function onto a
prefix view's outputs equals calling the prefix view directly; this mirrors
Web services that return partial records.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set

from .model import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    PathSemantics,
    SubFunction,
    plan_semantics,
    strip_filters,
)

STANDARD = "standard"
OPTIONAL_EDGE = "optional-edge"

NULL = None


@dataclass(frozen=True)
class Fact:
    """One binary fact, always stored in forward orientation."""

    relation: str
    subject: str
    object: str

    def __str__(self) -> str:
        return f"{self.relation}({self.subject}, {self.object})"


class Instance:
    """A set of facts with subject- and object-side indexes."""

    def __init__(self, facts: Iterable[Fact] = ()):
        self.facts = frozenset(facts)
        self._fwd = {}
        self._bwd = {}
        for f in self.facts:
            self._fwd.setdefault((f.relation, f.subject), set()).add(f.object)
            self._bwd.setdefault((f.relation, f.object), set()).add(f.subject)

    def successors(self, atom: Atom, node: str) -> Set[str]:
        index = self._bwd if atom.inverse else self._fwd
        return index.get((atom.base, node), set())

    def constants(self) -> Set[str]:
        out = set()
        for f in self.facts:
            out.add(f.subject)
            out.add(f.object)
        return out

    def __len__(self) -> int:
        return len(self.facts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self.facts == other.facts

    def __hash__(self) -> int:
        return hash(self.facts)

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(str(f) for f in self.facts)) + "}"


def query_answers(query: AtomicQuery, instance: Instance) -> Set[str]:
    return set(instance.successors(query.relation, query.constant))


def eval_semantics(sem: PathSemantics, start: str, instance: Instance) -> Set[str]:
    """Values at the output boundary supported by complete embeddings."""
    fmap = sem.filter_map()
    frontiers = [{start} if fmap.get(0, start) == start else set()]
    for i, atom in enumerate(sem.skeleton, start=1):
        nxt = set()
        for node in frontiers[-1]:
            nxt |= instance.successors(atom, node)
        if i in fmap:
            nxt &= {fmap[i]}
        frontiers.append(nxt)
    # Backward pruning keeps only values extendable to the full path.
    alive = set(frontiers[-1])
    supported = {len(sem.skeleton): set(alive)}
    for i in range(len(sem.skeleton), 0, -1):
        atom = sem.skeleton[i - 1]
        prev = {
            node
            for node in frontiers[i - 1]
            if instance.successors(atom, node) & alive
        }
        supported[i - 1] = prev
        alive = prev
    return set(supported.get(sem.output, set()))


@dataclass(frozen=True)
class CallResult:
    """Rows as tuples over the view's bound positions; None marks a null."""

    positions: tuple
    rows: frozenset


def call_function(
    view: SubFunction,
    input_value: str,
    instance: Instance,
    mode: str = STANDARD,
) -> CallResult:
    """Execute one view call from an input constant."""
    skeleton = view.skeleton
    positions = view.bindable
    rows = set()
    if mode == STANDARD:
        stack = [(input_value, 0, ())]
        while stack:
            node, depth, acc = stack.pop()
            if depth == len(skeleton):
                rows.add(acc)
                continue
            nxt = instance.successors(skeleton[depth], node)
            for succ in nxt:
                cell = (succ,) if (depth + 1) in positions else ()
                stack.append((succ, depth + 1, acc + cell))
    elif mode == OPTIONAL_EDGE:
        # Enumerate maximal paths; unreached bound positions become nulls.
        stack = [(input_value, 0, ())]
        while stack:
            node, depth, acc = stack.pop()
            if depth == len(skeleton):
                rows.add(acc)
                continue
            nxt = instance.successors(skeleton[depth], node)
            if not nxt:
                padding = tuple(NULL for p in positions if p > depth)
                rows.add(acc + padding)
                continue
            for succ in nxt:
                cell = (succ,) if (depth + 1) in positions else ()
                stack.append((succ, depth + 1, acc + cell))
    else:
        raise ValueError(f"unknown call mode {mode!r}")
    return CallResult(positions, frozenset(rows))


def project_rows(result: CallResult, positions: Sequence[int]) -> frozenset:
    """Project rows onto a subset of bound positions (deduplicated)."""
    idx = [result.positions.index(p) for p in positions]
    return frozenset(tuple(row[i] for i in idx) for row in result.rows)


def eval_plan(
    plan: ExecutionPlan,
    query: AtomicQuery,
    instance: Instance,
    mode: str = STANDARD,
) -> Set[str]:
    """Run calls in order, feed bindings, apply filters afterwards.

    Filters never suppress calls; they select rows once all calls ran.  A
    null input means the downstream call is not made and its outputs stay
    null on that row.  Null outputs are excluded from the result.
    """
    rows = [dict()]
    for i, call in enumerate(plan.calls):
        bind_idx = {p: j for j, p in enumerate(call.view.bindable)}
        new_rows = []
        for env in rows:
            value = call.source if i == 0 else env.get(call.source)
            if value is None:
                ext = dict(env)
                for name in call.outputs:
                    ext[name] = None
                new_rows.append(ext)
                continue
            result = call_function(call.view, value, instance, mode)
            produced = False
            for row in result.rows:
                ext = dict(env)
                for p, name in zip(call.bind, call.outputs):
                    ext[name] = row[bind_idx[p]]
                new_rows.append(ext)
                produced = True
            if not produced and mode == OPTIONAL_EDGE:
                # A call with no successors at all still yields an all-null row.
                ext = dict(env)
                for name in call.outputs:
                    ext[name] = None
                new_rows.append(ext)
        rows = new_rows
    out = set()
    for env in rows:
        if any(env.get(var) != const for var, const in plan.filters):
            continue
        value = env.get(plan.output)
        if value is not None:
            out.add(value)
    return out


def _fresh_names(indices: Sequence[int], sem: PathSemantics, query: AtomicQuery) -> list:
    """Names c<i> for the indices, the prefix lengthened by "_" until none
    equals the query constant or a filter constant of ``sem``."""
    reserved = {query.constant} | {const for _, const in sem.filters}
    prefix = "c"
    while any(f"{prefix}{i}" in reserved for i in indices):
        prefix += "_"
    return [f"{prefix}{i}" for i in indices]


def canonical_weak_database(sem: PathSemantics, query: AtomicQuery) -> Instance:
    """The path instance from the completeness proof: one query fact into a
    fresh constant, then the skeleton laid out over fresh constants from the
    query constant.  The fresh constant at line position p is named c<p>
    (the query constant sits at position 1); no fresh name equals the query
    constant or a filter constant of ``sem``."""
    n = len(sem.skeleton)
    names = _fresh_names([0] + list(range(2, n + 2)), sem, query)
    facts = [_oriented_fact(query.relation, query.constant, names[0])]
    node = query.constant
    for atom, nxt in zip(sem.skeleton, names[1:]):
        facts.append(_oriented_fact(atom, node, nxt))
        node = nxt
    return Instance(facts)


def _oriented_fact(atom: Atom, src: str, dst: str) -> Fact:
    if atom.inverse:
        return Fact(atom.base, dst, src)
    return Fact(atom.base, src, dst)


@dataclass
class OracleReport:
    verdict: bool
    witness: Optional[Instance] = None
    complete: bool = True
    instances_checked: int = 0


def _fact_universe(sem: PathSemantics, query: AtomicQuery) -> list:
    relations = {a.base for a in sem.skeleton} | {query.relation.base}
    pool = [query.constant] + _fresh_names(range(3), sem, query)
    return [
        Fact(rel, s, o)
        for rel in sorted(relations)
        for s in pool
        for o in pool
    ]


def _instance_family(
    plan: ExecutionPlan,
    query: AtomicQuery,
    budget: int,
    max_instances: int,
    rng_seed: int,
):
    """Canonical database, its subsets, a capped exhaustive layer, and a
    random layer.  Deterministic for fixed inputs.  Yields (instance,
    truncated) pairs; truncated marks the point where the exhaustive layer
    was cut off by the cap.  ``max_instances`` caps only the exhaustive
    layer: all 2^|facts| - 2 proper non-empty subsets of the canonical
    database are always yielded."""
    sem = plan_semantics(plan)
    canonical = canonical_weak_database(sem, query)
    yield canonical, False
    facts = sorted(canonical.facts, key=str)
    for k in range(len(facts) - 1, 0, -1):
        for combo in itertools.combinations(facts, k):
            yield Instance(combo), False
    universe = _fact_universe(sem, query)
    emitted = 0
    truncated = False
    for k in range(1, budget + 1):
        for combo in itertools.combinations(universe, k):
            emitted += 1
            if emitted > max_instances:
                truncated = True
                break
            yield Instance(combo), False
        if truncated:
            break
    rng = random.Random(rng_seed)
    for _ in range(200):
        k = rng.randint(1, max(1, budget))
        yield Instance(rng.sample(universe, min(k, len(universe)))), truncated


def oracle_is_weakly_smart(
    plan: ExecutionPlan,
    query: AtomicQuery,
    budget: int = 6,
    max_instances: int = 20000,
    mode: str = OPTIONAL_EDGE,
) -> OracleReport:
    """Search the instance family for a weak-smartness counterexample.

    Refutes when the query has answers, the filter-free plan has results,
    and the plan delivers no query answer at all.  (Bounded cores deliver
    every answer; loose cores are guaranteed at least one, which is the
    operative guarantee the characterization captures.)

    ``max_instances`` caps only the exhaustive layer.  The canonical
    database and all 2^|facts| - 2 of its proper non-empty subsets are
    always checked, so ``instances_checked`` can exceed the cap; the report
    is marked incomplete only when the exhaustive layer was cut.
    """
    unfiltered = strip_filters(plan)
    checked = 0
    truncated = False
    for inst, cut in _instance_family(plan, query, budget, max_instances, rng_seed=97):
        checked += 1
        truncated = truncated or cut
        answers = query_answers(query, inst)
        if not answers:
            continue
        if not eval_plan(unfiltered, query, inst, mode):
            continue
        delivered = eval_plan(plan, query, inst, mode)
        if not (delivered & answers):
            return OracleReport(False, inst, True, checked)
    return OracleReport(True, None, not truncated, checked)


def oracle_is_smart(
    plan: ExecutionPlan,
    query: AtomicQuery,
    budget: int = 6,
    max_instances: int = 20000,
    mode: str = OPTIONAL_EDGE,
) -> OracleReport:
    """Refute smartness: some instance where the filter-free plan has results
    but the plan's answers differ from the query's.

    ``max_instances`` caps only the exhaustive layer.  The canonical
    database and all 2^|facts| - 2 of its proper non-empty subsets are
    always checked, so ``instances_checked`` can exceed the cap; the report
    is marked incomplete only when the exhaustive layer was cut.
    """
    unfiltered = strip_filters(plan)
    checked = 0
    truncated = False
    for inst, cut in _instance_family(plan, query, budget, max_instances, rng_seed=193):
        checked += 1
        truncated = truncated or cut
        if not eval_plan(unfiltered, query, inst, mode):
            continue
        if eval_plan(plan, query, inst, mode) != query_answers(query, inst):
            return OracleReport(False, inst, True, checked)
    return OracleReport(True, None, not truncated, checked)
