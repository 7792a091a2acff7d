"""In-memory instances, call execution, and brute-force smartness oracles.

Calls run under two modes.  Standard mode binds every output variable or
yields nothing.  Optional-edge mode returns maximal-prefix rows with nulls
past the last matched atom, so projecting a call of the full function onto a
prefix view's outputs equals calling the prefix view directly; this mirrors
Web services that return partial records.

``eval_plan`` and each oracle call compile the plan once: every call's path,
input slot and kept output slots are read before any instance is seen.  An
instance is then evaluated in one pass over a deduplicated set of row tuples
that hold only the variables a later call, a filter or the output reads,
with each call run once per distinct input value.  The filter-free and the
filtered results both come from that pass.  The oracles evaluate the
canonical database on the ``Instance`` that built it, and build an
``Instance`` for a later member of their instance family only where it can
refute: it holds a fact leading from the plan's constant along its first
atom, and for the weak oracle also a query-answer fact.  The exhaustive and
random layers draw from the query constant and three fresh names.  A
bijection of the fresh names that fixes the query constant, the plan's
constant and the filter constants maps an instance's plan results and
query answers along with it, so it keeps the verdict; there the oracles
evaluate one member per renaming class, the first in family order.
Skipped members still count in ``instances_checked``.  Which members come
first in their class depends only on the layer's shape (its facts, the pool
names outside the fixed ones, the budget, the cap and the rng seed), not on
the plan, so each shape's classes are walked once per process and kept in a
small memo (``_walk``); a pass over the 9048 criterion-2 plans has four
shapes.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Set

from .model import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    PathSemantics,
    SubFunction,
    plan_semantics,
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


def _optional(mode: str) -> bool:
    if mode == OPTIONAL_EDGE:
        return True
    if mode == STANDARD:
        return False
    raise ValueError(f"unknown call mode {mode!r}")


def _path(skeleton: Sequence[Atom], positions: Sequence[int]) -> tuple:
    """Per atom of a call: its orientation and relation, whether the
    boundary it reaches is a kept position, and the nulls that pad a row
    whose path stops before the atom."""
    path = []
    unreached = len(positions)
    for depth, atom in enumerate(skeleton, start=1):
        kept = depth in positions
        path.append((atom.inverse, atom.base, kept, (NULL,) * unreached))
        unreached -= kept
    return tuple(path)


def _path_rows(path: tuple, start: str, instance: Instance, optional: bool) -> set:
    """Rows over a call's kept positions, one per path from ``start``: the
    complete paths, and under optional-edge semantics also the maximal ones
    padded with nulls."""
    rows = set()
    frontier = {(start, ())}
    for inverse, base, kept, nulls in path:
        index = instance._bwd if inverse else instance._fwd
        reached = set()
        for node, row in frontier:
            succ = index.get((base, node))
            if succ:
                if kept:
                    reached.update([(s, row + (s,)) for s in succ])
                else:
                    reached.update([(s, row) for s in succ])
            elif optional:
                rows.add(row + nulls)
        frontier = reached
    rows.update([row for _, row in frontier])
    return rows


def call_function(
    view: SubFunction,
    input_value: str,
    instance: Instance,
    mode: str = STANDARD,
) -> CallResult:
    """Execute one view call from an input constant."""
    positions = view.bindable
    rows = _path_rows(_path(view.skeleton, positions), input_value, instance, _optional(mode))
    return CallResult(positions, frozenset(rows))


def project_rows(result: CallResult, positions: Sequence[int]) -> frozenset:
    """Project rows onto a subset of bound positions (deduplicated)."""
    idx = [result.positions.index(p) for p in positions]
    return frozenset(tuple(row[i] for i in idx) for row in result.rows)


class _Call(NamedTuple):
    """One call of a compiled plan.  ``source`` is the row slot holding its
    input (None when no earlier call binds it), ``carry`` the slots kept
    past the call, and ``nulls`` the cells of a call that is not made."""

    path: tuple
    source: Optional[int]
    carry: tuple
    nulls: tuple


class _Compiled(NamedTuple):
    """A plan read once for evaluation: rows hold only the variables that a
    later call, a filter or the output reads.  ``output`` is the output's
    slot in the final rows and ``filters`` the (slot, constant) pairs; both
    are None where no call binds the variable."""

    constant: str
    calls: tuple
    optional: bool
    output: Optional[int]
    filters: Optional[tuple]


def _compile(plan: ExecutionPlan, mode: str) -> _Compiled:
    optional = _optional(mode)
    live = {plan.output, *(var for var, _ in plan.filters)}
    lives = []  # per call, the variables read after it
    for call in reversed(plan.calls):
        lives.append(live)
        live = live | {call.source}
    lives.reverse()
    layout = [None]  # the first call's input constant; no variable is named None
    calls = []
    for i, (call, live) in enumerate(zip(plan.calls, lives)):
        if i == 0:
            source = 0
        else:
            source = layout.index(call.source) if call.source in layout else None
        new = {}  # live outputs by position; a name bound twice keeps its last one
        for p, name in zip(call.bind, call.outputs):
            if name in live:
                new.pop(name, None)
                new[name] = p
        carry = tuple(j for j, name in enumerate(layout) if name in live and name not in new)
        path = _path(call.view.skeleton, tuple(new.values()))
        calls.append(_Call(path, source, carry, (NULL,) * len(new)))
        layout = [layout[j] for j in carry] + list(new)
    filters = None
    if all(var in layout for var, _ in plan.filters):
        filters = tuple((layout.index(var), const) for var, const in plan.filters)
    output = layout.index(plan.output) if plan.output in layout else None
    constant = plan.calls[0].source if plan.calls else ""
    return _Compiled(constant, tuple(calls), optional, output, filters)


def _answers(compiled: _Compiled, instance: Instance) -> tuple:
    """The filter-free and the filtered results of the plan, from one pass.

    Each call runs once per distinct input value within the pass.  A null
    input means the call is not made and its outputs stay null on that row.
    """
    rows = {(compiled.constant,)}
    for path, source, carry, nulls in compiled.calls:
        cells_of = {}
        reached = set()
        for row in rows:
            value = NULL if source is None else row[source]
            cells = cells_of.get(value)
            if cells is None:
                if value is NULL:
                    cells = {nulls}
                else:
                    cells = _path_rows(path, value, instance, compiled.optional)
                cells_of[value] = cells
            if carry:
                head = tuple([row[j] for j in carry])
                reached.update([head + c for c in cells])
            else:
                reached |= cells
        rows = reached
    out, filters = compiled.output, compiled.filters
    if out is None:
        return set(), set()
    results = {row[out] for row in rows} - {NULL}
    if not filters:
        return results, (set() if filters is None else results)
    delivered = {row[out] for row in rows if all(row[j] == c for j, c in filters)} - {NULL}
    return results, delivered


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
    return _answers(_compile(plan, mode), instance)[1]


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


MAX_INSTANCES = 20000  # the oracles' default cap on their exhaustive layer


def _fact_universe(sem: PathSemantics, query: AtomicQuery) -> list:
    relations = {a.base for a in sem.skeleton} | {query.relation.base}
    pool = [query.constant] + _fresh_names(range(3), sem, query)
    return [
        Fact(rel, s, o)
        for rel in sorted(relations)
        for s in pool
        for o in pool
    ]


class _Layer(NamedTuple):
    """Members of the instance family as index tuples into ``facts``.
    ``renamable`` marks a layer drawn from the fact universe, which every
    renaming of its fresh names maps onto itself; ``cut`` marks a layer
    whose exhaustive part the cap cut off."""

    facts: list
    members: Iterator
    renamable: bool
    cut: bool


def _instance_family(
    canonical: Instance,
    sem: PathSemantics,
    query: AtomicQuery,
    budget: int,
    max_instances: int,
    rng_seed: int,
):
    """The members that follow the canonical database, in two layers.

    The first layer holds the canonical database's 2^|facts| - 2 proper
    non-empty subsets, largest first, over its facts sorted by text.  The
    second holds a capped exhaustive layer over ``_fact_universe`` and then
    a random layer over it: the query constant and three fresh names in
    every position of every relation.  ``max_instances`` caps only the
    exhaustive part, so the subsets are always yielded in full.  Layers are
    built only when asked for, and members are index tuples into the
    layer's facts: the oracles build an ``Instance`` only for the members
    that can refute.  Deterministic for fixed inputs.

    A bijection of the fresh names that fixes the query constant, the
    plan's constant and the filter constants commutes with evaluation: it
    maps the universe layer onto itself and keeps whether a member refutes.
    The oracles therefore evaluate one member per renaming class there and
    count the others in ``instances_checked``; ``_walk`` finds those members
    once per shape of the layer."""
    facts = sorted(canonical.facts, key=str)
    own = range(len(facts))
    subsets = itertools.chain.from_iterable(
        itertools.combinations(own, k) for k in range(len(own) - 1, 0, -1)
    )
    yield _Layer(facts, subsets, False, False)
    universe = _fact_universe(sem, query)
    pool = range(len(universe))
    sizes = range(1, budget + 1)
    cap = max(max_instances, 0)
    exhaustive = itertools.chain.from_iterable(itertools.combinations(pool, k) for k in sizes)
    rng = random.Random(rng_seed)
    drawn = (rng.sample(pool, min(rng.randint(1, max(1, budget)), len(pool))) for _ in range(200))
    cut = sum(math.comb(len(pool), k) for k in sizes) > cap
    yield _Layer(universe, itertools.chain(itertools.islice(exhaustive, cap), drawn), True, cut)


def _leading(facts: Sequence[Fact], atom: Atom, node: str) -> set:
    """Indices of the facts that lead from ``node`` along ``atom``."""
    if atom.inverse:
        return {i for i, f in enumerate(facts) if f.relation == atom.base and f.object == node}
    return {i for i, f in enumerate(facts) if f.relation == atom.base and f.subject == node}


class _Walk(NamedTuple):
    """A universe layer walked once.  ``firsts`` holds the first member of
    each renaming class in family order as (position, mask, member): its
    1-based position in the layer, its fact bitmask and its fact indices.
    ``count`` is the layer's member count."""

    firsts: tuple
    count: int


# Renaming-class walks of the last few universe layers, keyed by the layer's
# shape, most recent last.  A walk depends on the plan only through the
# names its renamings must fix, so plans over the same relations with the
# same fixed names share one: a pass of the 9048 criterion-2 plans has four
# shapes, two per oracle, each walked once per process.  An OrderedDict, as
# in `cli._catalogs`, not `functools.lru_cache`, which would leave
# `__wrapped__` on a module attribute, where perfbench's selftest reads it as
# a tracer left bound.  `_classes` is looked up at each miss, so a wrapper
# bound there (a test's counter) sees every real walk.
_WALK_MEMO_SIZE = 8
_walks: "OrderedDict[tuple, _Walk]" = OrderedDict()


def _walk(layer: _Layer, fixed: Set[str], budget: int, max_instances: int, rng_seed: int) -> _Walk:
    """The renaming-class walk of a universe layer, from the memo when a
    layer of the same shape was walked before.  The shape is the layer's
    facts, its pool names outside ``fixed``, the budget, the cap and the rng
    seed: together they fix the layer's members and its renamings."""
    names = tuple(n for n in dict.fromkeys(f.subject for f in layer.facts) if n not in fixed)
    shape = (tuple(layer.facts), names, budget, max_instances, rng_seed)
    walk = _walks.get(shape)
    if walk is None:
        walk = _classes(layer, names)
        if len(_walks) >= _WALK_MEMO_SIZE:
            _walks.popitem(last=False)
        _walks[shape] = walk
    else:
        _walks.move_to_end(shape)
    return walk


def _classes(layer: _Layer, names: Sequence[str]) -> _Walk:
    """Walk ``layer`` keeping the first member of each class of the
    bijections of ``names``.  Per bijection a table gives the bit of the
    fact each fact maps to; a member's mask under the bijection is the sum
    of its facts' bits, and the least mask over all of them is the same for
    every member of a class.  The first bijection is the identity."""
    universe = layer.facts
    index = {(f.relation, f.subject, f.object): i for i, f in enumerate(universe)}
    tables = []
    for image in itertools.permutations(names):
        to = dict(zip(names, image))
        tables.append(
            [
                1 << index[f.relation, to.get(f.subject, f.subject), to.get(f.object, f.object)]
                for f in universe
            ]
        )
    firsts = []
    seen = set()
    count = 0
    for count, member in enumerate(layer.members, start=1):
        masks = [sum([bits[i] for i in member]) for bits in tables]
        key = min(masks)
        if key not in seen:
            seen.add(key)
            firsts.append((count, masks[0], tuple(member)))
    return _Walk(tuple(firsts), count)


def _lead(plan: ExecutionPlan) -> tuple:
    """The first atom of the first call and the constant it leaves from.

    Where no fact leads from the constant along that atom, the first call
    yields only a null row (optional edge) or none (standard), so the
    filter-free plan has no result."""
    first = plan.calls[0]
    return first.view.skeleton[0], first.source


def _search(
    plan: ExecutionPlan,
    query: AtomicQuery,
    budget: int,
    max_instances: int,
    mode: str,
    rng_seed: int,
    weak: bool,
) -> OracleReport:
    """The first member of the instance family on which the plan fails the
    weak (or the full) smartness test, as a witness.

    The canonical database is evaluated on the ``Instance`` that
    ``canonical_weak_database`` built.  A later member is built and
    evaluated only when it holds a fact leading from the plan's constant
    along its first atom and, for the weak test, a query-answer fact, and,
    in the universe layer, when it is the first of its renaming class.
    That layer is read from its shape's walk (``_walk``), which lists each
    class's first member with its position and fact bitmask: the renamings
    fix the plan's constant and the query constant, so they map the lead
    facts and the answer facts onto themselves and a class passes both
    tests whole or not at all.  Every member counts in
    ``instances_checked``: a refuting universe member at position p counts
    the canonical database, the subsets and p, a pass the layer's full
    count."""
    sem = plan_semantics(plan)
    compiled = _compile(plan, mode)

    def refutes(inst: Instance) -> bool:
        results, delivered = _answers(compiled, inst)
        if not results:
            return False
        answers = query_answers(query, inst)
        if weak:
            return bool(answers) and not (delivered & answers)
        return delivered != answers

    canonical = canonical_weak_database(sem, query)
    if refutes(canonical):
        return OracleReport(False, canonical, True, 1)
    checked = 1
    truncated = False
    atom, constant = _lead(plan)
    fixed = {query.constant, constant} | {const for _, const in plan.filters}
    for layer in _instance_family(canonical, sem, query, budget, max_instances, rng_seed):
        truncated = truncated or layer.cut
        facts = layer.facts
        leads = _leading(facts, atom, constant)
        # The full test needs no query-answer fact: it repeats the lead test.
        answering = _leading(facts, query.relation, query.constant) if weak else leads
        if layer.renamable:
            walk = _walk(layer, fixed, budget, max_instances, rng_seed)
            lead_bits = sum([1 << i for i in leads])
            answer_bits = sum([1 << i for i in answering])
            for position, mask, member in walk.firsts:
                if mask & lead_bits and mask & answer_bits:
                    inst = Instance([facts[i] for i in member])
                    if refutes(inst):
                        return OracleReport(False, inst, True, checked + position)
            checked += walk.count
            continue
        for member in layer.members:
            checked += 1
            if leads.isdisjoint(member) or answering.isdisjoint(member):
                continue
            inst = Instance([facts[i] for i in member])
            if refutes(inst):
                return OracleReport(False, inst, True, checked)
    return OracleReport(True, None, not truncated, checked)


def oracle_is_weakly_smart(
    plan: ExecutionPlan,
    query: AtomicQuery,
    budget: int = 6,
    max_instances: int = MAX_INSTANCES,
    mode: str = OPTIONAL_EDGE,
) -> OracleReport:
    """Search the instance family for a weak-smartness counterexample.

    Refutes when the query has answers, the filter-free plan has results,
    and the plan delivers no query answer at all.  (Bounded cores deliver
    every answer; loose cores are guaranteed at least one, which is the
    operative guarantee the characterization captures.)

    The plan is compiled once, and one pass per instance gives both the
    filter-free results and the plan's answers.  A member is evaluated only
    when it holds a query-answer fact and a fact leading from the plan's
    constant along its first atom; without either it cannot refute.  In the
    exhaustive and random layers, which draw from the query constant and
    three fresh names, a bijection of the fresh names that fixes the query
    constant, the plan's constant and the filter constants maps the plan's
    results, its answers and the query's answers along with the instance,
    so it keeps the verdict: only the first member of each renaming class
    is evaluated.  Which members those are depends on the layer's shape, not
    on the plan, so each shape's classes are walked once per process and
    shared by every later call.  A single call, as ``check --oracle``
    makes, walks its one layer as a confirmed plan did before; a plan that
    refutes inside that layer now walks the rest of it too.  Skipped
    members still count in
    ``instances_checked``, and the first refuting member is still the first
    in family order.

    ``max_instances`` caps only the exhaustive layer.  The canonical
    database and all 2^|facts| - 2 of its proper non-empty subsets are
    always checked, so ``instances_checked`` can exceed the cap; the report
    is marked incomplete only when the exhaustive layer was cut.
    """
    return _search(plan, query, budget, max_instances, mode, 97, weak=True)


def oracle_is_smart(
    plan: ExecutionPlan,
    query: AtomicQuery,
    budget: int = 6,
    max_instances: int = MAX_INSTANCES,
    mode: str = OPTIONAL_EDGE,
) -> OracleReport:
    """Refute smartness: some instance where the filter-free plan has results
    but the plan's answers differ from the query's.

    The plan is compiled once, and one pass per instance gives both result
    sets.  A member is evaluated only when it holds a fact leading from the
    plan's constant along its first atom; without one the filter-free plan
    has no result.  In the exhaustive and random layers, only the first
    member of each class of the bijections of the fresh names that fix the
    query constant, the plan's constant and the filter constants is
    evaluated: such a renaming maps both result sets and the query's
    answers along with the instance.  Each shape's classes are walked once
    per process, as in ``oracle_is_weakly_smart``.  Skipped members still
    count in ``instances_checked``.

    ``max_instances`` caps only the exhaustive layer.  The canonical
    database and all 2^|facts| - 2 of its proper non-empty subsets are
    always checked, so ``instances_checked`` can exceed the cap; the report
    is marked incomplete only when the exhaustive layer was cut.
    """
    return _search(plan, query, budget, max_instances, mode, 193, weak=False)
