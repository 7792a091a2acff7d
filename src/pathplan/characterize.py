"""Characterization of weakly smart and smart plans without execution.

A chained plan is weakly smart exactly when its semantics delivers a query
answer on its own canonical database: the one-path instance every
refutation proof constructs, on which a delivered answer replays over any
instance where the filter-free plan and the query both succeed.  Smart
plans are the bounded ones: the skeleton splits into a forward path
followed by a walk back through the reversed query atom and the forward
path, with one equality filter pinned next to the output inside a query
atom.

The canonical database is itself a line of oriented atoms, so both
decisions are walks along a line, answered yes or no by one kernel,
``_walk``: a frontier sweep over the word, with pins at every boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    PathSemantics,
    constraint_free_core,
    plan_semantics,
    reduce_plan,
    sub_function_transformation,
)

SMART = "smart"
WEAKLY_SMART_ONLY = "weaklySmartOnly"
NOT_WEAKLY_SMART = "notWeaklySmart"


@dataclass(frozen=True)
class Verdict:
    level: str


def _walk(line: tuple, word: tuple, start: int, pins: dict) -> bool:
    """Is there a walk along ``line`` from ``start`` emitting ``word``?

    Position p sits before line atom p: a forward step at p emits line[p]
    and moves to p+1; a backward step at p emits the inverse of line[p-1]
    and moves to p-1.  ``pins`` maps a boundary i of the word (the walk's
    position after i steps, 0 <= i <= len(word)) to the positions allowed
    there, so the pin at len(word) says where the walk may end.  The walk
    sweeps the word once, keeping the set of positions it can be at after
    each atom; a pin filters that set at its boundary, and the answer comes
    as soon as the set is empty or the word ends.
    """
    n = len(line)
    m = len(word)
    here = {start}
    for i in range(m + 1):
        if i in pins:
            here = here.intersection(pins[i])
        if not here or i == m:
            return bool(here)
        # Fields compare, not atoms: no inverse is built and no ``__eq__`` runs.
        base, inverse = word[i].base, word[i].inverse
        step = set()
        for pos in here:
            if pos >= 1 and line[pos - 1].base == base and line[pos - 1].inverse != inverse:
                step.add(pos - 1)
            if pos < n and line[pos].base == base and line[pos].inverse == inverse:
                step.add(pos + 1)
        here = step


def find_walk(base: Sequence[Atom], candidate: Sequence[Atom], target: int) -> bool:
    """Is there a walk through ``base`` emitting ``candidate`` that starts
    at position len(base) and ends at ``target``?"""
    base = tuple(base)
    return _walk(base, tuple(candidate), len(base), {len(candidate): (target,)})


def is_bounded(skeleton: Sequence[Atom], query: AtomicQuery) -> Optional[tuple]:
    """The shortest forward path P of a bounded split, or None.

    Tries every split of the skeleton into P and B and accepts when B is a
    walk through rev(q).P down to position 0.  The walk reaches position 0
    only by stepping back over rel^-, which emits rel, so a skeleton that
    does not end with rel is not bounded and no split is tried.
    """
    skeleton = tuple(skeleton)
    if skeleton[-1:] != (query.relation,):
        return None
    for m in range(len(skeleton)):
        forward = skeleton[:m]
        if find_walk((query.relation.invert(),) + forward, skeleton[m:], 0):
            return forward
    return None


def is_loosely_bounded(skeleton: Sequence[Atom], query: AtomicQuery) -> bool:
    """Is the skeleton loosely bounded?  A skeleton is loosely bounded
    exactly when it is weakly smart, so this is that decision."""
    return weakly_smart_skeleton(skeleton, query)


def weakly_smart_semantics(sem: PathSemantics, query: AtomicQuery) -> bool:
    """Decide weak smartness of a semantics by evaluating it on its
    canonical database.

    The canonical database (one query fact plus the skeleton laid over
    fresh constants from the query constant) is the completeness proofs'
    refutation witness, and an answer delivered there replays on every
    instance where the query and the filter-free plan both succeed.  It is
    the line ``rel^-`` + skeleton with the query constant at position 1,
    so evaluating the semantics there is a walk along that line from
    position 1.  A filter on the query constant pins its boundary to
    position 1; no other constant names a node of the line.  The output
    boundary is pinned to the query's answers: position 0, and position 2
    when the skeleton opens with the query atom.
    """
    fmap = sem.filter_map()
    if any(const != query.constant for const in fmap.values()):
        return False
    pins = dict.fromkeys(fmap, (1,))
    answers = (0, 2) if sem.skeleton[:1] == (query.relation,) else (0,)
    pins[sem.output] = tuple(p for p in answers if p in pins.get(sem.output, answers))
    line = (query.relation.invert(),) + sem.skeleton
    return _walk(line, sem.skeleton, 1, pins)


def weakly_smart_skeleton(skeleton: Sequence[Atom], query: AtomicQuery) -> bool:
    sem = PathSemantics(tuple(skeleton), (), len(skeleton))
    return len(skeleton) > 0 and weakly_smart_semantics(sem, query)


def is_weakly_smart(plan: ExecutionPlan, query: AtomicQuery) -> bool:
    """Decide weak smartness of the plan, filters included.

    The filtered semantics is evaluated on the canonical database of its
    own skeleton: filters survive there exactly when they sit on boundaries
    pinned to the input constant, which is what holds on every instance.
    A plan that the rewrites change is checked as given first, since they
    may drop the calls or outputs that leave it with no semantics.
    """
    kept = sub_function_transformation(reduce_plan(plan))
    if kept is not plan:
        plan_semantics(plan)
    return weakly_smart_semantics(plan_semantics(kept), query)


def is_well_filtering(plan: ExecutionPlan, query: AtomicQuery) -> bool:
    """All filters equate variables with the query constant, and the
    semantics contains the query atom applied to (constant, output)."""
    sem = plan_semantics(plan)
    return _well_filtering_sem(sem, query)


def _well_filtering_sem(sem: PathSemantics, query: AtomicQuery) -> bool:
    fmap = sem.filter_map()
    if any(const != query.constant for const in fmap.values()):
        return False
    return _has_query_atom_at_output(sem, query)


def _has_query_atom_at_output(sem: PathSemantics, query: AtomicQuery) -> bool:
    out = sem.output
    filtered = sem.filter_positions
    n = len(sem.skeleton)
    # rel(constant, output): atom at position `out`, preceded by the constant.
    if out >= 1 and sem.skeleton[out - 1] == query.relation:
        if out - 1 == 0 or out - 1 in filtered:
            return True
    # rel^-(output, constant): atom just after the output, ending at the constant.
    if out + 1 <= n and sem.skeleton[out] == query.relation.invert():
        if out + 1 in filtered:
            return True
    return False


def _filter_is_safe(sem: PathSemantics, query: AtomicQuery, pos: int) -> bool:
    """A filter position is harmless iff it sits inside a query atom that
    touches the output: rel at (pos, output=pos+1) or rel^- at (output=pos-1, pos)."""
    n = len(sem.skeleton)
    if pos + 1 <= n and sem.skeleton[pos] == query.relation and sem.output == pos + 1:
        return True
    if pos >= 1 and sem.skeleton[pos - 1] == query.relation.invert() and sem.output == pos - 1:
        return True
    return False


def _core_skeleton(plan: ExecutionPlan) -> tuple:
    return plan_semantics(constraint_free_core(plan)).skeleton


def is_smart(plan: ExecutionPlan, query: AtomicQuery) -> Verdict:
    """Three-way verdict: smart, weakly smart only, or neither.

    Smartness holds when the plan is well-filtering, every filter sits inside
    a query atom adjacent to the output, and the constraint-free core is
    bounded.
    """
    sem = plan_semantics(plan)
    if (
        _well_filtering_sem(sem, query)
        and all(_filter_is_safe(sem, query, p) for p in sem.filter_positions)
        and is_bounded(_core_skeleton(plan), query) is not None
    ):
        return Verdict(SMART)
    if is_weakly_smart(plan, query):
        return Verdict(WEAKLY_SMART_ONLY)
    return Verdict(NOT_WEAKLY_SMART)
