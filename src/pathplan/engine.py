"""State-space enumeration of minimal weakly smart and smart plans.

The search scans forward-path positions left to right.  A state is a set of
positioned function members: forward members emit their current atom and
count up, backward members emit the inverse of theirs and count down, and
exactly one forward member is designated as the forward-path builder.  The
search enters only consistent states, whose active members all emit the
same atom: a state whose advanced members disagree matches no line of
atoms, so it is dropped before anything joins it.  A backward member
exhausting means a call starts at the current position; a forward member
running out means a call ends there.  Minimal plans allow at most one of
each per state and never repeat a state, which bounds the search and makes
it terminate on all inputs.

Functions whose body contains an x.x^- pivot may cross a turning point:
their two halves enter the state together as a forward and a backward
member tied to one call.  Calls that dive through the query atom to the
bottom of the walk align with the first scanned position, so they are
seeded explicitly rather than discovered mid-scan.

Every structure that can join a state (an ender, beginner, valley or
designated call, a beginner-ender pair, a seed extra) is a template:
members without a token, plus the atom it emits on entry.  Each of its
calls says once, where it is built, how many atoms it adds to the forward
path and which stretch of the backward walk it covers, as offsets from the
scan it enters at.  A state looks its candidates up by the atom its
members emit next, in closure order, and runs every check on the
templates; a combination is stamped with fresh tokens and its entry scan
only when it joins, so one template can become several calls of a plan.
A plan is assembled from the stamped records: the forward path's pieces
in the order they were stamped, then the walk stretches chained from the
path's top to the walk's end.

The templates that follow from the closure alone (the ender, beginner,
valley and designated tables and the beginner-ender pairs) are built once
per closure value and shared by every query and seed mode on an equal
closure, through a small LRU cache.  They hold no query, token or search
state, so results never depend on what the cache holds.

A smart plan is a bounded core plus one filter on the query constant inside
a query atom next to the output.  The one shape a call sequence can take is
read off its last call (``_smart_shape``).  Smart enumeration and
``smart_plan_exists`` run the same search, seeded in four modes, and decide
its results by that shape and one memo of bounded cores per query.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Sequence

from .characterize import is_bounded, weakly_smart_skeleton
from .model import (
    AtomicQuery,
    ExecutionPlan,
    PathFunction,
    SubFunction,
    catalog_closure,
    chain_plan,
)

FORWARD = True
BACKWARD = False


class EngineError(Exception):
    pass


class EmptyCatalogError(EngineError):
    pass


class NotWeaklySmartError(EngineError):
    pass


@dataclass(frozen=True)
class Member:
    """One positioned function (or function half) inside a search state.

    ``index`` is 1-based into ``atoms``.  A forward member with index < 1 is
    pending and activates later; a backward member with index beyond its
    length idles until the scan reaches its window.  ``token`` ties the
    member to a call and is excluded from state identity.  ``emissions``
    holds the atom emitted at each index (the inverse atoms for a backward
    member); it follows from ``atoms`` and ``forward``.
    """

    fn_key: tuple
    atoms: tuple
    index: int
    forward: bool
    designated: bool = False
    token: int = field(default=-1, compare=False, hash=False)
    emissions: tuple = field(default=None, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.emissions is None:
            emissions = self.atoms if self.forward else tuple(a.invert() for a in self.atoms)
            object.__setattr__(self, "emissions", emissions)

    def emission(self):
        if 1 <= self.index <= len(self.atoms):
            return self.emissions[self.index - 1]
        return None


def _at(m: Member, index: int, token: int) -> Member:
    """``m`` at ``index`` with ``token`` (faster than ``replace``)."""
    return Member(m.fn_key, m.atoms, index, m.forward, m.designated, token, m.emissions)


@dataclass(frozen=True)
class SuccessorRecord:
    advanced: frozenset
    started: tuple = ()
    ended: tuple = ()


_CLASH = object()


def _common_emission(members: Iterable[Member]):
    """The atom every active member emits, None when no member is active,
    or ``_CLASH`` when they disagree."""
    found = None
    for m in members:
        e = m.emission()
        if e is None:
            continue
        if found is None:
            found = e
        elif e != found:
            return _CLASH
    return found


def state_consistent(members: Iterable[Member]) -> bool:
    """All active members emit the same atom."""
    return _common_emission(members) is not _CLASH


def search_successors(members: Iterable[Member]) -> SuccessorRecord:
    """Advance every member one scan step, collecting starts and ends."""
    advanced = []
    started = []
    ended = []
    for m in members:
        if m.forward:
            if m.index < 1:
                advanced.append(_at(m, m.index + 1, m.token))
            elif m.index + 1 > len(m.atoms):
                ended.append(m)
            else:
                advanced.append(_at(m, m.index + 1, m.token))
        else:
            if m.index > len(m.atoms):
                advanced.append(_at(m, m.index - 1, m.token))
            elif m.index == 1:
                started.append(m)
            else:
                advanced.append(_at(m, m.index - 1, m.token))
    return SuccessorRecord(frozenset(advanced), tuple(started), tuple(ended))


@dataclass
class _CallRec:
    """A stamped call's share of a plan: the atoms it adds to the forward
    path (0 for none) and the walk positions it spans (None for none).  A
    turn call whose descent enters first has two records under one token,
    the descent's stretch and the ascent's atoms."""

    token: int
    view: SubFunction
    path_atoms: int
    stretch: Optional[tuple]


@dataclass(frozen=True)
class _Obligation:
    """The seed call's ascending half joins as the final designated piece at
    a fixed scan; enter_scan < 0 marks a consumed obligation."""

    token: int
    view: SubFunction
    window: tuple
    enter_scan: int


@dataclass(frozen=True)
class _Call:
    """One call's share of a candidate structure, not yet stamped: members
    without a token.

    ``stretch`` gives the walk positions the call spans, from start to
    end, as offsets from the scan it enters at; None when it has no walk
    piece.  ``path_atoms``, the length of its designated window,
    is what it adds to the forward path.  Calls that reach the query atom
    (trailing, tail and dip calls) enter only at scan 1, where walk
    position 0 lies at offset -1.

    A turn call whose descent enters first names its ascending half's
    ``ascent`` window, which joins ``ascent_after`` scans after the entry
    as the final designated piece.  A ``continues`` call is such an ascent:
    it takes the token of the pending obligation's call and consumes it.
    """

    view: SubFunction
    members: tuple
    stretch: Optional[tuple] = None
    ascent: Optional[tuple] = None
    ascent_after: int = 0
    continues: bool = False
    path_atoms: int = field(init=False)

    def __post_init__(self):
        atoms = sum(len(m.atoms) for m in self.members if m.designated)
        object.__setattr__(self, "path_atoms", atoms)


@dataclass(frozen=True)
class _Structure:
    """Calls entering a state together, with what the run-time checks read:
    the atom their active members emit at entry (None if none is active),
    their members as a set, how many are designated, and whether a call
    opens an obligation."""

    calls: tuple
    member_set: frozenset
    emission: object
    designated: int
    opens: bool


def _structure(*calls: _Call) -> Optional[_Structure]:
    """The calls as one structure, or None when their members clash or
    repeat, which no state admits."""
    members = [m for c in calls for m in c.members]
    emission = _common_emission(members)
    member_set = frozenset(members)
    if emission is _CLASH or len(member_set) != len(members):
        return None
    return _Structure(
        calls,
        member_set,
        emission,
        sum(1 for m in members if m.designated),
        any(c.ascent is not None for c in calls),
    )


def _pair(b: _Structure, e: _Structure) -> Optional[_Structure]:
    """A beginner and an ender entering together, or None when they clash,
    share a member or both open an obligation."""
    if (
        not _compatible(b.emission, e.emission)
        or not b.member_set.isdisjoint(e.member_set)
        or (b.opens and e.opens)
    ):
        return None
    return _Structure(
        b.calls + e.calls,
        b.member_set | e.member_set,
        e.emission if b.emission is None else b.emission,
        b.designated + e.designated,
        b.opens or e.opens,
    )


def _ascent(view: SubFunction, window: tuple) -> _Structure:
    """The final designated piece that consumes an obligation."""
    m = Member(view.key + (1, len(window)), window, 1, FORWARD, designated=True)
    return _structure(_Call(view, (m,), continues=True))


def _compatible(a, b) -> bool:
    return a is None or b is None or a == b


def _fits(structures) -> bool:
    """Can the structures form one state: one emitted atom, no repeated
    member, exactly one designated member?"""
    atom = None
    seen = frozenset()
    designated = 0
    for s in structures:
        if not _compatible(atom, s.emission) or not seen.isdisjoint(s.member_set):
            return False
        atom = atom if s.emission is None else s.emission
        seen = seen | s.member_set
        designated += s.designated
    return designated == 1


def _seed_order(structures: Sequence[_Structure], atom) -> list:
    """The structures emitting ``atom``, then those emitting nothing; for
    None, every structure grouped by emission in order of first
    appearance."""
    if atom is None:
        groups = {}
        for s in structures:
            groups.setdefault(s.emission, []).append(s)
        return [s for group in groups.values() for s in group]
    return [s for s in structures if s.emission == atom] + [
        s for s in structures if s.emission is None
    ]


class _Table:
    """Structures of one kind in generation order, looked up by the atom
    they must emit at entry."""

    def __init__(self, structures: Iterable[Optional[_Structure]]):
        self.all = [s for s in structures if s is not None]
        self._matching = {}

    def matching(self, atom) -> list:
        """The structures emitting ``atom`` or nothing, in table order;
        every structure when ``atom`` is None."""
        if atom is None:
            return self.all
        found = self._matching.get(atom)
        if found is None:
            found = [s for s in self.all if s.emission is None or s.emission == atom]
            self._matching[atom] = found
        return found


class _Templates:
    """What the search builds from the closure alone: the ender, beginner,
    valley and designated tables and the beginner-ender pairs.

    Nothing here depends on a query, a seed mode or a run, so one instance
    serves every search on an equal closure (``_templates``).  It never
    changes after construction except for the lookups that ``_Table`` and
    ``pairs`` fill on first use, which follow from the closure too.
    """

    def __init__(self, closure: tuple):
        self.closure = closure
        self._loops = []
        for v in closure:
            p = v.parent.pivot()
            if p is not None and p < len(v):
                self._loops.append((v, p))
        self.enders = _Table(_structure(c) for c in self._ender_calls())
        self.beginners = _Table(_structure(c) for c in self._beginner_calls())
        self.valleys = _Table(_structure(c) for c in self._valley_calls())
        self.designated = _Table(_structure(c) for c in self._designated_calls())
        self._pair_lists = {}

    def pairs(self, atom) -> list:
        """Beginner-ender pairs emitting ``atom`` or nothing (every pair for
        None), beginners outermost, built on first lookup."""
        found = self._pair_lists.get(atom)
        if found is None:
            enders = self.enders.matching(atom)
            pairs = (_pair(b, e) for b in self.beginners.matching(atom) for e in enders)
            found = self._pair_lists[atom] = [p for p in pairs if p is not None]
        return found

    def _ender_calls(self):
        """Calls whose walk stretch ends at the entry position."""
        for v in self.closure:
            sk = v.skeleton
            m = Member(v.key + (1, len(sk)), sk, len(sk), BACKWARD)
            yield _Call(v, (m,), (len(sk), 0))
        for v, pivot in self._loops:
            sk = v.skeleton
            a_win = sk[:pivot]
            d_win = sk[pivot:]
            idx0 = len(a_win) - len(d_win) + 1
            if idx0 <= 1:
                # Peak call descending into this position; its ascending half
                # is pending until the scan reaches its window.
                m1 = Member(v.key + (1, pivot), a_win, idx0, FORWARD)
                m2 = Member(v.key + (pivot + 1, len(sk)), d_win, len(d_win), BACKWARD)
                yield _Call(v, (m1, m2), (len(d_win) - len(a_win), 0))
            if len(d_win) > len(a_win):
                # Turn call whose descent enters first; the ascent joins
                # later as the final designated piece.
                m2 = Member(v.key + (pivot + 1, len(sk)), d_win, len(d_win), BACKWARD)
                yield _Call(
                    v,
                    (m2,),
                    (len(d_win), 0),
                    ascent=a_win,
                    ascent_after=len(d_win) - len(a_win),
                )

    def _beginner_calls(self):
        """Calls whose walk stretch begins at the entry position."""
        for v in self.closure:
            sk = v.skeleton
            m = Member(v.key + (1, len(sk)), sk, 1, FORWARD)
            yield _Call(v, (m,), (0, len(sk)))
        for v, pivot in self._loops:
            # Peak call climbing from this position; its descending half
            # idles until the scan reaches its window.
            sk = v.skeleton
            a_win = sk[:pivot]
            d_win = sk[pivot:]
            if len(d_win) > len(a_win):
                continue
            m1 = Member(v.key + (1, pivot), a_win, 1, FORWARD)
            m2 = Member(v.key + (pivot + 1, len(sk)), d_win, len(a_win), BACKWARD)
            yield _Call(v, (m1, m2), (0, len(a_win) - len(d_win)))

    def _valley_calls(self):
        """Single calls descending into and climbing out of the entry
        position."""
        for v, pivot in self._loops:
            sk = v.skeleton
            pre = sk[:pivot]
            post = sk[pivot:]
            m1 = Member(v.key + (1, pivot), pre, pivot, BACKWARD)
            m2 = Member(v.key + (pivot + 1, len(sk)), post, 1, FORWARD)
            yield _Call(v, (m1, m2), (len(pre), len(post)))

    def _designated_calls(self):
        """The forward path's next piece: any view, or a turn call whose
        last forward piece and first walk descent cross the top."""
        for v in self.closure:
            sk = v.skeleton
            m = Member(v.key + (1, len(sk)), sk, 1, FORWARD, designated=True)
            yield _Call(v, (m,))
        for v, pivot in self._loops:
            sk = v.skeleton
            a_win = sk[:pivot]
            d_win = sk[pivot:]
            if len(d_win) > len(a_win):
                continue
            m1 = Member(v.key + (1, pivot), a_win, 1, FORWARD, designated=True)
            m2 = Member(v.key + (pivot + 1, len(sk)), d_win, len(a_win), BACKWARD)
            yield _Call(v, (m1, m2), (len(a_win), len(a_win) - len(d_win)))


# A catalog's queries and modes run back to back, so a few entries serve
# them all.  Kept below ten, the catalog count of the smallest perfbench
# pass, so that no timed pass reuses templates built in an earlier one.
@functools.lru_cache(maxsize=8)
def _templates(closure: tuple) -> _Templates:
    """The templates of ``closure``, shared through an LRU cache.

    Closures are keyed by value (views, their parents' names, bodies and
    outputs), so equal catalogs share an entry and catalogs that differ in
    any body or output never do.
    """
    return _Templates(closure)


# ``lru_cache`` sets ``__wrapped__``, which perfbench's selftest reads as a
# tracer wrapper left bound; ``cache_clear`` and ``cache_info`` stay.
del _templates.__wrapped__


@dataclass
class _SearchStats:
    states_visited: int = 0
    plans_emitted: int = 0
    cause: Optional[str] = None  # what cut the search last: "deadline", "depth" or "plan cap"

    @property
    def truncated(self) -> bool:
        return self.cause is not None


class _StopSearch(Exception):
    pass


# Where the walk of a seed's plan ends: at 0 past the query atom, or at 1.
_WALK_END = {"bounded": 0, "inverse": 0, "loose": 1, "to1": 1}

# The smart search's seed modes: the weak ones, whose results serve as
# cores, then the two whose final call runs past the query atom.
_SMART_MODES = ("bounded", "loose", "inverse", "to1")


class _Searcher:
    """One depth-first run over all seeds for a fixed query and closure.

    ``modes`` names the seed families, in the order they run; each result
    is a ``(views, mode)`` pair carrying the mode of its seed.

    Every structure that can join a state is a template without token or
    entry scan.  The tables of enders, beginners, valleys and designated
    calls, and the beginner-ender pairs, come from the closure alone: they
    are built once per closure and shared with every other searcher on an
    equal closure (``_templates``).  The query's own structures (dips,
    lead calls, tails and bottoms), the seeds, tokens, the visited set and
    the stats belong to this run.  A state looks its candidates up by the
    atom it emits next, checks them as templates and stamps a combination
    with fresh tokens only when it joins.
    """

    def __init__(
        self,
        closure: Sequence[SubFunction],
        query: AtomicQuery,
        modes: Sequence[str] = ("bounded", "loose"),
        max_depth: int = 64,
        max_plans: int = 10000,
        deadline: Optional[float] = None,
        single: bool = False,
        emit_gate: Optional[Callable] = None,
    ):
        self.closure = list(closure)
        self.query = query
        self.modes = tuple(modes)
        self.max_depth = max_depth
        self.max_plans = max_plans
        self.deadline = deadline
        self.single = single
        self.emit_gate = emit_gate
        self.visited = set()
        self.stats = _SearchStats()
        self.results: List[tuple] = []
        self._token_counter = itertools.count()
        templates = _templates(tuple(self.closure))
        self._enders = templates.enders
        self._beginners = templates.beginners
        self._valleys = templates.valleys
        self._designated = templates.designated
        self._pairs = templates.pairs

    @functools.cached_property
    def past_query(self) -> list:
        """Two-output views ending with the query atom then its inverse:
        the final calls of the ``inverse`` and ``to1`` modes, whose filter
        sits past the output.  Scanned for once per search."""
        ending = (self.query.relation, self.query.relation.invert())
        return [v for v in self.closure if v.skeleton[-2:] == ending and _two_output_able(v)]

    def run(self):
        try:
            for members, recs, obligation, mode in self._seeds():
                self._search(frozenset(members), 1, recs, obligation, mode, [])
        except _StopSearch:
            return

    def _stamp(self, structure: _Structure, entry: int, members: list, recs: list, obligation):
        """Give each call of the structure, in call order, the entry scan and
        a fresh token (an ascent takes its obligation's), adding its members
        and records; returns the obligation once the structure has joined."""
        for call in structure.calls:
            if call.continues:
                tok = obligation.token
                obligation = replace(obligation, enter_scan=-1)
            else:
                tok = next(self._token_counter)
            members.extend(_at(m, m.index, tok) for m in call.members)
            stretch = call.stretch
            if stretch is not None:
                stretch = (entry + stretch[0], entry + stretch[1])
            recs.append(_CallRec(tok, call.view, call.path_atoms, stretch))
            if call.ascent is not None:
                obligation = _Obligation(tok, call.view, call.ascent, entry + call.ascent_after)
        return obligation

    # -- the query's own structures -------------------------------------------

    def _lead_calls(self):
        """The loose-mode first call, which also carries the leading query
        atom."""
        rel = self.query.relation
        for v in self.closure:
            sk = v.skeleton
            if len(sk) < 2 or sk[0] != rel:
                continue
            pivot = v.parent.pivot()
            if pivot is None or pivot < 2:
                window = sk[1:]
                m = Member(v.key + (2, len(sk)), window, 1, FORWARD, designated=True)
                yield _Call(v, (m,))
                continue
            a_win = sk[1:pivot]
            d_win = sk[pivot:]
            if a_win and len(d_win) <= len(a_win):
                m1 = Member(v.key + (2, pivot), a_win, 1, FORWARD, designated=True)
                m2 = Member(v.key + (pivot + 1, len(sk)), d_win, len(a_win), BACKWARD)
                yield _Call(v, (m1, m2), (len(a_win), len(a_win) - len(d_win)))

    def _tail_calls(self):
        """Calls entering at walk position 0 and ending the walk at 1."""
        rel = self.query.relation
        for v in self.closure:
            sk = v.skeleton
            if sk == (rel.invert(),):
                yield _Call(v, (), (-1, 0))
            elif len(sk) >= 3 and sk[0] == rel.invert():
                pivot = v.parent.pivot()
                if pivot is None or pivot < 2 or pivot >= len(sk):
                    continue
                a_win = sk[1:pivot]
                d_win = sk[pivot:]
                if not a_win or len(a_win) != len(d_win):
                    continue
                m1 = Member(v.key + (2, pivot), a_win, 1, FORWARD)
                m2 = Member(v.key + (pivot + 1, len(sk)), d_win, len(a_win), BACKWARD)
                yield _Call(v, (m1, m2), (-1, 0))

    def _dip_calls(self):
        """Mid-walk calls diving through the query atom and climbing back."""
        rel = self.query.relation
        for v in self.closure:
            pivot = v.parent.pivot()
            sk = v.skeleton
            if pivot is None or pivot >= len(sk):
                continue
            if sk[pivot - 1] != rel:
                continue
            alpha = sk[: pivot - 1]
            beta = sk[pivot + 1 :]
            if not alpha and not beta:
                continue  # pure dive-and-return: removable, never minimal
            members = []
            if alpha:
                members.append(Member(v.key + (1, pivot - 1), alpha, len(alpha), BACKWARD))
            if beta:
                members.append(Member(v.key + (pivot + 2, len(sk)), beta, 1, FORWARD))
            yield _Call(v, tuple(members), (len(alpha), len(beta)))

    # -- seed construction ---------------------------------------------------

    def _seeds(self):
        """Initial states: a designated start, a bottom structure, and at
        most one extra structure touching the first scanned position.

        All members whose atom windows align with scan 1 must be present in
        the seed; anything touching only later positions joins through
        start/end events during the search.  A seed's calls are stamped in
        the order extra, designated, bottom.
        """
        # One-call extras: dives through the query atom and valleys.
        single_extras = [s for s in map(_structure, self._dip_calls()) if s is not None]
        single_extras += self._valleys.all
        lead = [s for s in map(_structure, self._lead_calls()) if s is not None]
        # Seed-ordered candidates per atom the bottom emits, sorted once per
        # run: the extras, led by None for no extra, and the designated
        # options (the lead calls in loose mode).
        extras = {}
        orders = {True: {}, False: {}}
        for mode in self.modes:
            loose = mode == "loose"
            designated = lead if loose else self._designated.all
            options = orders[loose]
            for bottom, crosses in self._bottoms(mode):
                if bottom is None:
                    continue
                want = bottom.emission
                if want not in options:
                    options[want] = _seed_order(designated, want)
                extra_list = (None,)
                if not crosses:
                    extra_list = extras.get(want)
                    if extra_list is None:
                        extra_list = extras[want] = [None] + _seed_order(
                            single_extras + self._pairs(want), want
                        )
                for extra, des in self._seed_combos(mode, bottom, extra_list, options[want]):
                    members, recs = [], []
                    ascent = des.calls[0].continues
                    ob = None
                    if extra is not None:
                        ob = self._stamp(extra, 1, members, recs, ob)
                    if not ascent:
                        ob = self._stamp(des, 1, members, recs, ob)
                    ob = self._stamp(bottom, 1, members, recs, ob)
                    if ascent:  # consumes the obligation the bottom opened
                        ob = self._stamp(des, 1, members, recs, ob)
                    yield members, recs, ob, mode

    @staticmethod
    def _seed_combos(mode, bottom, extra_list, options):
        """(extra, designated) structures that form a state with the bottom.

        At most one extra joins: None, a one-call extra or a beginner-ender
        pair from ``extra_list``.  An obligation the bottom opens at scan 1
        must be consumed there: its ascent is then the only designated
        option.  Candidates are taken in seed order (``_seed_order``).
        """
        turn = next((c for c in bottom.calls if c.ascent is not None), None)
        if turn is not None and turn.ascent_after == 0:
            if mode == "loose":
                return  # the lead call must own the first designated piece
            options = [_ascent(turn.view, turn.ascent)]
        for extra in extra_list:
            if extra is not None and extra.opens and bottom.opens:
                continue  # at most one pending obligation
            for des in options:
                parts = (des, bottom) if extra is None else (des, bottom, extra)
                if _fits(parts):
                    yield extra, des

    @staticmethod
    def _trailing_call(view: SubFunction, drop: int) -> _Call:
        """A final call descending straight to position 1, then the implicit
        query atom; the last ``drop`` atoms, at least one fewer than the
        view has, are excluded from the scan."""
        sk = view.skeleton
        window = sk[: len(sk) - drop]
        m = Member(view.key + (1, len(window)), window, len(window), BACKWARD)
        return _Call(view, (m,), (len(window), -1))

    def _bottoms(self, mode):
        """Final structures of one seed mode, each with a flag marking
        bottoms that already cross the query atom (no extra joins them).

        ``inverse`` bottoms descend to the query atom inside a final call
        whose skeleton runs one inverse query atom past it; ``to1`` bottoms
        end the walk at position 1, for a final ``(rel, rel^-)`` call to
        close.  Both exist only when such final calls do.
        """
        if mode == "bounded":
            yield from self._bounded_bottoms()
        elif mode == "loose":
            yield from self._loose_bottoms()
        elif mode == "inverse":
            for f in self.past_query:
                if len(f) >= 3:
                    yield _structure(self._trailing_call(f, 2)), False
        elif mode == "to1":
            if any(len(f) == 2 for f in self.past_query):
                for s in self._enders.all:
                    yield s, False

    def _bounded_bottoms(self):
        """Final-call structures whose skeleton ends with the query atom."""
        rel = self.query.relation
        for v in self.closure:
            sk = v.skeleton
            if len(sk) < 2 or sk[-1] != rel:
                continue
            yield _structure(self._trailing_call(v, 1)), False
            pivot = v.parent.pivot()
            if pivot is not None and pivot + 1 <= len(sk) - 1:
                # Turn usage: climb to the pivot, then descend to the
                # implicit query atom.  The climb is either the forward
                # path's final piece (joining later as designated) or a
                # mid-walk ascent (pending member).
                a_win = sk[:pivot]
                d_win = sk[pivot : len(sk) - 1]
                if len(d_win) < len(a_win):
                    continue
                m_d = Member(v.key + (pivot + 1, len(sk) - 1), d_win, len(d_win), BACKWARD)
                after = len(d_win) - len(a_win)
                yield _structure(
                    _Call(v, (m_d,), (len(d_win), -1), ascent=a_win, ascent_after=after)
                ), False
                m_a = Member(v.key + (1, pivot), a_win, 1 - after, FORWARD)
                yield _structure(_Call(v, (m_a, m_d), (after, -1))), False

    def _loose_bottoms(self):
        """Final structures for walks ending at position 1.

        Every ender structure at the first scan position ends the walk
        there; dive-through endings and dip-terminal calls also qualify.
        """
        rel = self.query.relation
        for s in self._enders.all:
            yield s, False
        tails = list(self._tail_calls())
        for v in self.closure:
            sk = v.skeleton
            pivot = v.parent.pivot()
            # Dive-through ending: this call finishes with the query atom
            # (walk touches 0) and a tail call climbs back to position 1.
            if len(sk) >= 2 and sk[-1] == rel:
                base = self._trailing_call(v, 1)
                for tail in tails:
                    yield _structure(base, tail), True
            # Dip-terminal: the final call dives through the query atom and
            # climbs straight back to position 1.
            if (
                pivot is not None
                and pivot + 1 == len(sk)
                and pivot >= 2
                and sk[pivot - 1] == rel
            ):
                alpha = sk[: pivot - 1]
                m = Member(v.key + (1, pivot - 1), alpha, len(alpha), BACKWARD)
                yield _structure(_Call(v, (m,), (len(alpha), 0))), True

    # -- the depth-first search ------------------------------------------------

    def _state_key(self, members: frozenset, scan: int, obligation) -> tuple:
        ob = None
        if obligation is not None and obligation.enter_scan >= 0:
            ob = (obligation.view.key, obligation.window, obligation.enter_scan - scan)
        return (members, ob)

    def _search(self, members, scan, recs, obligation, mode, stack):
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.stats.cause = "deadline"
            raise _StopSearch
        if scan > self.max_depth:
            self.stats.cause = "depth"
            return
        if obligation is not None and 0 <= obligation.enter_scan < scan:
            return
        key = self._state_key(members, scan, obligation)
        if self.single:
            if key in self.visited:
                return
            self.visited.add(key)
        else:
            if key in stack:
                return
            stack.append(key)
        self.stats.states_visited += 1
        try:
            rec = search_successors(members)
            advanced = rec.advanced
            if not advanced:
                if obligation is None or obligation.enter_scan < 0:
                    self._emit(recs, mode)
                return
            started = list(rec.started)
            ended = list(rec.ended)
            # A forward half exhausting together with its own backward half
            # is the internal turn of one call, not a start/end pair.
            cancelled_designated = False
            for e in list(ended):
                for s in list(started):
                    if (
                        e.token == s.token
                        and e.forward
                        and not s.forward
                        and e.fn_key[3] < s.fn_key[2]
                    ):
                        ended.remove(e)
                        started.remove(s)
                        if e.designated:
                            cancelled_designated = True
                        break
            if cancelled_designated:
                return  # members persist past the turn's top: dead branch
            designated_ended = any(e.designated for e in ended)
            nondes_ends = [e for e in ended if not e.designated]
            # Pending/idle members activating behave like begin/end needs at
            # the next position (their stretch starts or ends there).
            acts_fwd = sum(1 for m in advanced if m.forward and m.index == 1)
            acts_bwd = sum(
                1 for m in advanced if not m.forward and m.index == len(m.atoms)
            )
            begins = len(started) + acts_fwd
            ends_n = len(nondes_ends) + acts_bwd
            if begins > 1 or ends_n > 1:
                return
            if designated_ended and (begins or ends_n):
                return
            self._expand(advanced, scan + 1, recs, obligation, mode, stack, designated_ended, begins, ends_n)
        finally:
            if not self.single:
                stack.pop()

    def _expand(self, advanced, entry, recs, obligation, mode, stack, designated_ended, begins, ends_n):
        """Search every child of a state: the advanced members plus the
        structure its needs call for and at most one valley crossing the
        entry position, which carries no need."""
        current = _common_emission(advanced)
        if current is _CLASH:
            # Members emitting different atoms match no line of atoms, so
            # no plan comes from them: drop the state.
            return
        moves_alone = not designated_ended and begins == ends_n
        # Joining members must emit the next state's atom, so the tables
        # give only structures emitting it (or nothing) at entry.
        if designated_ended:
            bases = self._designated.matching(current)
            if obligation is not None and obligation.enter_scan == entry:
                due = _ascent(obligation.view, obligation.window)
                if _compatible(due.emission, current):
                    bases = [due] + bases
        elif begins and ends_n:
            bases = ()
        elif begins:
            bases = self._enders.matching(current)
        elif ends_n:
            bases = self._beginners.matching(current)
        else:
            bases = self._pairs(current)
        valleys = [
            v for v in self._valleys.matching(current) if advanced.isdisjoint(v.member_set)
        ]
        need = 1 - sum(1 for m in advanced if m.designated)
        pending = obligation is not None and obligation.enter_scan >= 0
        if moves_alone:
            self._search(advanced, entry, recs, obligation, mode, stack)
            if need == 0:
                for valley in valleys:
                    self._join(advanced, entry, recs, obligation, mode, stack, (valley,))
        for base in bases:
            if (
                base.designated != need
                or (base.opens and pending)
                or not advanced.isdisjoint(base.member_set)
            ):
                continue
            self._join(advanced, entry, recs, obligation, mode, stack, (base,))
            for valley in valleys:
                if base.member_set.isdisjoint(valley.member_set) and _compatible(
                    base.emission, valley.emission
                ):
                    self._join(advanced, entry, recs, obligation, mode, stack, (base, valley))

    def _join(self, advanced, entry, recs, obligation, mode, stack, structures):
        """Stamp checked structures and search the state they form."""
        members = []
        recs = list(recs)
        for s in structures:
            obligation = self._stamp(s, entry, members, recs, obligation)
        self._search(advanced.union(members), entry, recs, obligation, mode, stack)

    # -- plan assembly -----------------------------------------------------------

    def _emit(self, recs: List[_CallRec], mode: str):
        views = self._assemble(recs, mode)
        if views is None:
            return
        if self.emit_gate is not None and not self.emit_gate(views):
            return
        self.results.append((views, mode))
        self.stats.plans_emitted += 1
        if self.single:
            raise _StopSearch
        if self.stats.plans_emitted >= self.max_plans:
            self.stats.cause = "plan cap"
            raise _StopSearch

    def _assemble(self, recs: List[_CallRec], mode: str) -> Optional[tuple]:
        """The plan's calls: the forward path's pieces in the order they
        were stamped, then the walk stretches chained from the path's top
        to the walk's end; None when they do not chain."""
        views = {}
        path = []
        walk = {}
        top = 1
        for rec in recs:
            views[rec.token] = rec.view
            if rec.path_atoms:
                top += rec.path_atoms
                path.append(rec.token)
            if rec.stretch is not None:
                walk[rec.token] = rec.stretch
        chain = self._chain_walk(walk, top, _WALK_END[mode])
        if chain is None:
            return None
        on_path = set(path)
        return tuple(views[tok] for tok in path) + tuple(
            views[tok] for tok in chain if tok not in on_path
        )

    @staticmethod
    def _chain_walk(walk: dict, start: int, terminal: int):
        """Order the walk stretches end-to-start from the forward path's top.

        Several stretches may share a top position (a turn call's descent can
        share it with a later climb), so the chaining backtracks.
        """
        tokens = sorted(walk)

        def go(current, remaining):
            if not remaining:
                return [] if current == terminal else None
            for tok in tokens:
                if tok not in remaining:
                    continue
                s, e = walk[tok]
                if s != current:
                    continue
                rest = go(e, remaining - {tok})
                if rest is not None:
                    return [tok] + rest
            return None

        return go(start, frozenset(tokens))


# -- public enumeration API --------------------------------------------------


@dataclass(frozen=True)
class PlanHit:
    plan: ExecutionPlan
    views: tuple
    shape: str  # "bounded" | "loose"


def _concat_skeleton(views: Sequence[SubFunction]) -> tuple:
    return tuple(a for v in views for a in v.skeleton)


def _weak_gate(query: AtomicQuery) -> Callable:
    """The weak gate on call sequences for ``query``, remembering each
    concatenated skeleton's verdict for as long as the gate is kept."""
    verdicts = {}

    def weak(views: Sequence[SubFunction]) -> bool:
        skeleton = _concat_skeleton(views)
        verdict = verdicts.get(skeleton)
        if verdict is None:
            verdict = verdicts[skeleton] = weakly_smart_skeleton(skeleton, query)
        return verdict

    return weak


def _bounded_gate(query: AtomicQuery) -> Callable:
    """Is a core skeleton bounded for ``query``?  Each skeleton's verdict
    is remembered for as long as the gate is kept."""
    verdicts = {}

    def bounded(skeleton: tuple) -> bool:
        verdict = verdicts.get(skeleton)
        if verdict is None:
            verdict = verdicts[skeleton] = is_bounded(skeleton, query) is not None
        return verdict

    return bounded


def _is_minimal_weak(views: tuple, query: AtomicQuery, weak: Callable) -> bool:
    """No proper subsequence of the weakly smart ``views`` is weakly smart."""
    if len(views) > 14:
        # Exhaustive subsequences explode; the embedding filter against
        # shorter accepted plans covers long candidates.
        return True
    return len(minimize_views(views, query, weak)) == len(views)


def _embeds(small: Sequence[SubFunction], big: Sequence[SubFunction], weaken: bool) -> bool:
    """Is ``small`` a subsequence of ``big``, with each call matched to one
    of the same parent (optionally at a shorter prefix)?"""
    i = 0
    for v in big:
        if i == len(small):
            break
        s = small[i]
        if s.parent.name == v.parent.name and (
            s.prefix == v.prefix or (weaken and s.prefix <= v.prefix)
        ):
            i += 1
    return i == len(small)


def _minimal_filter(candidates, weaken, explicit_check):
    """Keep candidates no accepted smaller plan embeds into.

    Candidates are processed shortest first, so any plan witnessing a
    candidate's non-minimality has had its own minimal core accepted
    earlier (the enumeration finds every minimal plan); embedding is
    transitive over subsequences.  ``explicit_check`` runs only on the
    candidates no accepted plan embeds, and accepts or rejects each.
    """
    ordered = sorted(
        candidates,
        key=lambda views: (
            len(views),
            sum(len(v) for v in views),
            tuple(v.name for v in views),
        ),
    )
    accepted = []  # (views, their parents' names)
    for views in ordered:
        parents = {v.parent.name for v in views}
        # A plan embeds only into a candidate calling all of its parents.
        if any(p <= parents and _embeds(a, views, weaken) for a, p in accepted):
            continue
        if not explicit_check(views):
            continue
        accepted.append((views, parents))
    return [views for views, _ in accepted]


def enumerate_minimal_weakly_smart(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    max_plans: int = 10000,
    deadline: Optional[float] = None,
) -> List[PlanHit]:
    """All minimal weakly smart plans, deduplicated and sorted.

    Every emitted plan's semantics is loosely bounded, no proper
    call-subsequence of it is, and each such plan is found at least once.
    """
    if not catalog:
        raise EmptyCatalogError("no functions")
    closure = catalog_closure(catalog)
    weak = _weak_gate(query)
    raw = [(v,) for v in closure if weak((v,))]
    # A call whose view is weakly smart on its own dominates every
    # multi-call plan containing it, so the search leaves those views out.
    searcher = _Searcher(
        [v for v in closure if not weak((v,))],
        query,
        max_plans=max_plans,
        deadline=deadline,
        emit_gate=weak,
    )
    searcher.run()
    raw.extend(views for views, _ in searcher.results)
    # Every candidate already passed the weak gate, as a single call or
    # through the searcher's emit gate.
    hits = {tuple(v.key for v in views): views for views in raw}
    minimal = _minimal_filter(
        list(hits.values()),
        weaken=False,
        explicit_check=lambda vs: _is_minimal_weak(vs, query, weak),
    )
    out = [
        PlanHit(chain_plan(views, query.constant), views, _shape_of(views, query))
        for views in minimal
    ]
    out.sort(key=lambda h: tuple(v.name for v in h.views))
    return out


@dataclass
class FindResult:
    """Find-one's answer.  ``truncated`` marks a search cut short, with
    ``cause`` naming the last cut ("deadline" or "depth"): then a missing
    hit does not mean that no plan exists."""

    hit: Optional[PlanHit]
    states_visited: int
    state_bound: int
    truncated: bool = False
    cause: Optional[str] = None


def find_one_weakly_smart(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    deadline: Optional[float] = None,
) -> FindResult:
    """First weakly smart plan found, minimized; visits each state once.

    The history is a persistent visited set without pops, so the number of
    explored states never exceeds the total state count.
    """
    if not catalog:
        raise EmptyCatalogError("no functions")
    closure = catalog_closure(catalog)
    bound = _state_bound(closure)
    weak = _weak_gate(query)
    for v in closure:
        if weak((v,)):
            return FindResult(
                PlanHit(chain_plan([v], query.constant), (v,), _shape_of((v,), query)),
                0,
                bound,
            )
    # No view is weakly smart on its own, so none dominates a longer plan.
    searcher = _Searcher(
        closure,
        query,
        max_plans=1,
        deadline=deadline,
        single=True,
        emit_gate=weak,
    )
    searcher.run()
    hit = None
    if searcher.results:
        views = minimize_views(searcher.results[0][0], query, weak)
        hit = PlanHit(chain_plan(views, query.constant), views, _shape_of(views, query))
    stats = searcher.stats
    return FindResult(hit, stats.states_visited, bound, stats.truncated, stats.cause)


def _shape_of(views: Sequence[SubFunction], query: AtomicQuery) -> str:
    """Shape of a weakly smart call sequence: "bounded" when its skeleton
    is, else "loose"."""
    return "bounded" if is_bounded(_concat_skeleton(views), query) is not None else "loose"


def _may_be_weak(head: tuple, last, query: AtomicQuery) -> bool:
    """Necessary for a weakly smart skeleton opening with ``head`` (its
    first two atoms, or its only one) and ending with ``last``.

    The walk along ``rel^-`` + skeleton ends at position 0, so its last
    step runs back over ``rel^-`` and emits ``rel``; or, for a skeleton
    opening with ``rel``, at position 2, reached forward over ``rel`` or
    backward over the second atom, emitting its inverse.
    """
    rel = query.relation
    return last == rel or (
        len(head) == 2 and head[0] == rel and last == head[1].invert()
    )


def minimize_views(views: tuple, query: AtomicQuery, weak: Callable) -> tuple:
    """Smallest weakly smart subsequence, searched by increasing size.

    A subsequence is gated by ``weak`` (``_weak_gate``) only when the atoms
    of its first and last calls pass ``_may_be_weak``.
    """
    for size in range(1, len(views) + 1):
        for combo in itertools.combinations(range(len(views)), size):
            head = views[combo[0]].skeleton[:2]
            if len(head) < 2 and size > 1:
                head += views[combo[1]].skeleton[:1]
            if not _may_be_weak(head, views[combo[-1]].skeleton[-1], query):
                continue
            sub = tuple(views[i] for i in combo)
            if weak(sub):
                return sub
    raise NotWeaklySmartError("no weakly smart subsequence")


def has_trivial_equivalent_rewriting(
    query: AtomicQuery, catalog: Sequence[PathFunction]
) -> bool:
    """Constraint-free equivalent rewriting: some view is the query atom."""
    return any(v.skeleton == (query.relation,) for v in catalog_closure(catalog))


@dataclass(frozen=True)
class BoundEstimate:
    state_bound: int
    max_function_length: int
    factorial_digits: int


def _state_bound(closure: Sequence[SubFunction]) -> int:
    """|closure|^(2k), k the longest view: the search's state count bound."""
    return len(closure) ** (2 * max(len(v) for v in closure))


def bound_estimate(catalog: Sequence[PathFunction]) -> BoundEstimate:
    """M = |closure|^(2k) and the digit count of M!, never materialized."""
    if not catalog:
        return BoundEstimate(0, 0, 0)
    closure = catalog_closure(catalog)
    k = max(len(v) for v in closure)
    m = _state_bound(closure)
    if m <= 1:
        digits = 1
    elif m < 10**15:
        digits = int(math.lgamma(m + 1) / math.log(10)) + 1
    else:
        # Stirling in log10 space for astronomically large M.
        log10_fact = (
            m * math.log10(m) - m / math.log(10) + 0.5 * math.log10(2 * math.pi * m)
        )
        digits = int(log10_fact) + 1
    return BoundEstimate(m, k, digits)


# -- smart plans ----------------------------------------------------------------


@dataclass(frozen=True)
class SmartHit:
    plan: ExecutionPlan
    views: tuple
    kind: str  # "trivial" | "terminal" | "inverse-terminal" | "appended-inverse"


def _two_output_able(view: SubFunction) -> bool:
    return len(view) >= 2 and (len(view) - 1) in view.bindable


def _is_tail(view: SubFunction, query: AtomicQuery) -> bool:
    """Can the view follow a bounded core as the final call: the bare
    inverse query atom, or a two-output ``(rel^-, rel)`` call?"""
    rel = query.relation
    return view.skeleton == (rel.invert(),) or (
        view.skeleton == (rel.invert(), rel) and _two_output_able(view)
    )


def _smart_shape(views: tuple, query: AtomicQuery) -> Optional[tuple]:
    """The one smart shape a call sequence can have, read off its last
    call: ``(kind, core skeleton)``, or None when no filter fits.

    - ``(rel)`` alone is ``trivial``, with no core;
    - a two-output last call ending with ``rel`` is ``terminal``: the core
      is the whole skeleton, the filter on the pair's first variable;
    - a last call ``(rel^-)`` after other calls is ``appended-inverse``:
      the core stops before it, the filter on its output;
    - a two-output last call ending with ``rel.rel^-`` is
      ``inverse-terminal``: the core stops one atom early, the filter on
      the pair's second variable.
    """
    rel = query.relation
    last = views[-1]
    sk = last.skeleton
    if sk == (rel,):
        return ("trivial", None) if len(views) == 1 else None
    inverse = rel.invert()
    if sk == (inverse,):
        if len(views) == 1:
            return None
        kind, drop = "appended-inverse", 1
    elif not _two_output_able(last):
        return None
    elif sk[-1] == rel:
        kind, drop = "terminal", 0
    elif sk[-2:] == (rel, inverse):
        kind, drop = "inverse-terminal", 1
    else:
        return None
    skeleton = _concat_skeleton(views)
    return kind, skeleton[: len(skeleton) - drop]


def _smartable(views: tuple, query: AtomicQuery, bounded: Callable) -> Optional[str]:
    """The kind of this call sequence's shape when its core is bounded
    (``bounded`` is the query's ``_bounded_gate``), else None."""
    shape = _smart_shape(views, query)
    if shape is None:
        return None
    kind, core = shape
    return kind if core is None or bounded(core) else None


def _smart_plan(views: tuple, kind: str, constant: str) -> ExecutionPlan:
    """The chained plan of smart shape ``kind`` on a call sequence, with
    its one filter on ``constant``."""
    if kind == "trivial":
        return chain_plan(views, constant)
    if kind == "appended-inverse":
        plan = chain_plan(views, constant)
        filtered, output = plan.calls[-1].outputs[-1], plan.calls[-2].outputs[-1]
    else:
        plan = chain_plan(views, constant, two_output_last=True)
        first, second = plan.calls[-1].outputs
        filtered, output = (first, second) if kind == "terminal" else (second, first)
    return ExecutionPlan(plan.calls, ((filtered, constant),), output)


def _is_minimal_smart(views: tuple, query: AtomicQuery, bounded: Callable) -> bool:
    """No call subsequence, with calls possibly weakened to shorter prefix
    views, admits a smart plan.

    Prefix weakening matters: replacing a call by the sub-function that
    stops at an earlier output can expose a shorter smart plan, and such a
    plan makes the longer one useless.
    """
    n = len(views)
    if n > 8:
        # The embedding filter against shorter accepted plans handles long
        # candidates; here only contiguous cuts are affordable.
        for i in range(n):
            for j in range(i, n):
                sub = views[:i] + views[j + 1 :]
                if sub and _smartable(sub, query, bounded):
                    return False
        return True
    options = [
        [SubFunction(v.parent, p) for p in v.parent.outputs if p <= v.prefix]
        for v in views
    ]
    tried = set()
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            for weakened in itertools.product(*[options[i] for i in combo]):
                if size == n and all(
                    w.prefix == views[i].prefix for w, i in zip(weakened, combo)
                ):
                    continue
                key = tuple(w.key for w in weakened)
                if key in tried:
                    continue
                tried.add(key)
                if _smartable(weakened, query, bounded):
                    return False
    return True


def enumerate_minimal_smart(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    max_plans: int = 10000,
    deadline: Optional[float] = None,
) -> List[SmartHit]:
    """All minimal smart plans: a bounded core plus a filter pinned inside
    a query atom adjacent to the output.

    One search, seeded in the four ``_SMART_MODES``, yields the candidate
    call sequences: single calls and bounded or loose results, each
    followed by a tail call, or alone when it has a shape; inverse
    results, whose final call runs past the query atom; and walks to
    position 1 closed by a two-atom ``(rel, rel^-)`` call.  A sequence has
    one shape, read off its last call (``_smart_shape``).

    Candidates are decided lazily: the minimality filter visits them
    shortest first, and only a sequence that no accepted plan embeds has
    its core's boundedness checked (once per core skeleton), its plan
    built and ``is_smart`` run on it.
    """
    from .characterize import SMART, is_smart

    if not catalog:
        raise EmptyCatalogError("no functions")
    closure = catalog_closure(catalog)
    searcher = _Searcher(
        closure, query, modes=_SMART_MODES, max_plans=max_plans, deadline=deadline
    )
    searcher.run()
    tails = [t for t in closure if _is_tail(t, query)]
    pairs = [f for f in searcher.past_query if len(f) == 2]
    cores = [(v,) for v in closure]
    cores += [views for views, mode in searcher.results if mode in ("bounded", "loose")]
    # A core without a shape of its own is a candidate only with a tail.
    candidates = [views for views in cores if _smart_shape(views, query)]
    candidates += [views + (t,) for views in cores for t in tails]
    for views, mode in searcher.results:
        if mode == "inverse":
            candidates.append(views)
        elif mode == "to1":
            candidates += [views + (f,) for f in pairs]
    unique = {tuple(v.key for v in views): views for views in candidates}
    bounded = _bounded_gate(query)
    hits = {}

    def smart_and_minimal(views):
        """Is the call sequence a smart plan, and minimal?  Records the
        hit of a smart one."""
        kind = _smartable(views, query, bounded)
        if kind is None:
            return False
        plan = _smart_plan(views, kind, query.constant)
        if is_smart(plan, query).level != SMART:
            return False
        hits[views] = SmartHit(plan, views, kind)
        return _is_minimal_smart(views, query, bounded)

    minimal = _minimal_filter(
        list(unique.values()), weaken=True, explicit_check=smart_and_minimal
    )
    out = [hits[views] for views in minimal]
    out.sort(key=lambda h: (tuple(v.name for v in h.views), h.kind))
    return out


def smart_plan_exists(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    deadline: Optional[float] = None,
) -> bool:
    """Does a smart plan exist?

    Runs ``enumerate_minimal_smart``'s search in single mode.  A result is
    accepted when it, or it followed by a tail call or by a two-atom
    ``(rel, rel^-)`` call, has a shape (``_smart_shape``) with a bounded
    core.  Single calls are checked the same way only when the search
    finds nothing.
    """
    closure = catalog_closure(catalog)
    if any(v.skeleton == (query.relation,) for v in closure):
        return True
    bounded = _bounded_gate(query)

    def gate(views):
        return any(_smartable(views + final, query, bounded) for final in finals)

    searcher = _Searcher(
        closure,
        query,
        modes=_SMART_MODES,
        max_plans=1,
        deadline=deadline,
        single=True,
        emit_gate=gate,
    )
    finals = [()] + [(t,) for t in closure if _is_tail(t, query)]
    finals += [(f,) for f in searcher.past_query if len(f) == 2]
    searcher.run()
    # The search answers most queries; single calls are checked only when
    # it finds nothing.
    return bool(searcher.results) or any(gate((v,)) for v in closure)


def susie_plans(query: AtomicQuery, catalog: Sequence[PathFunction]) -> List[SmartHit]:
    """Plans of shape F.F^-.query: a forward chain retraced by one final call.

    Every such plan is smart; the final call must expose the variable before
    its last one so the filter can be placed (or be the bare query atom).
    """
    closure = catalog_closure(catalog)
    rel = query.relation
    out = {}
    for f in closure:
        sk = f.skeleton
        if sk[-1] != rel:
            continue
        if len(sk) == 1:
            key = (f.key,)
            if key not in out:
                out[key] = SmartHit(chain_plan((f,), query.constant), (f,), "trivial")
            continue
        if not _two_output_able(f):
            continue
        target = tuple(a.invert() for a in reversed(sk[:-1]))

        def extend(prefix, covered):
            if covered == len(target):
                views = tuple(prefix) + (f,)
                key = tuple(v.key for v in views)
                if key not in out:
                    out[key] = SmartHit(
                        _smart_plan(views, "terminal", query.constant), views, "terminal"
                    )
                return
            for w in closure:
                wsk = w.skeleton
                if target[covered : covered + len(wsk)] == wsk:
                    extend(prefix + [w], covered + len(wsk))

        extend([], 0)
    return sorted(out.values(), key=lambda h: tuple(v.name for v in h.views))
