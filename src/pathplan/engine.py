"""State-space enumeration of minimal weakly smart and smart plans.

The search scans forward-path positions left to right.  A state is a set of
positioned function members: forward members emit their current atom and
count up, backward members emit the inverse of theirs and count down, and
exactly one active forward member is designated as the forward-path
builder.  The search enters only consistent states, whose active members
all emit the same atom: a state whose advanced members disagree matches no
line of atoms, so it is dropped before anything joins it.  A backward
member exhausting means a call starts at the current position; a forward
member running out means a call ends there.  Minimal plans allow at most
one of each per state and never repeat a state along their path, so the
search's one cycle check skips a state already on the current path.  That
check and the depth cap (``_MAX_DEPTH``) make it terminate on all inputs.
A state is its set of members and nothing else.

Functions whose body contains an x.x^- pivot may cross a turning point:
their two halves enter the state together as a forward and a backward
member tied to one call.  When the descent enters first, the ascent is a
pending forward member; a turn call's ascent, the forward path's last
piece, is a pending designated member, which takes over the forward path
only at the scan where the piece before it ends.  Calls that dive through
the query atom to the bottom of the walk align with the first scanned
position, so they are seeded explicitly rather than discovered mid-scan.

Every structure that can join a state (an ender, beginner, valley or
designated call, a beginner-ender pair, a seed extra) is a template:
members without a token, plus the atom it emits on entry.  Each member is
a window ``lo..hi`` of its view, keyed by it (``_piece``); a call is one
straight window (``_straight``) or two meeting at the view's pivot, a
peak, a turn or a valley (``_peak``, ``_turn``, ``_valley``; a dip,
``_dip``, is a valley without its two pivot atoms), so a family of calls
states only its guard and its stretch.  Each call says once, where it is built, how many atoms it adds
to the forward path and which stretch of the backward walk it covers, as
offsets from the scan it enters at.  A state looks its candidates up by
the atom its members emit next, in closure order, and runs every check on
the templates; a combination is stamped with fresh tokens and its entry
scan only when it joins, so one template can become several calls of a
plan.  Tokens need only be unique along a path and follow stamp order:
each seed numbers its calls from 0, its search goes on from there, and a
run stamps each seed structure once per first token, so seeds that share
a structure share its stamped members and records.  A plan is assembled
from the stamped records: the forward path's pieces in the order they
start, then the walk stretches chained from the path's top to the walk's
end.

The search drops a path as soon as its stretches can no longer chain
(``_Walk``).  Chaining needs one trail from the top to the walk end: every
position balanced but those two, and every stretch connected to the top.
Calls that join after scan 1 touch only walk positions past the scan they
enter at, and the top lies above the scan, so each scan closes a position
for good.  A path whose closed position is off its balance, or whose
stretches form a component that the scan closes, cannot assemble.

The templates that follow from the closure alone (the ender, beginner,
valley and designated tables and the beginner-ender pairs) are shared by
every query and seed mode on an equal closure, through a small LRU cache.
Each table buckets its call families by the atom they emit at entry, read
off the view's skeleton, and builds a bucket's structures on its first
lookup, so a closure's templates hold only what its searches looked up.
No seed reads a whole table.  The templates hold no query, token or search
state, so results never depend on what the cache holds or has built.

A smart plan is a bounded core plus one filter on the query constant inside
a query atom next to the output.  The one shape a call sequence can take is
read off its last call (``_smart_shape``), and a bounded core ends with the
query atom.  Before any search, one pass over the closure checks that such
a last call can exist (``_may_be_smart``): a ``(rel)`` view, a two-output
view ending with ``rel`` or ``rel.rel^-``, or a ``(rel^-)`` view together
with a view ending with ``rel``.  Where none does, no search runs.
Otherwise every candidate closes a bounded call sequence by one rule
(``_closings``): a ``terminal`` sequence is its own core, bounded whole,
whether or not it ends with a ``(rel^-, rel)`` tail call; an
``appended-inverse`` one is a bounded core and a ``(rel^-)`` tail call; an
``inverse-terminal`` one is a bounded core whose last call ``g`` gives way
to the view of ``g``'s parent one ``rel^-`` atom longer.  A bounded
sequence's walk ends at position 0, as do those of the weak search's
bounded seed mode, so smart enumeration and ``smart_plan_exists`` run that
mode alone: the loose mode's walks end at position 1.  Existence and
find-one stop their search at its first gated result.

Both enumerations keep the candidates that no smaller accepted plan embeds,
visited shortest first (``_minimal_filter``).  That filter is the only
minimality decision, and it is exact on a search that finishes.

Both enumerations, find-one and Susie's plans return one outcome type,
``Hits``: the hits in order (each a ``Hit``: plan, calls and kind), the
cause of a cut and the states the search entered.  A search cut by its
deadline, depth or plan cap returns what it found with the cause, and
those plans may include ones that are not minimal.  Existence
(``smart_plan_exists``) still answers a bare bool.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
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


class Member:
    """One positioned function (or function half) inside a search state.

    ``index`` is 1-based into ``atoms``.  A forward member with index < 1 is
    pending and activates later; a backward member with index beyond its
    length idles until the scan reaches its window.  ``token`` ties the
    member to a call and is excluded from state identity.  ``emissions``
    holds the atom emitted at each index (the inverse atoms for a backward
    member); it follows from ``atoms`` and ``forward``.

    A member is a value: nothing assigns to its fields after construction,
    since states, tables and the stamped calls of a run share members.  Its
    hash is that of ``(fn_key, atoms, index, forward, designated)``,
    computed once here, and equality compares those fields alone.
    """

    __slots__ = ("fn_key", "atoms", "index", "forward", "designated", "token", "emissions", "_hash")

    def __init__(self, fn_key, atoms, index, forward, designated=False, token=-1, emissions=None):
        self.fn_key = fn_key
        self.atoms = atoms
        self.index = index
        self.forward = forward
        self.designated = designated
        self.token = token
        if emissions is None:
            emissions = atoms if forward else tuple(a.invert() for a in atoms)
        self.emissions = emissions
        self._hash = hash((fn_key, atoms, index, forward, designated))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Member:
            return NotImplemented
        return self._hash == other._hash and (
            self.fn_key,
            self.atoms,
            self.index,
            self.forward,
            self.designated,
        ) == (other.fn_key, other.atoms, other.index, other.forward, other.designated)

    def __repr__(self):
        return (
            f"Member(fn_key={self.fn_key!r}, atoms={self.atoms!r}, index={self.index!r}, "
            f"forward={self.forward!r}, designated={self.designated!r}, token={self.token!r})"
        )

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


@dataclass(frozen=True, slots=True)
class _CallRec:
    """A stamped call's share of a plan: the atoms it adds to the forward
    path (0 for none), the scan its forward piece starts at, and the walk
    positions it spans (None for none).  The seeds of one run share their
    records (``_Searcher._seeds``), so a record never changes."""

    token: int
    view: SubFunction
    path_atoms: int
    path_at: int
    stretch: Optional[tuple]


class _Walk:
    """A search path's walk stretches as a multigraph on walk positions:
    each position's balance (stretches leaving it less those entering it)
    and a union-find whose roots are each component's last position.

    The stretches chain (``_chain``) only when they form one trail from the
    forward path's top down to the walk end: the walk end's balance is -1,
    that of every other position but the top 0, and all of them are
    connected to the top.  Every template that joins after scan 1 (ender,
    beginner, valley, designated or pair) has stretch offsets >= 0, so no
    call stamped later touches a position at or before the current scan;
    and the top lies above the scan, since the forward path's active piece
    covers the scanned atom.  So a scan that closes a position off its
    balance, or closes the last position of a component, dooms the path
    (``dooms``).  Scan 1 also closes position 0, which seeds leave at its
    balance: it is a bounded seed's walk end, and a loose seed enters it
    only by a dive whose tail climbs back to 1.
    """

    __slots__ = ("balance", "up")

    def __init__(self, balance: dict, up: dict):
        self.balance = balance
        self.up = up  # a later position in each position's component; none for a root

    def joined(self, recs) -> "_Walk":
        """This walk with the stretches of ``recs`` added; it is not changed."""
        balance = up = None
        for rec in recs:
            stretch = rec.stretch
            if stretch is None:
                continue
            if balance is None:
                balance, up = self.balance.copy(), self.up.copy()
            a, b = stretch
            balance[a] = balance.get(a, 0) + 1
            balance[b] = balance.get(b, 0) - 1
            while a in up:
                a = up[a]
            while b in up:
                b = up[b]
            if a < b:
                up[a] = b
            elif b < a:
                up[b] = a
        return self if balance is None else _Walk(balance, up)

    def dooms(self, scan: int, walk_end: int) -> bool:
        """Does closing position ``scan`` leave stretches that cannot chain
        from the top to ``walk_end``?"""
        balance = self.balance.get(scan)
        return balance is not None and (
            balance != -(scan == walk_end) or scan not in self.up
        )


_NO_WALK = _Walk({}, {})


@dataclass(frozen=True)
class _Call:
    """One call's share of a candidate structure, not yet stamped: members
    without a token.

    ``stretch`` gives the walk positions the call spans, from start to
    end, as offsets from the scan it enters at; None when it has no walk
    piece.  Calls that reach the query atom (trailing, tail and dip calls)
    enter only at scan 1, where walk position 0 lies at offset -1.

    The call's designated member, if any, is its forward-path piece:
    ``path_atoms`` is its length and ``path_after`` the scans from the
    entry until it is active.  A turn call whose descent enters first holds
    its ascent as a pending designated member, which takes over the forward
    path when the piece before it ends.
    """

    view: SubFunction
    members: tuple
    stretch: Optional[tuple] = None
    path_atoms: int = field(init=False)
    path_after: int = field(init=False)

    def __post_init__(self):
        piece = next((m for m in self.members if m.designated), None)
        object.__setattr__(self, "path_atoms", 0 if piece is None else len(piece.atoms))
        object.__setattr__(self, "path_after", 0 if piece is None else 1 - piece.index)


def _piece(v: SubFunction, lo: int, hi: int, index: int, forward: bool, designated=False) -> Member:
    """The member of view ``v`` over its atoms ``lo..hi`` (1-based), keyed
    by that window."""
    return Member(v.key + (lo, hi), v.skeleton[lo - 1 : hi], index, forward, designated)


def _straight(
    v: SubFunction, lo: int, hi: int, index: int, forward: bool, stretch, designated=False
) -> _Call:
    """A call of one member, the window ``lo..hi`` of its view."""
    return _Call(v, (_piece(v, lo, hi, index, forward, designated),), stretch)


def _peak(v: SubFunction, lo: int, hi: int, stretch, designated=False) -> _Call:
    """A call climbing from the entry scan over atoms ``lo..p`` to the
    view's pivot p, whose descent ``p+1..hi`` idles until the scan reaches
    its window."""
    p = v.parent.pivot()
    members = (_piece(v, lo, p, 1, FORWARD, designated), _piece(v, p + 1, hi, p - lo + 1, BACKWARD))
    return _Call(v, members, stretch)


def _turn(v: SubFunction, hi: int, designated: bool, stretch) -> _Call:
    """A call descending over atoms ``p+1..hi`` into the entry scan, p the
    view's pivot, whose ascent ``1..p`` is pending for ``hi - 2p`` scans."""
    p = v.parent.pivot()
    ascent = _piece(v, 1, p, 1 + 2 * p - hi, FORWARD, designated)
    return _Call(v, (ascent, _piece(v, p + 1, hi, hi - p, BACKWARD)), stretch)


def _valley(v: SubFunction, lo: int, hi: int) -> _Call:
    """A call whose atoms ``1..lo`` descend into the entry position and
    ``hi..n`` climb out of it.  A side without atoms has no member."""
    n = len(v)
    sides = (_piece(v, 1, lo, lo, BACKWARD), _piece(v, hi, n, 1, FORWARD))
    return _Call(v, tuple(m for m in sides if m.atoms), (lo, n - hi + 1))


def _dip(v: SubFunction, p: int) -> _Call:
    """A call diving through its atom ``p`` and climbing back over ``p+1``,
    which the call leaves out of its walk: a valley over the rest."""
    return _valley(v, p - 1, p + 2)


@dataclass(frozen=True)
class _Structure:
    """Calls entering a state together, with what the run-time checks read:
    the atom their active members emit at entry (None if none is active),
    their members as a set, how many designated members are active at
    entry, and whether one is pending (``opens``)."""

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
        sum(1 for m in members if m.designated and m.index >= 1),
        any(m.designated and m.index < 1 for m in members),
    )


def _stamp(structure: _Structure, entry: int, tokens, members: list, recs: list):
    """Give each call of the structure, in call order, the entry scan and
    the next token from ``tokens``, adding its members and records."""
    for call in structure.calls:
        tok = next(tokens)
        members.extend(_at(m, m.index, tok) for m in call.members)
        stretch = call.stretch
        if stretch is not None:
            stretch = (entry + stretch[0], entry + stretch[1])
        recs.append(_CallRec(tok, call.view, call.path_atoms, entry + call.path_after, stretch))


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


class _Table:
    """Structures of one kind, bucketed by the atom they emit at entry.

    ``families`` gives each structure's atom, read off its view's
    skeleton, and a function that builds its call, in generation order.  A
    bucket's structures are built on its first lookup (``matching``), and
    ``all`` from every bucket on its first read, in generation order, so a
    template is one object wherever it is found.  ``built`` counts the
    structures built so far.
    """

    def __init__(self, families):
        families = list(families)
        self._families = {}  # atom -> [(rank, make)], in generation order
        for rank, (atom, make) in enumerate(families):
            self._families.setdefault(atom, []).append((rank, make))
        self._structures = [None] * len(families)  # by rank, once its bucket is built
        self._matching = {}
        self._all = None
        self.built = 0

    def matching(self, atom) -> list:
        """The structures emitting ``atom``, in table order; every
        structure when ``atom`` is None."""
        if atom is None:
            return self.all
        found = self._matching.get(atom)
        if found is None:
            found = self._matching[atom] = []
            for rank, make in self._families.get(atom, ()):
                s = self._structures[rank] = _structure(make())
                self.built += 1
                if s is not None:
                    found.append(s)
        return found

    def matching_any(self, atoms) -> list:
        """The structures emitting any of ``atoms``, in table order."""
        for atom in atoms:
            self.matching(atom)
        return [s for s in self._structures if s is not None and s.emission in atoms]

    @property
    def all(self) -> list:
        """Every structure, in table order."""
        if self._all is None:
            self._all = self.matching_any(self._families)
        return self._all


class _Templates:
    """What the search builds from the closure alone: the ender, beginner,
    valley and designated tables and the beginner-ender pairs.  Their calls
    are windows of their views (``_piece``): straight (``_straight``),
    peaks (``_peak``), turns (``_turn``) or valleys (``_valley``); dips
    (``_dip``) reach the query atom, so only a query's searcher builds them.

    Nothing here depends on a query, a seed mode or a run, so one instance
    serves every search on an equal closure (``_templates``).  It builds no
    structure when it is made: a table builds a bucket on its first lookup
    (``_Table``) and ``pairs`` an atom's pairs, which follow from the
    closure too.  ``built`` counts the structures built so far.
    """

    def __init__(self, closure: tuple):
        self.closure = closure
        self._loops = []
        for v in closure:
            p = v.parent.pivot()
            if p is not None and p < len(v):
                self._loops.append((v, p))
        self.enders = _Table(self._ender_calls())
        self.beginners = _Table(self._beginner_calls())
        self.valleys = _Table(self._valley_calls())
        self.designated = _Table(self._designated_calls())
        self._pair_lists = {}
        self._pairs_built = 0

    @property
    def built(self) -> int:
        tables = (self.enders, self.beginners, self.valleys, self.designated)
        return self._pairs_built + sum(t.built for t in tables)

    def pairs(self, atom) -> list:
        """Beginner-ender pairs emitting ``atom`` (every pair for None),
        beginners outermost, built on first lookup."""
        found = self._pair_lists.get(atom)
        if found is None:
            enders = self.enders.matching(atom)
            beginners = self.beginners.matching(atom)
            self._pairs_built += len(enders) * len(beginners)
            pairs = (_structure(*b.calls, *e.calls) for b in beginners for e in enders)
            found = self._pair_lists[atom] = [p for p in pairs if p is not None]
        return found

    # Each family yields its atom at entry and its call's builder.

    def _ender_calls(self):
        """Calls whose walk stretch ends at the entry position, emitting
        the inverse of their view's last atom."""
        for v in self.closure:
            n = len(v)
            atom = v.skeleton[-1].invert()
            yield atom, functools.partial(_straight, v, 1, n, n, BACKWARD, (n, 0))
        for v, p in self._loops:
            n = len(v)
            atom = v.skeleton[-1].invert()
            # The descent enters at this position; the ascent is pending
            # until the scan reaches its window, ``after`` scans on.  It
            # climbs mid-walk, or in a turn call it is the forward path's
            # final piece.
            after = n - 2 * p
            if after >= 0:
                yield atom, functools.partial(_turn, v, n, False, (after, 0))
            if after > 0:
                yield atom, functools.partial(_turn, v, n, True, (n - p, 0))

    def _beginner_calls(self):
        """Calls whose walk stretch begins at the entry position, emitting
        their view's first atom."""
        for v in self.closure:
            n = len(v)
            yield v.skeleton[0], functools.partial(_straight, v, 1, n, 1, FORWARD, (0, n))
        for v, p in self._loops:
            n = len(v)
            if 2 * p >= n:
                yield v.skeleton[0], functools.partial(_peak, v, 1, n, (0, 2 * p - n))

    def _valley_calls(self):
        """Single calls descending into and climbing out of the entry
        position, emitting the atom after their view's pivot."""
        for v, p in self._loops:
            yield v.skeleton[p], functools.partial(_valley, v, p, p + 1)

    def _designated_calls(self):
        """The forward path's next piece, emitting its view's first atom:
        any view, or a turn call whose last forward piece and first walk
        descent cross the top."""
        for v in self.closure:
            n = len(v)
            yield v.skeleton[0], functools.partial(_straight, v, 1, n, 1, FORWARD, None, True)
        for v, p in self._loops:
            n = len(v)
            if 2 * p >= n:
                yield v.skeleton[0], functools.partial(_peak, v, 1, n, (p, 2 * p - n), True)


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


class _StopSearch(Exception):
    pass


# The deepest scan a search enters; a deeper state is cut with cause "depth".
_MAX_DEPTH = 64

# The seed modes, in the order they run, and where each one's walk ends: at
# 0 past the query atom, or at 1.
_WALK_END = {"bounded": 0, "loose": 1}


class _Searcher:
    """One depth-first run over all seeds for a fixed query and closure.

    The seeds come in the run's ``modes``, by default both of
    ``_WALK_END``, ``bounded`` and ``loose``, and each seed carries where
    its walk ends: the run keeps that end on the searcher while it searches
    the seed, and ``_assemble`` chains the walk to it.  Each result is a
    call sequence that passes ``emit_gate``, if one is given.  The smart
    paths run the bounded mode alone, since every smart candidate closes a
    bounded sequence (``_closings``).

    The run collects its results in ``results``, a ``Hits`` that also
    counts the states entered and names what cut the run, if anything; it
    stops at its ``max_plans``-th result.  A state already on the
    current path is not entered again; one reached on another path is,
    since whether a path assembles into a plan depends on its call records.
    Beside the records each path carries its walk stretches as a graph
    (``_Walk``), and a state at a scan that dooms them is not entered: no
    later call can make them chain.

    Every structure that can join a state is a template without token or
    entry scan.  The tables of enders, beginners, valleys and designated
    calls, and the beginner-ender pairs, come from the closure alone: they
    are shared with every other searcher on an equal closure
    (``_templates``), each bucket built on its first lookup.  The query's own structures (dips,
    lead calls, tails and bottoms), the seeds, tokens, the states on the
    current path and the results belong to this run.  A state looks its
    candidates up by the atom it emits next, checks them as templates and
    stamps a combination with fresh tokens only when it joins.  A seed's n
    calls hold tokens 0..n-1 and its search stamps from n on, so tokens
    are unique along each path and follow stamp order, which is all that
    ``_chain_walk`` and the turn check in ``_search`` read.  A state is
    keyed by its member set alone: a turn call's pending ascent is one of
    its members.
    """

    def __init__(
        self,
        closure: Sequence[SubFunction],
        query: AtomicQuery,
        max_plans: int = 10000,
        deadline: Optional[float] = None,
        emit_gate: Optional[Callable] = None,
        modes: Sequence[str] = tuple(_WALK_END),
    ):
        self.closure = list(closure)
        self.query = query
        self.max_plans = max_plans
        self.deadline = deadline
        self.emit_gate = emit_gate
        self.modes = modes
        self._path = set()  # the states on the current path
        self.results = Hits()  # call sequences, with the run's cause and state count
        self._tokens = None  # the current seed's search stamps its next calls from here
        templates = _templates(tuple(self.closure))
        self._enders = templates.enders
        self._beginners = templates.beginners
        self._valleys = templates.valleys
        self._designated = templates.designated
        self._pairs = templates.pairs

    def run(self):
        try:
            for members, recs, walk_end in self._seeds():
                self._walk_end = walk_end
                # The seed's calls hold tokens 0..n-1; its search goes on from n.
                self._tokens = itertools.count(len(recs))
                self._search(frozenset(members), 1, recs, _NO_WALK.joined(recs))
        except _StopSearch:
            return

    # -- the query's own structures -------------------------------------------

    def _lead_calls(self):
        """The loose-mode first call, which also carries the leading query
        atom."""
        rel = self.query.relation
        for v in self.closure:
            n = len(v)
            if n < 2 or v.skeleton[0] != rel:
                continue
            yield _straight(v, 2, n, 1, FORWARD, None, True)
            p = v.parent.pivot()
            if p is not None and p < n < 2 * p:
                yield _peak(v, 2, n, (p - 1, 2 * p - 1 - n), True)

    def _tail_calls(self):
        """Calls entering at walk position 0 and ending the walk at 1."""
        inverse = self.query.relation.invert()
        for v in self.closure:
            p = v.parent.pivot()
            if v.skeleton == (inverse,):
                yield _Call(v, (), (-1, 0))
            elif v.skeleton[0] == inverse and p is not None and 1 < p and len(v) == 2 * p - 1:
                yield _peak(v, 2, len(v), (-1, 0))

    def _dip_calls(self):
        """Mid-walk calls diving through the query atom and climbing back.
        A pure dive-and-return, ``rel.rel^-``, is removable, never minimal."""
        rel = self.query.relation
        for v in self.closure:
            p = v.parent.pivot()
            if p is not None and p < len(v) and v.skeleton[p - 1] == rel and len(v) > 2:
                yield _dip(v, p)

    # -- seed construction ---------------------------------------------------

    def _seeds(self):
        """Initial states, each with its members, its call records and
        where its walk ends: a designated start, a bottom structure, and at
        most one extra structure touching the first scanned position.

        All members whose atom windows align with scan 1 must be present in
        the seed; anything touching only later positions joins through
        start/end events during the search.  A seed's calls are numbered
        from 0 in the order extra, designated, bottom.  Each structure is
        stamped once per first token in a run: a later seed with the same
        bottom, designated option or extra at the same token reuses its
        members and records, which nothing changes.
        """
        # Each seed structure stamped once per first token: (id, token) ->
        # (structure, members, records).  Identity is the key, since a
        # structure's hash covers all of its calls, and the value keeps the
        # structure alive so that its id is not reused.
        stamped = {}
        dips = [s for s in map(_structure, self._dip_calls()) if s is not None]
        # Every candidate emits an atom at entry, so a bottom takes those
        # emitting its own.  The extras per atom, led by None for no extra,
        # are gathered once per run: dives through the query atom, valleys
        # and beginner-ender pairs.
        extras = {}
        for mode in self.modes:
            # The designated options: the designated table in bounded mode,
            # the lead calls by their atom in loose mode.
            leads = None
            if mode == "bounded":
                bottoms = self._bounded_bottoms()
            else:
                leads = {}
                for s in map(_structure, self._lead_calls()):
                    if s is not None:
                        leads.setdefault(s.emission, []).append(s)
                bottoms = self._loose_bottoms(leads)
            for bottom, crosses in bottoms:
                if bottom is None:
                    continue
                want = bottom.emission
                if leads is None:
                    options = self._designated.matching(want)
                else:
                    options = leads.get(want, ())
                extra_list = (None,)
                if not crosses:
                    extra_list = extras.get(want)
                    if extra_list is None:
                        extra_list = extras[want] = [None]
                        extra_list += (s for s in dips if s.emission == want)
                        extra_list += self._valleys.matching(want) + self._pairs(want)
                for extra, des in self._seed_combos(bottom, extra_list, options):
                    members, recs = [], []
                    for s in (extra, des, bottom):
                        if s is not None:
                            key = (id(s), len(recs))
                            found = stamped.get(key)
                            if found is None:
                                found = stamped[key] = (s, [], [])
                                _stamp(s, 1, itertools.count(len(recs)), found[1], found[2])
                            members += found[1]
                            recs += found[2]
                    yield members, recs, _WALK_END[mode]

    @staticmethod
    def _seed_combos(bottom, extra_list, options):
        """(extra, designated) structures that form a state with the bottom.

        At most one extra joins: None, a one-call extra or a beginner-ender
        pair from ``extra_list``.  A bottom whose ascent is already active
        at scan 1 owns the forward path's first piece and takes no
        designated option (None).  Candidates are taken in the order given.
        """
        if bottom.designated:
            options = (None,)
        for extra in extra_list:
            if extra is not None and extra.opens and (bottom.opens or bottom.designated):
                continue  # one turn call's ascent at a time
            for des in options:
                parts = [s for s in (des, bottom, extra) if s is not None]
                if _fits(parts):
                    yield extra, des

    @staticmethod
    def _trailing_call(view: SubFunction) -> _Call:
        """A final call descending straight to position 1, then the implicit
        query atom, its last atom."""
        w = len(view) - 1
        return _straight(view, 1, w, w, BACKWARD, (w, -1))

    # The bottoms of each seed mode are its final structures, each with a
    # flag marking those that already cross the query atom (no extra joins
    # them).

    def _bounded_bottoms(self):
        """Final-call structures whose skeleton ends with the query atom.

        A final call whose skeleton runs one ``rel^-`` atom past the query
        atom needs no bottom of its own: it descends over the same atoms as
        the bounded bottom of its parent's view one atom shorter, which is
        in the closure (the longer view is two-output) and has no turn
        bottom (its parent's pivot is at its end), so smart enumeration
        swaps that view in afterwards (``_closings``).
        """
        rel = self.query.relation
        for v in self.closure:
            n = len(v)
            if n < 2 or v.skeleton[-1] != rel:
                continue
            yield _structure(self._trailing_call(v)), False
            p = v.parent.pivot()
            if p is not None and 2 * p < n:
                # Turn usage: climb to the pivot, then descend to the
                # implicit query atom.  The climb, pending until the scan
                # reaches its window, is either the forward path's final
                # piece (designated) or a mid-walk ascent.
                yield _structure(_turn(v, n - 1, True, (n - 1 - p, -1))), False
                yield _structure(_turn(v, n - 1, False, (n - 1 - 2 * p, -1))), False

    def _loose_bottoms(self, atoms):
        """Final structures for walks ending at position 1.

        Every ender structure at the first scan position ends the walk
        there; dive-through endings and dip-terminal calls also qualify.
        Only enders emitting one of ``atoms``, those the lead calls emit,
        are taken: an ender has no active designated member at scan 1, so
        it needs a lead call emitting its atom to form a seed.
        """
        rel = self.query.relation
        for s in self._enders.matching_any(atoms):
            yield s, False
        tails = list(self._tail_calls())
        for v in self.closure:
            sk = v.skeleton
            p = v.parent.pivot()
            # Dive-through ending: this call finishes with the query atom
            # (walk touches 0) and a tail call climbs back to position 1.
            if len(sk) >= 2 and sk[-1] == rel:
                base = self._trailing_call(v)
                for tail in tails:
                    yield _structure(base, tail), True
            # Dip-terminal: the final call dives through the query atom and
            # climbs straight back to position 1.
            if p is not None and 2 <= p == len(sk) - 1 and sk[p - 1] == rel:
                yield _structure(_dip(v, p)), True

    # -- the depth-first search ------------------------------------------------

    def _search(self, members, scan, recs, walk):
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.results.cause = "deadline"
            raise _StopSearch
        if walk.dooms(scan, self._walk_end):
            return
        if scan > _MAX_DEPTH:
            self.results.cause = "depth"
            return
        if members in self._path:
            return
        self._path.add(members)
        self.results.states_visited += 1
        try:
            rec = search_successors(members)
            advanced = rec.advanced
            if not advanced:
                self._emit(recs)
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
            # A pending designated member arriving at index 1 takes over only
            # from a forward piece that ends here; else two would be active.
            if not designated_ended and any(
                m.designated and m.index == 1 for m in advanced
            ):
                return
            nondes_ends = [e for e in ended if not e.designated]
            # Pending/idle members activating behave like begin/end needs at
            # the next position (their stretch starts or ends there).
            acts_fwd = sum(
                1 for m in advanced if m.forward and m.index == 1 and not m.designated
            )
            acts_bwd = sum(
                1 for m in advanced if not m.forward and m.index == len(m.atoms)
            )
            begins = len(started) + acts_fwd
            ends_n = len(nondes_ends) + acts_bwd
            if begins > 1 or ends_n > 1:
                return
            if designated_ended and (begins or ends_n):
                return
            self._expand(advanced, scan + 1, recs, walk, designated_ended, begins, ends_n)
        finally:
            self._path.remove(members)

    def _expand(self, advanced, entry, recs, walk, designated_ended, begins, ends_n):
        """Search every child of a state: the advanced members plus the
        structure its needs call for and at most one valley crossing the
        entry position, which carries no need."""
        current = _common_emission(advanced)
        if current is _CLASH:
            # Members emitting different atoms match no line of atoms, so
            # no plan comes from them: drop the state.
            return
        need = 1 - sum(1 for m in advanced if m.designated and m.index >= 1)
        pending = any(m.designated and m.index < 1 for m in advanced)
        # Joining members must emit the next state's atom, so the tables
        # give only structures emitting it (or nothing) at entry.
        if designated_ended:
            # need == 0: an arriving member takes over the forward path, and
            # nothing else joins at the hand-over.
            bases = self._designated.matching(current) if need else ()
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
        if need == 0 and begins == ends_n:
            self._search(advanced, entry, recs, walk)
            for valley in valleys:
                self._join(advanced, entry, recs, walk, (valley,))
        for base in bases:
            if (
                base.designated != need
                or (base.opens and pending)
                or not advanced.isdisjoint(base.member_set)
            ):
                continue
            self._join(advanced, entry, recs, walk, (base,))
            for valley in valleys:
                if base.member_set.isdisjoint(valley.member_set) and _compatible(
                    base.emission, valley.emission
                ):
                    self._join(advanced, entry, recs, walk, (base, valley))

    def _join(self, advanced, entry, recs, walk, structures):
        """Stamp checked structures and search the state they form."""
        members = []
        start = len(recs)
        recs = list(recs)
        for s in structures:
            _stamp(s, entry, self._tokens, members, recs)
        self._search(advanced.union(members), entry, recs, walk.joined(recs[start:]))

    # -- plan assembly -----------------------------------------------------------

    def _emit(self, recs: List[_CallRec]):
        views = self._assemble(recs)
        if views is None:
            return
        if self.emit_gate is not None and not self.emit_gate(views):
            return
        self.results.append(views)
        if len(self.results) >= self.max_plans:
            self.results.cause = "plan cap"
            raise _StopSearch

    def _assemble(self, recs: List[_CallRec]) -> Optional[tuple]:
        """The plan's calls: the forward path's pieces in the order they
        start (``path_at``), then the walk stretches chained from the
        path's top to the current seed's walk end; None when they do not
        chain (the walk prune, ``_Walk``, drops most such paths early)."""
        views = {}
        path = []
        walk = {}
        for rec in recs:
            views[rec.token] = rec.view
            if rec.path_atoms:
                path.append(rec)
            if rec.stretch is not None:
                walk[rec.token] = rec.stretch
        top = 1 + sum(rec.path_atoms for rec in path)
        chain = self._chain_walk(walk, top, self._walk_end)
        if chain is None:
            return None
        path.sort(key=lambda rec: rec.path_at)
        on_path = {rec.token for rec in path}
        return tuple(rec.view for rec in path) + tuple(
            views[tok] for tok in chain if tok not in on_path
        )

    @staticmethod
    def _chain_walk(walk: dict, start: int, terminal: int):
        """Order the walk stretches end-to-start from the forward path's top.

        Several stretches may share a top position (a turn call's descent can
        share it with a later climb), so the chaining backtracks (``_chain``).
        """
        starting = {}
        for tok in sorted(walk):
            starting.setdefault(walk[tok][0], []).append(tok)
        return _chain(walk, starting, start, terminal, frozenset(walk))


def _chain(walk: dict, starting: dict, current: int, terminal: int, remaining: frozenset):
    """The ``remaining`` stretches chained from ``current`` to ``terminal``,
    those ``starting`` at a position tried in token order, or None."""
    if not remaining:
        return [] if current == terminal else None
    for tok in starting.get(current, ()):
        if tok in remaining:
            rest = _chain(walk, starting, walk[tok][1], terminal, remaining - {tok})
            if rest is not None:
                return [tok] + rest
    return None


# -- public enumeration API --------------------------------------------------


@dataclass(frozen=True)
class Hit:
    """A plan, its call sequence and its kind: a weak plan is "bounded" or
    "loose", a smart one "trivial", "terminal", "inverse-terminal" or
    "appended-inverse"."""

    plan: ExecutionPlan
    views: tuple
    kind: str


class Hits(list):
    """The outcome of every plan search: its hits in order, ``cause``, what
    cut the search ("deadline", "depth" or "plan cap") or None when it
    finished, and ``states_visited``, the states the search entered.  The
    hits of a cut search may include plans that are not minimal.  A
    ``_Searcher`` collects its raw call sequences in one too."""

    __slots__ = ("cause", "states_visited")  # no per-list ``__dict__``

    def __init__(self, hits=(), cause: Optional[str] = None, states_visited: int = 0):
        super().__init__(hits)
        self.cause = cause
        self.states_visited = states_visited

    @property
    def hit(self) -> Optional[Hit]:
        """The first hit, or None."""
        return self[0] if self else None


def _concat_skeleton(views: Sequence[SubFunction]) -> tuple:
    return tuple(a for v in views for a in v.skeleton)


def _weak_gate(query: AtomicQuery) -> Callable:
    """The weak gate on call sequences for ``query``.

    A sequence whose first two atoms and last atom fail ``_may_be_weak``
    is rejected before its skeleton is built; the verdict on any other
    concatenated skeleton is remembered for as long as the gate is kept.
    """
    verdicts = {}

    def weak(views: Sequence[SubFunction]) -> bool:
        head = views[0].skeleton[:2]
        if len(head) < 2 and len(views) > 1:
            head += views[1].skeleton[:1]
        if not _may_be_weak(head, views[-1].skeleton[-1], query):
            return False
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


def _minimal_filter(candidates, weaken, hit):
    """The hits of the candidates that no accepted smaller plan embeds.

    This is the one minimality decision.  Candidates are visited shortest
    first, and ``hit`` builds a visited candidate's hit, or returns None
    for one that is no plan.  On a complete search it is exact: a
    candidate with a proper (``weaken``: prefix-weakened) subsequence that
    is a plan embeds a minimal plan, the search found that plan, and the
    filter visited and accepted it earlier; embedding is transitive over
    subsequences.  On a cut search a candidate whose minimal plans were
    not found is kept, and the result's ``cause`` says so.
    """
    ordered = sorted(
        candidates,
        key=lambda views: (
            len(views),
            sum(len(v) for v in views),
            tuple(v.name for v in views),
        ),
    )
    accepted = []  # (hit, its parents' names)
    for views in ordered:
        parents = {v.parent.name for v in views}
        # A plan embeds only into a candidate calling all of its parents.
        if any(p <= parents and _embeds(h.views, views, weaken) for h, p in accepted):
            continue
        found = hit(views)
        if found is not None:
            accepted.append((found, parents))
    return [h for h, _ in accepted]


def _weak_plans(closure, query: AtomicQuery, weak: Callable, max_plans: int, deadline) -> Hits:
    """Call sequences over ``closure`` that ``weak`` accepts, with the
    search's cause and state count.  One pass splits the views weakly smart
    on their own, which dominate every longer plan calling them, from the
    rest, and stops at the ``max_plans``-th; else the gated search over the
    rest adds at most ``max_plans`` more."""
    singles, rest = [], []
    for v in closure:
        if weak((v,)):
            singles.append((v,))
            if len(singles) >= max_plans:
                return Hits(singles, "plan cap")
        else:
            rest.append(v)
    searcher = _Searcher(rest, query, max_plans=max_plans, deadline=deadline, emit_gate=weak)
    searcher.run()
    searcher.results[:0] = singles
    return searcher.results


def enumerate_minimal_weakly_smart(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    max_plans: int = 10000,
    deadline: Optional[float] = None,
) -> Hits:
    """All minimal weakly smart plans, deduplicated and sorted.

    Every emitted plan's semantics is weakly smart.  When the search
    finishes (``cause`` None), no proper call-subsequence of an emitted
    plan is, and every such plan is emitted.  A search cut by its deadline,
    depth or plan cap says so in ``cause``, and its plans may include ones
    that are not minimal.
    """
    if not catalog:
        raise EmptyCatalogError("no functions")
    weak = _weak_gate(query)
    raw = _weak_plans(catalog_closure(catalog), query, weak, max_plans, deadline)
    unique = {tuple(v.key for v in views): views for views in raw}
    hits = _minimal_filter(
        unique.values(),
        weaken=False,
        hit=lambda views: _weak_hit(views, query),
    )
    hits.sort(key=lambda h: tuple(v.name for v in h.views))
    return Hits(hits, raw.cause, raw.states_visited)


def find_one_weakly_smart(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    deadline: Optional[float] = None,
) -> Hits:
    """First weakly smart plan found, minimized: at most one hit (``hit``).

    A weakly smart single call answers first; otherwise the weak search
    stops at its first gated result.  That stop is not a cut, so a hit
    comes with no ``cause``.  Without a hit, ``cause`` names the last cut
    ("deadline" or "depth"), if any: a cut search that found no plan does
    not show that none exists.
    """
    if not catalog:
        raise EmptyCatalogError("no functions")
    weak = _weak_gate(query)
    plans = _weak_plans(catalog_closure(catalog), query, weak, 1, deadline)
    if not plans:
        return plans
    views = minimize_views(plans[0], weak)
    return Hits([_weak_hit(views, query)], None, plans.states_visited)


def _weak_hit(views: tuple, query: AtomicQuery) -> Hit:
    """The weak hit of a call sequence: "bounded" when its skeleton is,
    else "loose"."""
    kind = "bounded" if is_bounded(_concat_skeleton(views), query) is not None else "loose"
    return Hit(chain_plan(views, query.constant), views, kind)


def _may_be_weak(head: tuple, last, query: AtomicQuery) -> bool:
    """Necessary for a weakly smart skeleton opening with ``head`` (its
    first two atoms, or its only one) and ending with ``last``: the screen
    that ``_weak_gate`` applies before it builds a skeleton.

    The walk along ``rel^-`` + skeleton ends at position 0, so its last
    step runs back over ``rel^-`` and emits ``rel``; or, for a skeleton
    opening with ``rel``, at position 2, reached forward over ``rel`` or
    backward over the second atom, emitting its inverse.
    """
    rel = query.relation
    return last == rel or (
        len(head) == 2 and head[0] == rel and last == head[1].invert()
    )


def minimize_views(views: tuple, weak: Callable) -> tuple:
    """Smallest weakly smart subsequence, searched by increasing size and
    decided by ``weak`` (``_weak_gate``, whose screen rejects most
    subsequences without building their skeletons)."""
    for size in range(1, len(views) + 1):
        for sub in itertools.combinations(views, size):
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


def bound_estimate(catalog: Sequence[PathFunction]) -> BoundEstimate:
    """M = |closure|^(2k), k the longest view, and the digit count of M!,
    never materialized.  M estimates the search's state count; it is not a
    proved bound."""
    if not catalog:
        return BoundEstimate(0, 0, 0)
    closure = catalog_closure(catalog)
    k = max(len(v) for v in closure)
    m = len(closure) ** (2 * k)
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


def _two_output_able(view: SubFunction) -> bool:
    # The position before the last lies within the prefix, so the parent's
    # outputs decide whether the view binds it (``bindable``).
    return len(view) >= 2 and (len(view) - 1) in view.parent.outputs


def _is_tail(view: SubFunction, query: AtomicQuery) -> bool:
    """Can the view follow a bounded core as the final call: the bare
    inverse query atom, or a two-output ``(rel^-, rel)`` call?"""
    rel = query.relation
    return view.skeleton == (rel.invert(),) or (
        view.skeleton == (rel.invert(), rel) and _two_output_able(view)
    )


def _closings(core: tuple, query: AtomicQuery, tails: Sequence[SubFunction]):
    """The call sequences that may close ``core`` into a smart plan: the
    core itself when it has a shape, the core followed by each tail call
    (``_is_tail``), and the core whose last call ``g`` is replaced by the
    view of ``g``'s parent that ends one atom later, when that parent has
    an output there and the atom is ``rel^-`` (the inverse-terminal
    shape)."""
    if _smart_shape(core, query):
        yield core
    for t in tails:
        yield core + (t,)
    g = core[-1]
    n = g.prefix + 1
    if n in g.parent.outputs and g.parent.skeleton[n - 1] == query.relation.invert():
        yield core[:-1] + (SubFunction(g.parent, n),)


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
        kind, past = "appended-inverse", 1
    elif not _two_output_able(last):
        return None
    elif sk[-1] == rel:
        kind, past = "terminal", 0
    elif sk[-2:] == (rel, inverse):
        kind, past = "inverse-terminal", 1
    else:
        return None
    skeleton = _concat_skeleton(views)
    return kind, skeleton[: len(skeleton) - past]


def _may_be_smart(closure: Sequence[SubFunction], query: AtomicQuery) -> bool:
    """Can any call sequence over ``closure`` have a smart shape with a
    bounded core?  A necessary condition, in one pass over the closure.

    A shape is read off the last call (``_smart_shape``), and a bounded
    core ends with ``rel`` (``is_bounded``).  So a smart plan needs a
    ``(rel)`` view, a two-output view ending with ``rel`` or ``rel.rel^-``,
    or a ``(rel^-)`` view together with a view ending with ``rel``.
    """
    rel = query.relation
    inverse = rel.invert()
    has_inverse = ends_in_rel = False
    for v in closure:
        sk = v.skeleton
        if sk == (rel,):
            return True
        if _two_output_able(v) and (sk[-1] == rel or sk[-2:] == (rel, inverse)):
            return True
        has_inverse = has_inverse or sk == (inverse,)
        ends_in_rel = ends_in_rel or sk[-1] == rel
    return has_inverse and ends_in_rel


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


def enumerate_minimal_smart(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    max_plans: int = 10000,
    deadline: Optional[float] = None,
) -> Hits:
    """All minimal smart plans: a bounded core plus a filter pinned inside
    a query atom adjacent to the output.  Minimality is exact when the
    search finishes; a cut search says why in ``cause`` (``Hits``).

    When no call of the closure can end a smart plan (``_may_be_smart``),
    the answer is empty and no search runs.  Otherwise the cores are the
    single calls and the results of the weak search's bounded seed mode,
    and each core gives its candidates by one rule (``_closings``): itself,
    it followed by a tail call, or it with its last call one ``rel^-`` atom
    longer.  A sequence has one shape, read off its last call
    (``_smart_shape``).

    Candidates are decided lazily: the minimality filter visits them
    shortest first, and only a sequence that no accepted plan embeds has
    its core's boundedness checked (once per core skeleton) and its plan
    built.  That filter alone decides minimality.
    """
    if not catalog:
        raise EmptyCatalogError("no functions")
    closure = catalog_closure(catalog)
    if not _may_be_smart(closure, query):
        return Hits()
    searcher = _Searcher(closure, query, max_plans=max_plans, deadline=deadline, modes=("bounded",))
    searcher.run()
    tails = [t for t in closure if _is_tail(t, query)]
    cores = [(v,) for v in closure] + searcher.results
    unique = {
        tuple(v.key for v in views): views
        for core in cores
        for views in _closings(core, query, tails)
    }
    bounded = _bounded_gate(query)

    def hit(views):
        kind = _smartable(views, query, bounded)
        if kind is None:
            return None
        return Hit(_smart_plan(views, kind, query.constant), views, kind)

    hits = _minimal_filter(unique.values(), weaken=True, hit=hit)
    hits.sort(key=lambda h: (tuple(v.name for v in h.views), h.kind))
    return Hits(hits, searcher.results.cause, searcher.results.states_visited)


def smart_plan_exists(
    query: AtomicQuery,
    catalog: Sequence[PathFunction],
    deadline: Optional[float] = None,
) -> bool:
    """Does a smart plan exist?

    A ``(rel)`` view answers yes and a closure in which no call can end a
    smart plan (``_may_be_smart``) answers no, both in one cheap pass.
    Otherwise a core is accepted when one of its closings (``_closings``)
    has a shape (``_smart_shape``) with a bounded core: the single calls
    first, then the first core that the weak search's bounded seed mode
    accepts.
    """
    if not catalog:
        raise EmptyCatalogError("no functions")
    closure = catalog_closure(catalog)
    if any(v.skeleton == (query.relation,) for v in closure):
        return True
    if not _may_be_smart(closure, query):
        return False
    bounded = _bounded_gate(query)
    # A closing's verdict reads only its tail's skeleton, so one tail per
    # skeleton decides.
    tails = list({t.skeleton: t for t in closure if _is_tail(t, query)}.values())

    def gate(core):
        return any(_smartable(views, query, bounded) for views in _closings(core, query, tails))

    if any(gate((v,)) for v in closure):
        return True
    searcher = _Searcher(
        closure, query, max_plans=1, deadline=deadline, emit_gate=gate, modes=("bounded",)
    )
    searcher.run()
    return bool(searcher.results)


def susie_plans(query: AtomicQuery, catalog: Sequence[PathFunction]) -> Hits:
    """Plans of shape F.F^-.query: a forward chain retraced by one final call.

    Every such plan is smart; the final call must expose the variable before
    its last one so the filter can be placed (or be the bare query atom).
    No state search runs and nothing cuts it, so ``cause`` is None.
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
                out[key] = Hit(chain_plan((f,), query.constant), (f,), "trivial")
            continue
        if not _two_output_able(f):
            continue
        target = tuple(a.invert() for a in reversed(sk[:-1]))
        _susie_extend(closure, target, f, query.constant, (), 0, out)
    return Hits(sorted(out.values(), key=lambda h: tuple(v.name for v in h.views)))


def _susie_extend(closure, target, f, constant, prefix: tuple, covered: int, out: dict):
    """Add to ``out`` every terminal plan of calls over ``closure`` that
    cover ``target`` after ``prefix``, which covers its first ``covered``
    atoms, then call ``f``."""
    if covered == len(target):
        views = prefix + (f,)
        key = tuple(v.key for v in views)
        if key not in out:
            out[key] = Hit(_smart_plan(views, "terminal", constant), views, "terminal")
        return
    for w in closure:
        wsk = w.skeleton
        if target[covered : covered + len(wsk)] == wsk:
            _susie_extend(closure, target, f, constant, prefix + (w,), covered + len(wsk), out)
