"""Core data model: oriented relations, path functions, plans, and plan semantics.

A path function is a view with a binding pattern whose body atoms form a chain
from the single input position.  Plans are ordered sequences of calls to such
views, chained input-to-output, with equality filters on the query constant.
Every chained, filter-annotated plan has a path-query semantics: a skeleton of
oriented relation atoms plus boundary positions for filters and the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence


class ModelError(Exception):
    """Base class for model construction and plan validation errors."""


class MultiPivotError(ModelError):
    """A function body contains more than one x.x^- pivot."""


class NotChainedError(ModelError):
    """A call's input is not an output of the immediately preceding call."""


class NotPathShapedError(ModelError):
    """Two calls consume the same variable, so the semantics is not a path."""


class MissingSubFunctionError(ModelError):
    """A required prefix view does not exist for the parent function."""


class Atom(NamedTuple):
    """One oriented relation symbol; ``inverse`` flips subject and object.

    An atom is a tuple value equal to ``(base, inverse)``: it compares,
    hashes and sorts as that plain tuple, all in C, since every layer
    compares atoms.  No set or dict of this package mixes atoms with plain
    tuples.  ``invert`` returns the one inverse kept per atom value.
    """

    base: str
    inverse: bool = False

    def invert(self) -> "Atom":
        inverse = _INVERSES.get(self)
        if inverse is None:
            inverse = Atom(self.base, not self.inverse)
            _INVERSES[self] = inverse
            _INVERSES[inverse] = self
        return inverse

    def __str__(self) -> str:
        return self.base + ("^-" if self.inverse else "")


# Each atom's inverse, filled in pairs by ``Atom.invert``.  An entry follows
# from its key alone, so what the memo holds never changes an answer; it
# grows by two entries per relation name that a process inverts.
_INVERSES: dict = {}


Skeleton = tuple  # tuple[Atom, ...]


def skeleton_text(skeleton: Sequence[Atom]) -> str:
    return ".".join(str(a) for a in skeleton)


def pivot_positions(skeleton: Sequence[Atom]) -> list:
    """1-based indices i where atom i+1 is the inverse of atom i."""
    return [
        i + 1
        for i in range(len(skeleton) - 1)
        if skeleton[i + 1] == skeleton[i].invert()
    ]


@dataclass(frozen=True)
class AtomicQuery:
    """q(x) <- rel(constant, x), where rel may carry either orientation."""

    relation: Atom
    constant: str

    def __str__(self) -> str:
        return f"{self.relation}({self.constant}, x)"


@dataclass(frozen=True)
class PathFunction:
    """A named path view: input position 0, body skeleton, declared outputs.

    Output positions are 1-based atom indices; every other position is
    existential.  Bodies with more than one x.x^- pivot are rejected because
    the plan search splits a body at its unique pivot.

    The prefix views and the hash are built on first use, not in
    ``__post_init__``, so that a function never hashed or asked for its
    views pays for neither.
    """

    name: str
    skeleton: tuple
    outputs: tuple
    # The 1-based pivot position or None, found once by ``__post_init__``.
    _pivot: Optional[int] = field(init=False, repr=False, compare=False)
    # The hash and the prefix views, None until first asked for.  Setting
    # both to None up front keeps them in the instance's inline attribute
    # layout; added later, they move its attributes into a dict of its own
    # (about 200 bytes more per function on CPython 3.11).
    _hash: Optional[int] = field(init=False, repr=False, compare=False)
    _views: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.skeleton:
            raise ModelError(f"function {self.name}: empty body")
        n = len(self.skeleton)
        outs = tuple(self.outputs)
        if not outs:
            raise ModelError(f"function {self.name}: no output positions")
        if list(outs) != sorted(set(outs)) or outs[0] < 1 or outs[-1] > n:
            raise ModelError(f"function {self.name}: bad output positions {outs}")
        pivots = pivot_positions(self.skeleton)
        if len(pivots) > 1:
            raise MultiPivotError(f"function {self.name}: more than one loop pivot")
        object.__setattr__(self, "outputs", outs)
        object.__setattr__(self, "_pivot", pivots[0] if pivots else None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_views", None)

    def __len__(self) -> int:
        return len(self.skeleton)

    def pivot(self) -> Optional[int]:
        return self._pivot

    def __hash__(self) -> int:
        # The dataclass's own field hash, computed once.
        h = self._hash
        if h is None:
            h = hash((self.name, self.skeleton, self.outputs))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # Copies and pickles rebuild both: a str hash is not the same in
        # another interpreter, and a copy's views must name the copy.
        return dict(self.__dict__, _hash=None, _views=None)

    def _prefix_views(self) -> tuple:
        """One prefix view per output position, ordered by prefix length,
        built once and shared by every closure of this function."""
        views = self._views
        if views is None:
            views = tuple(SubFunction(self, p) for p in self.outputs)
            object.__setattr__(self, "_views", views)
        return views

    def __str__(self) -> str:
        return f"{self.name} = {skeleton_text(self.skeleton)} | out {' '.join(map(str, self.outputs))}"


@dataclass(frozen=True, slots=True)
class SubFunction:
    """The prefix view of a parent function ending at one of its outputs.

    By convention the view is called for its last position (the chaining
    output); the parent's earlier output positions within the prefix remain
    available for binding, which smart plans use to place a filter.

    A view is a value of ``(parent, prefix)``: equality, hash and repr read
    those two fields alone.  Its ``skeleton``, the parent's first ``prefix``
    atoms, is cut once at construction; copies and pickles carry it along.
    """

    parent: PathFunction
    prefix: int
    skeleton: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.prefix not in self.parent.outputs:
            raise MissingSubFunctionError(
                f"{self.parent.name} has no sub-function of length {self.prefix}"
            )
        object.__setattr__(self, "skeleton", self.parent.skeleton[: self.prefix])

    @property
    def bindable(self) -> tuple:
        """Output positions exposed by this view (parent outputs <= prefix)."""
        return tuple(p for p in self.parent.outputs if p <= self.prefix)

    @property
    def key(self) -> tuple:
        return (self.parent.name, self.prefix)

    @property
    def name(self) -> str:
        if self.prefix == len(self.parent.skeleton):
            return self.parent.name
        return f"{self.parent.name}[{self.prefix}]"

    def __len__(self) -> int:
        return self.prefix

    def __str__(self) -> str:
        return self.name


def catalog_closure(catalog: Iterable[PathFunction]) -> list:
    """All sub-functions of all catalog functions (the search vocabulary),
    as a fresh list of the functions' shared views."""
    return [v for fn in catalog for v in fn._prefix_views()]


@dataclass(frozen=True)
class FunctionCall:
    """One call: a view, an input source, and fresh names for bound outputs.

    ``bind`` lists the view positions actually bound, ascending; ``outputs``
    names them in the same order.  Weakly smart plans bind only the view's
    last position; smart plans may additionally bind the position before it.
    """

    view: SubFunction
    source: str
    bind: tuple
    outputs: tuple

    def __post_init__(self):
        if len(self.bind) != len(self.outputs):
            raise ModelError("call: bind/outputs length mismatch")
        if list(self.bind) != sorted(set(self.bind)):
            raise ModelError("call: bind positions must be strictly increasing")
        for p in self.bind:
            if p not in self.view.bindable:
                raise ModelError(
                    f"call {self.view.name}: position {p} is not an output"
                )


@dataclass(frozen=True)
class ExecutionPlan:
    calls: tuple
    filters: tuple  # tuple[(variable, constant), ...] sorted
    output: str

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(sorted(self.filters)))

    @property
    def constant(self) -> str:
        return self.calls[0].source if self.calls else ""


@dataclass(frozen=True)
class PathSemantics:
    """Path-query form of a chained plan.

    Boundary positions run 0..len(skeleton); position 0 carries the input
    constant.  ``filters`` maps boundary positions to the constants they are
    equated with; ``output`` is the boundary of the plan's output variable.
    """

    skeleton: tuple
    filters: tuple  # tuple[(position, constant), ...] sorted
    output: int

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(sorted(self.filters)))

    @property
    def filter_positions(self) -> frozenset:
        return frozenset(p for p, _ in self.filters)

    def filter_map(self) -> dict:
        return dict(self.filters)

    def __str__(self) -> str:
        parts = [skeleton_text(self.skeleton), f"out@{self.output}"]
        for pos, const in self.filters:
            parts.append(f"{pos}={const}")
        return " ".join(parts)


def chain_plan(
    views: Sequence[SubFunction],
    constant: str,
    filters: Sequence = (),
    two_output_last: bool = False,
) -> ExecutionPlan:
    """Build the canonical chained plan over single-output views.

    Variables are named v0, v1, ... in call order.  With ``two_output_last``
    the final call also binds the position before its last one, which must be
    an output of its parent.
    """
    calls = []
    source = constant
    counter = 0
    for i, view in enumerate(views):
        bind = (len(view),)
        if two_output_last and i == len(views) - 1:
            if len(view) < 2 or (len(view) - 1) not in view.bindable:
                raise ModelError(f"view {view.name} cannot bind its last two positions")
            bind = (len(view) - 1, len(view))
        names = tuple(f"v{counter + j}" for j in range(len(bind)))
        counter += len(bind)
        calls.append(FunctionCall(view, source, bind, names))
        source = names[-1]
    output = calls[-1].outputs[-1] if calls else ""
    return ExecutionPlan(tuple(calls), tuple(filters), output)


def plan_semantics(plan: ExecutionPlan) -> PathSemantics:
    """Concatenate called view skeletons and map variables to boundaries.

    Requires a chained plan: call 0 takes the constant and every later call
    takes an output of the immediately preceding call.
    """
    if not plan.calls:
        raise ModelError("empty plan has no semantics")
    positions = {}
    offset = 0
    consumed = set()
    prev_outputs: tuple = ()
    skeleton = []
    for i, call in enumerate(plan.calls):
        if i > 0:
            if call.source not in prev_outputs:
                raise NotChainedError(
                    f"call {i} input {call.source!r} is not an output of call {i - 1}"
                )
            if call.source in consumed:
                raise NotPathShapedError(f"variable {call.source!r} consumed twice")
            consumed.add(call.source)
        for p, name in zip(call.bind, call.outputs):
            if name in positions:
                raise ModelError(f"duplicate variable {name!r}")
            positions[name] = offset + p
        skeleton.extend(call.view.skeleton)
        offset += len(call.view)
        prev_outputs = call.outputs
    if plan.output not in positions:
        raise ModelError(f"output {plan.output!r} is not bound by any call")
    sem_filters = []
    for var, const in plan.filters:
        if var not in positions:
            raise ModelError(f"filter variable {var!r} is not bound by any call")
        sem_filters.append((positions[var], const))
    return PathSemantics(tuple(skeleton), tuple(sem_filters), positions[plan.output])


def strip_filters(plan: ExecutionPlan) -> ExecutionPlan:
    return ExecutionPlan(plan.calls, (), plan.output)


def _used_positions(plan: ExecutionPlan) -> list:
    """Per call, the bound positions whose variables are actually used."""
    filter_vars = {v for v, _ in plan.filters}
    sources = {c.source for c in plan.calls[1:]}
    used = []
    for call in plan.calls:
        u = [
            p
            for p, name in zip(call.bind, call.outputs)
            if name == plan.output or name in sources or name in filter_vars
        ]
        used.append(tuple(u))
    return used


def reduce_plan(plan: ExecutionPlan) -> ExecutionPlan:
    """Drop trailing calls none of whose outputs are used.

    Filter-stripping can orphan a plan's tail; under optional edge semantics
    those calls contribute nothing, so the constraint-free core omits them.
    A plan whose last call has a used output is returned itself.
    """
    if plan.calls and _used_positions(plan)[-1]:
        return plan
    calls = list(plan.calls)
    while calls:
        trimmed = ExecutionPlan(tuple(calls), plan.filters, plan.output)
        if _used_positions(trimmed)[-1]:
            return trimmed
        calls.pop()
    raise ModelError("plan reduces to nothing: output is unbound")


def sub_function_transformation(plan: ExecutionPlan) -> ExecutionPlan:
    """Replace each call by the smallest prefix view covering its used outputs.

    Preserves the plan output and, under optional edge semantics, the plan's
    smartness.  Prefix views are derived from the call's parent function.
    A plan in which every call uses all its bound positions and its view
    ends at the last of them is returned itself.
    """
    used = _used_positions(plan)
    if all(
        u and u == call.bind and u[-1] == call.view.prefix
        for call, u in zip(plan.calls, used)
    ):
        return plan
    new_calls = []
    for call, u in zip(plan.calls, used):
        if not u:
            raise ModelError("redundant call: no output used (reduce_plan first)")
        prefix = max(u)
        if prefix not in call.view.parent.outputs:
            raise MissingSubFunctionError(
                f"{call.view.parent.name} lacks a prefix of length {prefix}"
            )
        view = SubFunction(call.view.parent, prefix)
        keep = [(p, n) for p, n in zip(call.bind, call.outputs) if p in u]
        new_calls.append(
            FunctionCall(
                view,
                call.source,
                tuple(p for p, _ in keep),
                tuple(n for _, n in keep),
            )
        )
    return ExecutionPlan(tuple(new_calls), plan.filters, plan.output)


def constraint_free_core(plan: ExecutionPlan) -> ExecutionPlan:
    """Filter-free, reduced, sub-function-transformed version of a plan."""
    return sub_function_transformation(reduce_plan(strip_filters(plan)))
