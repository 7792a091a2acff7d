import copy
import dataclasses
import pickle
import random
import types

import pytest

from pathplan import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    FunctionCall,
    PathFunction,
    SubFunction,
    catalog_closure,
    chain_plan,
    plan_semantics,
    skeleton_text,
    sub_function_transformation,
)
from pathplan.engine import enumerate_minimal_smart, enumerate_minimal_weakly_smart
from pathplan.model import (
    MissingSubFunctionError,
    ModelError,
    MultiPivotError,
    NotChainedError,
    _used_positions,
    constraint_free_core,
    reduce_plan,
    strip_filters,
)
from pathplan.evaluate import OPTIONAL_EDGE, Instance, Fact, eval_plan

from test_acceptance import _chained_plan_cases, _filter_variants
from test_engine import _differential_catalog, _oriented_queries
from util import fig1_catalog, fn


def test_invert_is_involution():
    a = Atom("worksFor")
    assert a.invert() == Atom("worksFor", True)
    assert a.invert().invert() == a
    assert str(a.invert()) == "worksFor^-"


def test_empty_body_rejected():
    with pytest.raises(Exception):
        PathFunction("bad", (), (1,))


def test_multi_pivot_rejected():
    r = Atom("r")
    with pytest.raises(MultiPivotError):
        PathFunction("bad", (r, r.invert(), r), (3,))


def test_derive_sub_functions_company_info():
    worksAt, locatedIn = Atom("worksAt"), Atom("locatedIn")
    f = fn("getCompanyInfo", [worksAt, locatedIn], (1, 2))
    subs = catalog_closure([f])
    assert [s.skeleton for s in subs] == [(worksAt,), (worksAt, locatedIn)]


def test_derive_sub_functions_single_output():
    f = fn("f", [Atom("p"), Atom("q")])
    subs = catalog_closure([f])
    assert len(subs) == 1 and subs[0].skeleton == f.skeleton


def test_derive_sub_functions_prefix_ordered():
    getHierarchy = fig1_catalog()[1]
    subs = catalog_closure([getHierarchy])
    assert [s.skeleton for s in subs] == [
        (Atom("worksFor", True),),
        (Atom("worksFor", True), Atom("jobTitle")),
    ]
    for shorter, longer in zip(subs, subs[1:]):
        assert longer.skeleton[: len(shorter.skeleton)] == shorter.skeleton


def test_closure_shares_each_functions_views():
    # Every closure of a catalog holds the same view objects, in a fresh
    # list that its caller may change.
    catalog = fig1_catalog()
    first, second = catalog_closure(catalog), catalog_closure(catalog)
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert catalog_closure(catalog) == second
    for f in catalog:
        views = catalog_closure([f])
        assert views == [SubFunction(f, p) for p in f.outputs]
        assert all(a is b for a, b in zip(views, catalog_closure([f])))


def test_replaced_or_copied_function_gets_its_own_views():
    # With both caches of f filled, a replaced, copied or unpickled
    # function still hashes equal and names itself in its views.
    f = fig1_catalog()[1]
    hash(f), catalog_closure([f])
    g = dataclasses.replace(f, name="other")
    assert all(v.parent is g for v in catalog_closure([g]))
    for h in (dataclasses.replace(f), copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert h == f and hash(h) == hash(f)
        assert all(v.parent is h for v in catalog_closure([h]))


@dataclasses.dataclass(frozen=True, order=True)
class _DataclassAtom:
    """The dataclass that ``Atom`` was: the reference for its value rules."""

    base: str
    inverse: bool = False


def test_atom_is_its_tuple_value():
    # An atom equals, hashes and sorts as the plain tuple (base, inverse),
    # exactly as the frozen ordered dataclass it replaced did, so set and
    # dict orders do not move under any hash seed.
    atoms = [Atom(b, i) for b in ("r", "r1", "s", "worksFor") for i in (False, True)]
    atoms.append(Atom(base="t", inverse=True))
    for a in atoms:
        old = _DataclassAtom(a.base, a.inverse)
        assert hash(a) == hash((a.base, a.inverse)) == hash(old)
        assert a == (a.base, a.inverse) and a == Atom(a.base, a.inverse)
        assert a.invert() == Atom(a.base, not a.inverse) and a.invert().invert() == a
        assert a.invert() is a.invert()
        assert repr(a) == repr(old).replace("_DataclassAtom", "Atom")
        assert str(a) == a.base + ("^-" if a.inverse else "")
        for b in atoms:
            other = _DataclassAtom(b.base, b.inverse)
            assert (a == b, a != b, a < b, a <= b) == (old == other, old != other, old < other, old <= other)
        for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(c) is Atom and c == a and hash(c) == hash(a) and repr(c) == repr(a)
    assert sorted(reversed(atoms)) == sorted(atoms, key=lambda a: (a.base, a.inverse))
    assert Atom("r") == Atom("r", False) and repr(Atom("r")) == "Atom(base='r', inverse=False)"


def test_atom_compares_in_c():
    # Every layer compares atoms; a Python ``__eq__`` or ``__hash__`` would
    # cost one interpreter frame per comparison.
    for name in ("__eq__", "__ne__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert not isinstance(getattr(Atom, name), types.FunctionType), name


def test_view_keeps_its_skeleton():
    # A view's skeleton is cut at construction and travels with replaced,
    # copied and unpickled views; equality, hash and repr go by
    # (parent, prefix) alone.
    views = catalog_closure(fig1_catalog()) + catalog_closure(
        [fn("f", [Atom("r"), Atom("s"), Atom("s", True)], (1, 2, 3))]
    )
    for v in views:
        others = [dataclasses.replace(v, prefix=p) for p in v.parent.outputs]
        copies = [copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))]
        for w in [v] + others + copies:
            assert w.skeleton == w.parent.skeleton[: w.prefix]
            assert hash(w) == hash((w.parent, w.prefix))
            assert repr(w) == f"SubFunction(parent={w.parent!r}, prefix={w.prefix!r})"
            assert not hasattr(w, "__dict__")
        assert all(c == v and hash(c) == hash(v) for c in copies)
        assert [w == v for w in others] == [p == v.prefix for p in v.parent.outputs]
        twin = SubFunction(v.parent, v.prefix)
        object.__setattr__(twin, "skeleton", ())
        assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)


def pi1(filtered=True):
    cat = fig1_catalog()
    getCompany, getHierarchy = cat[0], cat[1]
    calls = (
        FunctionCall(SubFunction(getCompany, 1), "a", (1,), ("v0",)),
        FunctionCall(SubFunction(getHierarchy, 2), "v0", (1, 2), ("v1", "v2")),
    )
    filters = (("v1", "a"),) if filtered else ()
    return ExecutionPlan(calls, filters, "v2")


def test_plan_semantics_pi1():
    sem = plan_semantics(pi1())
    assert skeleton_text(sem.skeleton) == "worksFor.worksFor^-.jobTitle"
    assert sem.filters == ((2, "a"),)
    assert sem.output == 3


def test_plan_semantics_single_call():
    plan = chain_plan([SubFunction(fn("f", [Atom("r")]), 1)], "a")
    sem = plan_semantics(plan)
    assert sem.skeleton == (Atom("r"),)
    assert sem.output == 1 and sem.filters == ()


def test_plan_semantics_bounded_figure_chain():
    u, s, t, r = Atom("u"), Atom("s"), Atom("t"), Atom("r")
    cat = [
        fn("f1", [u, s, t]),
        fn("f2", [t.invert(), s.invert()]),
        fn("f3", [s]),
        fn("f4", [s.invert(), u.invert(), r]),
    ]
    plan = chain_plan([SubFunction(f, len(f)) for f in cat], "a")
    sem = plan_semantics(plan)
    assert skeleton_text(sem.skeleton) == "u.s.t.t^-.s^-.s.s^-.u^-.r"


def test_plan_semantics_not_chained():
    getCompany, getHierarchy = fig1_catalog()[:2]
    calls = (
        FunctionCall(SubFunction(getCompany, 1), "a", (1,), ("v0",)),
        FunctionCall(SubFunction(getHierarchy, 2), "vX", (2,), ("v1",)),
    )
    with pytest.raises(NotChainedError):
        plan_semantics(ExecutionPlan(calls, (), "v1"))


def test_sub_function_transformation_truncates():
    worksAt, locatedIn = Atom("worksAt"), Atom("locatedIn")
    f = fn("getCompanyInfo", [worksAt, locatedIn], (1, 2))
    call = FunctionCall(SubFunction(f, 2), "a", (1, 2), ("y", "z"))
    plan = ExecutionPlan((call,), (), "y")
    out = sub_function_transformation(plan)
    assert out.calls[0].view.skeleton == (worksAt,)
    assert out.output == "y"


def test_sub_function_transformation_fixpoint():
    plan = strip_filters(pi1())
    plan = reduce_plan(plan)
    out = sub_function_transformation(plan)
    assert [c.view.key for c in out.calls] == [c.view.key for c in plan.calls]


def _rebuilt_reduce_plan(plan):
    """``reduce_plan`` as it was before it returned unchanged plans
    themselves: it rebuilds the plan on every call.  The reference for the
    rewrite tests."""
    calls = list(plan.calls)
    while calls:
        trimmed = ExecutionPlan(tuple(calls), plan.filters, plan.output)
        if _used_positions(trimmed)[-1]:
            return trimmed
        calls.pop()
    raise ModelError("plan reduces to nothing: output is unbound")


def _rebuilt_sub_function_transformation(plan):
    """``sub_function_transformation`` as it was, rebuilding every call."""
    new_calls = []
    for call, u in zip(plan.calls, _used_positions(plan)):
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
            FunctionCall(view, call.source, tuple(p for p, _ in keep), tuple(n for _, n in keep))
        )
    return ExecutionPlan(tuple(new_calls), plan.filters, plan.output)


def _rebuilt_core(plan):
    return _rebuilt_sub_function_transformation(_rebuilt_reduce_plan(strip_filters(plan)))


def _outcome(rewrite, plan):
    try:
        return rewrite(plan)
    except ModelError as exc:
        return type(exc)


def test_rewrites_match_the_full_rebuild():
    # The rewrites return their input where the rebuild gives an equal plan,
    # and otherwise the rebuild's plan or error: on every criterion-2 plan,
    # every weak and smart plan of the item-1 corpus, each of these without
    # its filters, a call whose view is longer than it needs, and plans
    # that have no core (empty, an orphan middle call, an unbound output).
    plans = [p for fns in _chained_plan_cases() for p in _filter_variants(fns)]
    for t in range(300):
        cat = _differential_catalog(t)
        for q in _oriented_queries(cat):
            plans += [h.plan for h in enumerate_minimal_weakly_smart(q, cat)]
            plans += [h.plan for h in enumerate_minimal_smart(q, cat)]
    # Stripped of their filters, some plans have outputs that nothing uses.
    plans += [strip_filters(p) for p in plans if p.filters]
    f, g = fn("f", [Atom("r"), Atom("s")], (1, 2)), fn("g", [Atom("s")])
    x = FunctionCall(SubFunction(f, 2), "a", (1, 2), ("x", "y"))
    orphan = FunctionCall(SubFunction(g, 1), "a", (1,), ("z",))
    last = FunctionCall(SubFunction(g, 1), "y", (1,), ("w",))
    empty = ExecutionPlan((), (), "x")
    orphaned = ExecutionPlan((x, orphan, last), (), "w")
    unbound = ExecutionPlan((x, last), (), "nope")
    # A view that runs past the one position its call binds.
    plans.append(ExecutionPlan((FunctionCall(SubFunction(f, 2), "a", (1,), ("x",)),), (), "x"))
    rewrites = [
        (reduce_plan, _rebuilt_reduce_plan),
        (sub_function_transformation, _rebuilt_sub_function_transformation),
        (constraint_free_core, _rebuilt_core),
    ]
    kept = [0, 0]
    for plan in plans + [empty, orphaned, unbound]:
        for i, (rewrite, rebuild) in enumerate(rewrites):
            got, want = _outcome(rewrite, plan), _outcome(rebuild, plan)
            assert got == want and type(got) is type(want), (rewrite.__name__, plan)
            if i < 2 and not isinstance(want, type):
                assert (got is plan) == (want == plan), (rewrite.__name__, plan)
                kept[i] += got is plan
    # Both rewrites keep some plans and rebuild others.
    assert all(0 < k < len(plans) for k in kept), kept
    outcomes = [[_outcome(r, p) for r, _ in rewrites] for p in (empty, orphaned, unbound)]
    assert outcomes == [
        [ModelError, empty, ModelError],
        [orphaned, ModelError, ModelError],
        [ModelError, ModelError, ModelError],
    ]


def test_transformation_preserves_evaluation():
    # Random two-output plans evaluate identically to their transformed
    # forms under optional edge semantics.
    rng = random.Random(41)
    rels = [Atom("p"), Atom("q"), Atom("s")]
    query = AtomicQuery(Atom("p"), "a")
    for trial in range(50):
        sk = tuple(rng.choice(rels) for _ in range(2))
        f = fn("f", sk, (1, 2))
        g = fn("g", [rng.choice(rels)])
        call1 = FunctionCall(SubFunction(f, 2), "a", (1, 2), ("y", "z"))
        call2 = FunctionCall(SubFunction(g, 1), "y", (1,), ("w",))
        plan = ExecutionPlan((call1, call2), (), "w")
        transformed = sub_function_transformation(plan)
        facts = set()
        pool = ["a", "b", "c", "d"]
        for _ in range(rng.randint(1, 12)):
            facts.add(
                Fact(rng.choice(rels).base, rng.choice(pool), rng.choice(pool))
            )
        inst = Instance(facts)
        assert eval_plan(plan, query, inst, OPTIONAL_EDGE) == eval_plan(
            transformed, query, inst, OPTIONAL_EDGE
        )
