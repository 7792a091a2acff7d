import copy
import dataclasses
import pickle
import random

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
    derive_sub_functions,
    plan_semantics,
    reverse_skeleton,
    skeleton_text,
    sub_function_transformation,
    validate_plan,
)
from pathplan.model import MultiPivotError, NotChainedError, reduce_plan, strip_filters
from pathplan.evaluate import OPTIONAL_EDGE, Instance, Fact, eval_plan

from util import fig1_catalog, fn, jobtitle_query


def test_invert_is_involution():
    a = Atom("worksFor")
    assert a.invert() == Atom("worksFor", True)
    assert a.invert().invert() == a
    assert str(a.invert()) == "worksFor^-"


def test_reverse_skeleton():
    u, s, t = Atom("u"), Atom("s"), Atom("t")
    assert reverse_skeleton((u, s, t)) == (t.invert(), s.invert(), u.invert())
    rng = random.Random(7)
    names = ["a", "b", "c", "d"]
    for _ in range(1000):
        sk = tuple(
            Atom(rng.choice(names), rng.random() < 0.5)
            for _ in range(rng.randint(0, 10))
        )
        assert reverse_skeleton(reverse_skeleton(sk)) == sk


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
    subs = derive_sub_functions(f)
    assert [s.skeleton for s in subs] == [(worksAt,), (worksAt, locatedIn)]


def test_derive_sub_functions_single_output():
    f = fn("f", [Atom("p"), Atom("q")])
    subs = derive_sub_functions(f)
    assert len(subs) == 1 and subs[0].skeleton == f.skeleton


def test_derive_sub_functions_prefix_ordered():
    getHierarchy = fig1_catalog()[1]
    subs = derive_sub_functions(getHierarchy)
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
        views = derive_sub_functions(f)
        assert views == [SubFunction(f, p) for p in f.outputs]
        assert all(a is b for a, b in zip(views, derive_sub_functions(f)))


def test_replaced_or_copied_function_gets_its_own_views():
    # With both caches of f filled, a replaced, copied or unpickled
    # function still hashes equal and names itself in its views.
    f = fig1_catalog()[1]
    hash(f), derive_sub_functions(f)
    g = dataclasses.replace(f, name="other")
    assert all(v.parent is g for v in derive_sub_functions(g))
    for h in (dataclasses.replace(f), copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert h == f and hash(h) == hash(f)
        assert all(v.parent is h for v in derive_sub_functions(h))


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


def test_validate_plan_clean():
    assert validate_plan(pi1(), jobtitle_query()) == []


def test_validate_plan_wrong_constant():
    plan = pi1()
    violations = validate_plan(plan, AtomicQuery(Atom("jobTitle"), "b"))
    assert "NoInputA" in violations


def test_validate_plan_orphan_call():
    cat = fig1_catalog()
    calls = (
        FunctionCall(SubFunction(cat[0], 1), "a", (1,), ("v0",)),
        FunctionCall(SubFunction(cat[2], 1), "v0", (1,), ("v1",)),
    )
    plan = ExecutionPlan(calls, (), "v0")
    violations = validate_plan(plan, jobtitle_query())
    assert any(v.startswith("OrphanCall") for v in violations)
