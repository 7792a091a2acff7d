import dataclasses
import random

from pathplan import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    FunctionCall,
    SubFunction,
    chain_plan,
    call_function,
    canonical_weak_database,
    eval_plan,
    oracle_is_smart,
    oracle_is_weakly_smart,
    query_answers,
)
from pathplan.evaluate import (
    OPTIONAL_EDGE,
    STANDARD,
    Fact,
    Instance,
    eval_semantics,
    project_rows,
)
from pathplan import evaluate
from pathplan.model import ModelError, PathSemantics, plan_semantics, strip_filters

from test_acceptance import _chained_plan_cases, _filter_variants
from util import (
    count_calls,
    fig1_catalog,
    fn,
    jobtitle_query,
    music_catalog,
    reference_call_rows,
    reference_eval_plan,
    reference_oracle_is_smart,
    reference_oracle_is_weakly_smart,
    report_key,
)


FIG1_INSTANCE = Instance(
    [
        Fact("worksFor", "Anna", "TheGuardian"),
        Fact("jobTitle", "Anna", "Journalist"),
        Fact("graduatedFrom", "Anna", "Oxford"),
    ]
)


def test_eval_path_query_pi1():
    skeleton = (Atom("worksFor"), Atom("worksFor", True), Atom("jobTitle"))
    sem = PathSemantics(skeleton, ((2, "Anna"),), 3)
    assert eval_semantics(sem, "Anna", FIG1_INSTANCE) == {"Journalist"}


def test_eval_path_query_empty_skeleton():
    assert eval_semantics(PathSemantics((), (), 0), "a", Instance()) == {"a"}


def test_eval_path_query_no_facts():
    assert eval_semantics(PathSemantics((Atom("r"),), (), 1), "a", Instance()) == set()


def company_info():
    return fn("getCompanyInfo", [Atom("worksAt"), Atom("locatedIn")], (1, 2))


def test_call_function_optional_edge_partial():
    inst = Instance([Fact("worksAt", "p", "acme")])
    view = SubFunction(company_info(), 2)
    result = call_function(view, "p", inst, OPTIONAL_EDGE)
    assert result.rows == frozenset({("acme", None)})
    standard = call_function(view, "p", inst, STANDARD)
    assert standard.rows == frozenset()


def test_call_function_length_one_modes_agree():
    inst = Instance([Fact("worksAt", "p", "acme")])
    view = SubFunction(company_info(), 1)
    assert call_function(view, "p", inst, STANDARD).rows == call_function(
        view, "p", inst, OPTIONAL_EDGE
    ).rows


def test_optional_edge_projection_law_small():
    # Projecting the full function's rows onto a prefix view's outputs
    # equals calling the prefix view directly.
    rng = random.Random(23)
    rels = ["p", "q", "s"]
    for _ in range(200):
        length = rng.randint(1, 3)
        try:
            sk = tuple(Atom(rng.choice(rels), rng.random() < 0.5) for _ in range(length))
            f = fn("f", sk, tuple(range(1, length + 1)))
        except Exception:
            continue  # multi-pivot bodies are rejected at construction
        pool = ["a", "b", "c"]
        facts = {
            Fact(rng.choice(rels), rng.choice(pool), rng.choice(pool))
            for _ in range(rng.randint(0, 8))
        }
        inst = Instance(facts)
        full = call_function(SubFunction(f, length), "a", inst, OPTIONAL_EDGE)
        for sub in [SubFunction(f, k) for k in range(1, length + 1)]:
            assert project_rows(full, sub.bindable) == call_function(
                sub, "a", inst, OPTIONAL_EDGE
            ).rows


def pi_plan(first_fn, filtered=True):
    cat = fig1_catalog()
    getHierarchy = cat[1]
    calls = (
        FunctionCall(SubFunction(first_fn, 1), "Anna", (1,), ("x",)),
        FunctionCall(SubFunction(getHierarchy, 2), "x", (1, 2), ("y", "z")),
    )
    filters = (("y", "Anna"),) if filtered else ()
    return ExecutionPlan(calls, filters, "z")


def test_eval_plan_pi1():
    q = AtomicQuery(Atom("jobTitle"), "Anna")
    plan = pi_plan(fig1_catalog()[0])
    assert eval_plan(plan, q, FIG1_INSTANCE, STANDARD) == {"Journalist"}
    assert eval_plan(plan, q, Instance(), STANDARD) == set()


def test_eval_plan_filtered_can_miss_query():
    # A non-smart plan: unfiltered results exist while the filtered plan
    # misses the query answers entirely.
    q = AtomicQuery(Atom("jobTitle"), "Anna")
    inst = Instance(
        [
            Fact("graduatedFrom", "Anna", "Oxford"),
            Fact("worksFor", "Bob", "Oxford"),
            Fact("jobTitle", "Bob", "Don"),
            Fact("jobTitle", "Anna", "Journalist"),
        ]
    )
    pi2 = pi_plan(fig1_catalog()[2])
    unfiltered = strip_filters(pi2)
    assert eval_plan(unfiltered, q, inst, STANDARD) == {"Don"}
    assert eval_plan(pi2, q, inst, STANDARD) == set()
    assert query_answers(q, inst) == {"Journalist"}


def test_eval_plan_matches_semantics():
    rng = random.Random(3)
    rels = ["p", "q"]
    query = AtomicQuery(Atom("p"), "a")
    for _ in range(100):
        fns = [
            fn(f"f{i}", [Atom(rng.choice(rels), rng.random() < 0.5) for j in range(rng.randint(1, 2))])
            for i in range(rng.randint(1, 3))
        ]
        plan = chain_plan([SubFunction(f, len(f)) for f in fns], "a")
        pool = ["a", "b", "c"]
        inst = Instance(
            {
                Fact(rng.choice(rels), rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(0, 10))
            }
        )
        sem = plan_semantics(plan)
        assert eval_plan(plan, query, inst, STANDARD) == eval_semantics(sem, "a", inst)


def test_canonical_weak_database_shape():
    q = jobtitle_query()
    sem = PathSemantics(
        (Atom("worksFor"), Atom("worksFor", True), Atom("jobTitle")), (), 3
    )
    inst = canonical_weak_database(sem, q)
    assert len(inst) == 4
    assert query_answers(q, inst) == {"c0"}


def test_canonical_weak_database_loose_variant():
    # When the skeleton opens with the query relation the same instance
    # gives the query a second answer.
    q = AtomicQuery(Atom("r"), "a")
    sem = PathSemantics((Atom("r"), Atom("s")), (), 2)
    inst = canonical_weak_database(sem, q)
    assert query_answers(q, inst) == {"c0", "c2"}


def test_canonical_weak_database_short():
    q = AtomicQuery(Atom("r"), "a")
    sem = PathSemantics((Atom("r"),), (), 1)
    assert len(canonical_weak_database(sem, q)) == 2


def test_canonical_weak_database_fresh_constants():
    # A query or filter constant named like a fresh constant must not merge
    # two nodes of the line.
    sem = PathSemantics((Atom("r", True), Atom("s")), (), 2)
    for constant in ("a", "c0", "c2"):
        inst = canonical_weak_database(sem, AtomicQuery(Atom("r"), constant))
        assert len(inst) == 3 and len(inst.constants()) == 4
    filtered = PathSemantics(sem.skeleton, ((1, "c2"),), 2)
    inst = canonical_weak_database(filtered, AtomicQuery(Atom("r"), "a"))
    assert "c2" not in inst.constants() and len(inst.constants()) == 4


def test_oracle_weakly_smart_pi1_pi2():
    q = AtomicQuery(Atom("jobTitle"), "Anna")
    pi1 = pi_plan(fig1_catalog()[0])
    pi2 = pi_plan(fig1_catalog()[2])
    assert oracle_is_weakly_smart(pi1, q).verdict
    report = oracle_is_weakly_smart(pi2, q)
    assert not report.verdict
    assert report.witness is not None
    # Witness: the person graduated somewhere other than the employer.
    rels = {f.relation for f in report.witness.facts}
    assert "graduatedFrom" in rels and "jobTitle" in rels


def test_oracle_smart_music():
    q = AtomicQuery(Atom("sing"), "a")
    cat = music_catalog()
    plan = chain_plan([SubFunction(cat[0], 2), SubFunction(cat[1], 1)], "a")
    report = oracle_is_smart(plan, q)
    assert not report.verdict
    assert report.witness is not None


def test_oracle_smart_pi1():
    q = AtomicQuery(Atom("jobTitle"), "Anna")
    pi1 = pi_plan(fig1_catalog()[0])
    assert oracle_is_smart(pi1, q).verdict


def test_bounded_plans_deliver_supersets():
    # Whenever a bounded plan's unfiltered version succeeds and the query
    # has answers, the plan delivers every answer.
    import random as _random

    from pathplan import is_bounded
    from pathplan.synth import SynthConfig, gen_catalog
    from pathplan.model import plan_semantics

    from pathplan import enumerate_minimal_weakly_smart

    rng = _random.Random(13)
    checked = 0
    for seed in range(60):
        cat = gen_catalog(SynthConfig(2, 4, 2, seed=seed + 700))
        q = AtomicQuery(Atom("r1"), "a")
        hits = [
            h
            for h in enumerate_minimal_weakly_smart(q, cat)
            if is_bounded(plan_semantics(h.plan).skeleton, q) is not None
        ]
        for hit in hits[:2]:
            for _ in range(12):
                pool = ["a", "b", "c"]
                rels = ["r1", "r2"]
                facts = {
                    Fact(rng.choice(rels), rng.choice(pool), rng.choice(pool))
                    for _ in range(rng.randint(3, 14))
                }
                inst = Instance(facts)
                answers = query_answers(q, inst)
                delivered = eval_plan(hit.plan, q, inst, OPTIONAL_EDGE)
                if not answers or not delivered:
                    continue
                checked += 1
                assert delivered >= answers
    assert checked > 10


def test_eval_plan_null_input_skips_downstream_call():
    # Optional-edge rows with an absent binding leave downstream outputs
    # absent instead of failing the whole row.
    f = fn("f", [Atom("p"), Atom("q")], (1, 2))
    g = fn("g", [Atom("s")])
    call1 = FunctionCall(SubFunction(f, 2), "a", (1, 2), ("x", "y"))
    call2 = FunctionCall(SubFunction(g, 1), "y", (1,), ("z",))
    plan = ExecutionPlan((call1, call2), (), "x")
    inst = Instance([Fact("p", "a", "m")])
    qy = AtomicQuery(Atom("p"), "a")
    assert eval_plan(plan, qy, inst, OPTIONAL_EDGE) == {"m"}
    assert eval_plan(plan, qy, inst, STANDARD) == set()


def _reference_plans():
    """Every 20th criterion-2 plan, and hand-made plans: a two-output last
    call filtered on either output, a filter on an earlier call's variable,
    an output read before a call that can find no path, and calls that read
    a variable other than the previous call's output, an unbound one, or a
    name bound twice."""
    plans = [p for fns in _chained_plan_cases() for p in _filter_variants(fns)][::20]
    for first in (fig1_catalog()[0], fig1_catalog()[2]):
        pi = pi_plan(first)
        y, z = pi.calls[-1].outputs
        plans += [pi, ExecutionPlan(pi.calls, ((z, "Anna"),), y)]
    r, s = Atom("r"), Atom("s")
    f = fn("f", [r, s.invert()], (1, 2))
    g, h = fn("g", [s]), fn("h", [r.invert(), r], (1, 2))
    k = fn("k", [s, r, s], (1, 2, 3))
    views = [SubFunction(g, 1), SubFunction(h, 2), SubFunction(g, 1)]
    plans.append(chain_plan(views, "a", (("v0", "a"),)))

    def call(fun, source, bind, outputs):
        return FunctionCall(SubFunction(fun, max(bind)), source, bind, outputs)

    two = call(f, "a", (1, 2), ("x", "y"))
    plans += [
        ExecutionPlan((two, call(g, "x", (1,), ("z",))), (("y", "a"),), "z"),
        ExecutionPlan((call(f, "a", (2,), ("x",)), call(h, "x", (2,), ("z",))), (), "x"),
        ExecutionPlan((two, call(g, "w", (1,), ("z",))), (), "z"),
        ExecutionPlan((two, call(h, "y", (1, 2), ("x", "x"))), (("y", "a"),), "x"),
        ExecutionPlan(
            (call(g, "a", (1,), ("x",)), call(g, "x", (1,), ("y",)), call(g, "y", (1,), ("x",))),
            (),
            "x",
        ),
        ExecutionPlan((call(k, "a", (1, 2, 3), ("x", "y", "x")),), (("y", "b"),), "x"),
        ExecutionPlan((two,), (("w", "a"),), "x"),
    ]
    return plans


def _reference_instances(plan, rng):
    """A few random instances over the plan's relations, the empty one,
    and one where no fact touches the plan's constant."""
    rels = sorted({atom.base for call in plan.calls for atom in call.view.skeleton})
    pool = [plan.constant, "b", "c", "d"]
    out = [Instance(), Instance([Fact(rels[0], "b", "c")])]
    for _ in range(6):
        out.append(
            Instance(
                {
                    Fact(rng.choice(rels), rng.choice(pool), rng.choice(pool))
                    for _ in range(rng.randint(1, 8))
                }
            )
        )
    return out


def test_eval_plan_matches_reference():
    rng = random.Random(41)
    checked = 0
    for plan in _reference_plans():
        query = AtomicQuery(Atom("r"), plan.constant)
        for inst in _reference_instances(plan, rng):
            for mode in (STANDARD, OPTIONAL_EDGE):
                got = eval_plan(plan, query, inst, mode)
                assert got == reference_eval_plan(plan, inst, mode), (plan, inst, mode)
                for call in plan.calls:
                    for value in inst.constants():
                        got = call_function(call.view, value, inst, mode).rows
                        assert got == reference_call_rows(call.view, value, inst, mode)
                checked += 1
    assert checked > 1000


def test_oracles_match_reference():
    # Verdict, witness, completeness and the member count, in both modes,
    # for a forward and an inverse query.
    queries = {
        "a": [AtomicQuery(Atom("r"), "a"), AtomicQuery(Atom("r", True), "a")],
        "Anna": [AtomicQuery(Atom("jobTitle"), "Anna")],
    }
    budgets = {
        OPTIONAL_EDGE: dict(budget=6, max_instances=300),
        STANDARD: dict(budget=3, max_instances=100),
    }
    pairs = [
        (oracle_is_weakly_smart, reference_oracle_is_weakly_smart),
        (oracle_is_smart, reference_oracle_is_smart),
    ]
    # Plans rooted at c0 or c1, fresh names of the oracles' pool for a query
    # on a, and with a filter on c1, which moves the pool to c_0, c_1, c_2,
    # rooted at c_1: a renaming of the pool must leave the root in place.
    criterion2 = [p for fns in _chained_plan_cases() for p in _filter_variants(fns)]
    pool_rooted = []
    for plan in (criterion2[417], criterion2[3174], criterion2[3337]):
        pool_rooted += [_rooted(plan, "c0"), _rooted(plan, "c1")]
        (var, _), = plan.filters
        pool_rooted.append(_rooted(ExecutionPlan(plan.calls, ((var, "c1"),), plan.output), "c_1"))
    for constant in ("c0", "c1", "c_1"):
        queries[constant] = queries["a"]
    for plan in _reference_plans() + pool_rooted:
        try:
            plan_semantics(plan)
        except ModelError:
            continue  # not chained: the oracles need the plan's semantics
        for query in queries[plan.constant]:
            for mode, budget in budgets.items():
                for oracle, reference in pairs:
                    got = report_key(oracle(plan, query, mode=mode, **budget))
                    want = report_key(reference(plan, query, mode=mode, **budget))
                    assert got == want, (plan, query, mode, oracle.__name__)


def _rooted(plan, constant):
    """The plan with its first call reading ``constant``."""
    first = dataclasses.replace(plan.calls[0], source=constant)
    return ExecutionPlan((first,) + plan.calls[1:], plan.filters, plan.output)


def test_oracle_walk_memo_keeps_neighbouring_shapes_apart():
    # The universe layer's class walk is kept per shape: the layer's facts,
    # its pool names outside the fixed ones, the budget, the cap and the rng
    # seed.  Each plan runs rooted at a, at c0 and c1 (fresh names of the
    # pool for a query on a), and with its filter moved to c1 and rooted at
    # c_1, each by both oracles in turn, over r alone and over r and s, so a
    # warm entry of one shape is followed by a neighbouring one.  At cap 0
    # the universe layer is the random layer alone, where the two-output
    # plan refutes.
    r, s = Atom("r"), Atom("s")
    two = FunctionCall(SubFunction(fn("f", [r, s.invert()], (1, 2)), 2), "a", (1, 2), ("x", "y"))
    then = FunctionCall(SubFunction(fn("g", [s]), 1), "x", (1,), ("z",))
    criterion2 = [p for fns in _chained_plan_cases() for p in _filter_variants(fns)]
    bases = [criterion2[18], criterion2[3174], ExecutionPlan((two, then), (("y", "a"),), "z")]
    plans = []
    for plan in bases:
        (var, _), = plan.filters
        moved = ExecutionPlan(plan.calls, ((var, "c1"),), plan.output)
        plans += [plan, _rooted(plan, "c0"), _rooted(plan, "c1"), _rooted(moved, "c_1")]
    budgets = [
        (OPTIONAL_EDGE, dict(budget=6, max_instances=300)),
        (OPTIONAL_EDGE, dict(budget=6, max_instances=3000)),
        (STANDARD, dict(budget=3, max_instances=100)),
        (OPTIONAL_EDGE, dict(budget=6, max_instances=0)),
    ]
    pairs = [
        (oracle_is_weakly_smart, reference_oracle_is_weakly_smart),
        (oracle_is_smart, reference_oracle_is_smart),
    ]
    evaluate._walks.clear()
    random_layer = []
    for mode, budget in budgets:
        for plan in plans:
            for query in (AtomicQuery(r, "a"), AtomicQuery(r.invert(), "a")):
                for oracle, reference in pairs:
                    got = report_key(oracle(plan, query, mode=mode, **budget))
                    want = report_key(reference(plan, query, mode=mode, **budget))
                    assert got == want, (plan, query, mode, budget, oracle.__name__)
                    if budget["max_instances"] == 0 and plan is bases[-1]:
                        random_layer.append(got[3])
    # The canonical database has four facts and 14 proper subsets, so
    # these refute at members 3 and 12 of the random layer.
    assert random_layer == [18, 27, 18, 27]


def test_oracles_walk_each_shape_once():
    # The oracles reach the universe layer nine times here, for eight plans
    # over r alone or over r and s, but walk its renaming classes once per
    # shape: three, since only the weak oracle reaches it over r and s.
    plans = [p for fns in _chained_plan_cases() for p in _filter_variants(fns)][::20]
    query = AtomicQuery(Atom("r"), "a")
    evaluate._walks.clear()
    with count_calls(evaluate, "_classes") as walked, count_calls(evaluate, "_walk") as reached:
        for plan in plans:
            for oracle in (oracle_is_weakly_smart, oracle_is_smart):
                oracle(plan, query, budget=6, max_instances=3000)
    assert (walked.calls, reached.calls) == (3, 9)


def test_oracles_build_one_member_per_renaming_class():
    # Both oracles confirm these plans, so they walk the whole family.  In
    # its universe layer a member whose renaming class was already evaluated
    # is counted but not built; the pinned counts include the canonical
    # database, built once.
    r = Atom("r")
    views = [
        SubFunction(fn("f0", [r.invert()]), 1),
        SubFunction(fn("f1", [r]), 1),
        SubFunction(fn("f2", [r, r.invert()], (1, 2)), 2),
    ]
    two = chain_plan(views, "a", two_output_last=True)  # r^-.r.r.r^-
    y, z = two.calls[-1].outputs
    cases = [
        (ExecutionPlan(two.calls, ((z, "a"),), y), AtomicQuery(r, "a"), (419, 539)),
        (pi_plan(fig1_catalog()[0]), AtomicQuery(Atom("jobTitle"), "Anna"), (117, 286)),
    ]
    pairs = [
        (oracle_is_weakly_smart, reference_oracle_is_weakly_smart),
        (oracle_is_smart, reference_oracle_is_smart),
    ]
    budget = dict(budget=6, max_instances=3000)
    for plan, query, counts in cases:
        for (oracle, reference), count in zip(pairs, counts):
            with count_calls(evaluate, "Instance") as built:
                report = oracle(plan, query, **budget)
            assert report.verdict and not report.complete
            assert report_key(report) == report_key(reference(plan, query, **budget))
            assert built.calls == count, (plan, oracle.__name__)


def test_weak_oracle_builds_only_members_that_can_refute():
    # Members without a query-answer fact, or without a fact leading from
    # the constant along the first atom, still count as checked but are
    # never built into an Instance.
    q = AtomicQuery(Atom("jobTitle"), "Anna")
    pi1 = pi_plan(fig1_catalog()[0])
    budget = dict(budget=6, max_instances=3000)
    with count_calls(evaluate, "Instance") as built:
        report = oracle_is_weakly_smart(pi1, q, **budget)
    assert report.verdict and report.instances_checked == 3215
    assert built.calls < report.instances_checked
    assert report_key(report) == report_key(reference_oracle_is_weakly_smart(pi1, q, **budget))
