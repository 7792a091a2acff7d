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
from pathplan.model import PathSemantics, plan_semantics, strip_filters

from util import fig1_catalog, fn, jobtitle_query, music_catalog


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
