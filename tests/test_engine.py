import itertools
import random
import time

import pytest

from pathplan import (
    Atom,
    AtomicQuery,
    SubFunction,
    bound_estimate,
    catalog_closure,
    chain_plan,
    enumerate_minimal_smart,
    enumerate_minimal_weakly_smart,
    find_one_weakly_smart,
    has_trivial_equivalent_rewriting,
    is_smart,
    is_weakly_smart,
    susie_plans,
)
from pathplan import characterize, engine
from pathplan.characterize import SMART, weakly_smart_skeleton
from pathplan.dsl import parse_catalog, serialize_catalog, serialize_plan
from pathplan.engine import (
    EmptyCatalogError,
    Member,
    _may_be_weak,
    _Searcher,
    search_successors,
    smart_plan_exists,
    state_consistent,
)
from pathplan.synth import SynthConfig, gen_catalog

from test_acceptance import _no_existential_catalogs

from util import (
    brute_force_minimal_weak,
    count_calls,
    fig1_catalog,
    fn,
    jobtitle_query,
    music_catalog,
)


def member(text, index, forward, designated=False):
    atoms = []
    for part in text.split("."):
        atoms.append(Atom(part[:-2], True) if part.endswith("^-") else Atom(part))
    atoms = tuple(atoms)
    return Member(("t", len(atoms), 1, len(atoms)), atoms, index, forward, designated)


def test_state_consistent_positive():
    # Both members emit u at this scan position.
    state = {member("u.s", 1, True, True), member("s^-.u^-.r", 2, False)}
    assert state_consistent(state)


def test_state_consistent_negative():
    state = {member("u.s", 1, True, True), member("t^-.s^-", 1, False)}
    assert not state_consistent(state)


def test_state_consistent_singleton():
    assert state_consistent({member("u", 1, True, True)})


def test_search_successors_single_atom_ends():
    rec = search_successors({member("r", 1, True, True)})
    assert rec.advanced == frozenset()
    assert len(rec.ended) == 1 and any(m.designated for m in rec.ended)


def test_search_successors_mid_flight():
    rec = search_successors(
        {member("u.s.t", 2, True, True), member("t^-.s^-", 2, False)}
    )
    assert len(rec.started) == 0 and len(rec.ended) == 0
    indices = sorted((m.index, m.forward) for m in rec.advanced)
    assert indices == [(1, False), (3, True)]


def test_search_successors_start_and_end():
    rec = search_successors(
        {member("u.s.t", 3, True, True), member("t^-.s^-", 1, False)}
    )
    assert len(rec.started) == 1 and len(rec.ended) == 1
    assert any(m.designated for m in rec.ended)


def test_enumerate_fig1():
    hits = enumerate_minimal_weakly_smart(jobtitle_query(), fig1_catalog())
    assert len(hits) == 1
    assert [v.name for v in hits[0].views] == ["getCompany", "getHierarchy"]
    assert hits[0].shape == "bounded"


def test_enumerate_trivial_function():
    r = Atom("r")
    hits = enumerate_minimal_weakly_smart(AtomicQuery(r, "a"), [fn("f", [r])])
    assert len(hits) == 1 and len(hits[0].views) == 1


def test_enumerate_bounded_figure_catalog():
    u, s, t, r = Atom("u"), Atom("s"), Atom("t"), Atom("r")
    cat = [
        fn("f1", [u, s, t]),
        fn("f2", [t.invert(), s.invert()]),
        fn("f3", [s]),
        fn("f4", [s.invert(), u.invert(), r]),
    ]
    hits = enumerate_minimal_weakly_smart(AtomicQuery(r, "a"), cat)
    names = {tuple(v.name for v in h.views) for h in hits}
    assert ("f1", "f2", "f3", "f4") in names


def test_enumerate_excludes_non_minimal():
    r = Atom("r")
    cat = [fn("f1", [r]), fn("f2", [r.invert(), r])]
    hits = enumerate_minimal_weakly_smart(AtomicQuery(r, "a"), cat)
    assert [tuple(v.name for v in h.views) for h in hits] == [("f1",)]


def test_enumerate_empty_catalog():
    with pytest.raises(EmptyCatalogError):
        enumerate_minimal_weakly_smart(jobtitle_query(), [])


def test_loop_solo_plan():
    s, r = Atom("s"), Atom("r")
    cat = [fn("f", [s, s.invert(), r])]
    hits = enumerate_minimal_weakly_smart(AtomicQuery(r, "a"), cat)
    assert [tuple(v.name for v in h.views) for h in hits] == [("f",)]


def test_weak_plans_for_constants_named_like_fresh_ones():
    # f is weakly smart only if a query constant named like a fresh
    # constant merged two nodes of the canonical database.
    r = Atom("r")
    cat = [fn("f", [r.invert()])]
    for constant in ("a", "c0", "c2"):
        q = AtomicQuery(r, constant)
        plan = chain_plan([SubFunction(cat[0], 1)], constant)
        assert not is_weakly_smart(plan, q)
        assert enumerate_minimal_weakly_smart(q, cat) == []
        assert find_one_weakly_smart(q, cat).hit is None


def test_find_one_matches_enumerate():
    for seed in range(60):
        cat = gen_catalog(SynthConfig(3, 4, 3, seed=seed + 300))
        for base in ("r1", "r2"):
            q = AtomicQuery(Atom(base), "a")
            hits = enumerate_minimal_weakly_smart(q, cat)
            result = find_one_weakly_smart(q, cat)
            assert (result.hit is not None) == bool(hits)
            if result.hit is not None:
                # The returned plan is itself minimal and weakly smart.
                keys = tuple(v.key for v in result.hit.views)
                assert keys in {tuple(v.key for v in h.views) for h in hits}


def test_find_one_never_revisits_and_respects_bound():
    for seed in range(20):
        cat = gen_catalog(SynthConfig(3, 5, 3, seed=seed + 900))
        q = AtomicQuery(Atom("r1"), "a")
        result = find_one_weakly_smart(q, cat)
        assert result.states_visited <= result.state_bound


def test_smart_fig1():
    hits = enumerate_minimal_smart(jobtitle_query(), fig1_catalog())
    assert len(hits) == 1
    plan = hits[0].plan
    assert [v.name for v in hits[0].views] == ["getCompany", "getHierarchy"]
    assert plan.filters == (("v1", "a"),) and plan.output == "v2"


def test_smart_music_none():
    q = AtomicQuery(Atom("sing"), "a")
    assert enumerate_minimal_smart(q, music_catalog()) == []
    assert len(enumerate_minimal_weakly_smart(q, music_catalog())) == 1


def susie_miss_catalog():
    worksFor, locatedIn, jobTitle = Atom("worksFor"), Atom("locatedIn"), Atom("jobTitle")
    return [
        fn("getProfessionalAddress", [worksFor, locatedIn]),
        fn("getEntityAtAddress", [locatedIn.invert()]),
        fn("getHierarchy", [worksFor.invert(), jobTitle], (1, 2)),
    ]


def test_smart_plan_susie_misses():
    q = jobtitle_query()
    cat = susie_miss_catalog()
    smart = enumerate_minimal_smart(q, cat)
    names = {tuple(v.name for v in h.views) for h in smart}
    assert ("getProfessionalAddress", "getEntityAtAddress", "getHierarchy") in names
    susie = susie_plans(q, cat)
    assert susie == []


def test_susie_fig1():
    hits = susie_plans(jobtitle_query(), fig1_catalog())
    assert len(hits) == 1
    assert [v.name for v in hits[0].views] == ["getCompany", "getHierarchy"]


def test_susie_plans_are_smart():
    for seed in range(40):
        cat = gen_catalog(SynthConfig(3, 4, 2, seed=seed + 450))
        for base in ("r1", "r2", "r3"):
            for inv in (False, True):
                q = AtomicQuery(Atom(base, inv), "a")
                for hit in susie_plans(q, cat):
                    assert is_smart(hit.plan, q).level == SMART


def test_minimize_outputs_are_minimal():
    rng = random.Random(77)
    for seed in range(30):
        cat = gen_catalog(SynthConfig(2, 4, 2, seed=seed + 50))
        q = AtomicQuery(Atom("r1"), "a")
        hits = enumerate_minimal_weakly_smart(q, cat)
        for hit in hits[:3]:
            views = hit.views
            n = len(views)
            if n > 6:
                continue
            # No proper subsequence is weakly smart.
            import itertools

            from pathplan import is_loosely_bounded

            for size in range(1, n):
                for combo in itertools.combinations(range(n), size):
                    sub = [views[i] for i in combo]
                    sk = tuple(a for v in sub for a in v.skeleton)
                    assert is_loosely_bounded(sk, q) is None


def test_has_trivial_equivalent_rewriting():
    r = Atom("r")
    assert has_trivial_equivalent_rewriting(AtomicQuery(r, "a"), [fn("f", [r])])
    assert not has_trivial_equivalent_rewriting(jobtitle_query(), fig1_catalog())
    located = Atom("locatedIn", True)
    assert has_trivial_equivalent_rewriting(
        AtomicQuery(located, "a"), susie_miss_catalog()
    )


def test_bound_estimate():
    r, s = Atom("r"), Atom("s")
    est = bound_estimate([fn("f", [r])])
    assert est.state_bound == 1 and est.factorial_digits == 1
    est = bound_estimate([fn("f", [r, s]), fn("g", [s])])
    assert est.state_bound == 16
    thirty = [fn(f"f{i}", [r, s, r]) for i in range(30)]
    est = bound_estimate(thirty)
    assert est.state_bound == 729_000_000
    assert est.factorial_digits > 6 * 10**9  # log10(M!) is astronomically large


def test_bound_estimate_counts_closure():
    # getHierarchy has two outputs, so the closure holds four views.
    est = bound_estimate(fig1_catalog())
    result = find_one_weakly_smart(jobtitle_query(), fig1_catalog())
    assert est.state_bound == result.state_bound == 256


def test_engine_matches_brute_force_small():
    # Functions of length up to 5 give turn calls whose descent is two atoms
    # longer than their ascent, so a forward piece can join between them:
    # the forward path must follow stamp order (seed 10, r1^-: f1.f6.f4).
    r1, r2 = Atom("r1"), Atom("r2")
    cases = [(SynthConfig(3, 4, 3, seed=seed), (r1, r2), 4) for seed in range(25)]
    cases += [
        (SynthConfig(2, 6, 5, seed=seed), (r1, r1.invert(), r2, r2.invert()), 3)
        for seed in range(40)
    ]
    mismatches = []
    for config, atoms, max_calls in cases:
        cat = gen_catalog(config)
        for atom in atoms:
            q = AtomicQuery(atom, "a")
            ref = set(brute_force_minimal_weak(q, cat, max_calls=max_calls))
            got = {
                tuple(v.key for v in h.views)
                for h in enumerate_minimal_weakly_smart(q, cat)
                if len(h.views) <= max_calls
            }
            if got != ref:
                mismatches.append((config, atom, got ^ ref))
    assert mismatches == []


def test_enumerated_smart_plans_verify():
    # Generator-checker soundness: every emitted smart plan passes the
    # smart verdict; every emitted weak plan passes the weak check.
    from pathplan import is_weakly_smart

    for seed in range(20):
        cat = gen_catalog(SynthConfig(3, 5, 3, seed=seed + 2400))
        q = AtomicQuery(Atom("r1"), "a")
        for hit in enumerate_minimal_smart(q, cat):
            assert is_smart(hit.plan, q).level == SMART
        for hit in enumerate_minimal_weakly_smart(q, cat):
            assert is_weakly_smart(hit.plan, q)


def _differential_catalog(t):
    return gen_catalog(SynthConfig(2 + t % 3, 3 + t % 5, 3, seed=20000 + t))


def test_smart_core_need_not_be_minimal_weak():
    # The core f6.f1.f3.f5 is bounded but not minimal weakly smart; the
    # inverse call f2 appended to it still gives a minimal smart plan.
    from pathplan.evaluate import oracle_is_smart

    q = AtomicQuery(Atom("r1"), "a")
    hits = enumerate_minimal_smart(q, _differential_catalog(264))
    by_names = {tuple(v.name for v in h.views): h for h in hits}
    assert ("f6", "f1", "f3", "f5", "f2") in by_names
    hit = by_names["f6", "f1", "f3", "f5", "f2"]
    assert hit.kind == "appended-inverse"
    assert hit.plan.filters == (("v4", "a"),)
    assert hit.plan.output == "v3"
    assert is_smart(hit.plan, q).level == SMART
    assert oracle_is_smart(hit.plan, q, budget=6, max_instances=3000).verdict


def test_smart_existence_matches_enumeration():
    # Its only plan is inverse-terminal: the final call runs past the query
    # atom, and the filter sits on its last output.
    inverse_terminal = list(parse_catalog("g = s\nf = s^- . r . r^- | out 2 3\n"))
    q = AtomicQuery(Atom("r"), "a")
    [hit] = enumerate_minimal_smart(q, inverse_terminal)
    assert hit.kind == "inverse-terminal"
    assert serialize_plan(hit.plan).splitlines() == [
        "call g(a -> v0)",
        "call f(v0 -> v1, v2)",
        "filter v2 = a",
        "output v1",
    ]
    # Two outputs per function in the exhaustive criterion-5 catalogs, so
    # terminal plans occur there.
    catalogs = [inverse_terminal] + [_differential_catalog(t) for t in range(250, 300)]
    catalogs += itertools.islice(_no_existential_catalogs(), 696)
    for i, cat in enumerate(catalogs):
        for q in _oriented_queries(cat):
            assert bool(enumerate_minimal_smart(q, cat)) == smart_plan_exists(q, cat), (i, q)


def _oriented_queries(cat):
    from pathplan.synth import vocabulary

    return [AtomicQuery(Atom(base, inv), "a") for base in vocabulary(cat) for inv in (False, True)]


def test_weak_plan_calls_one_view_twice():
    # One candidate template joins the path twice and must become two calls
    # with two tokens.
    q = AtomicQuery(Atom("r2"), "a")
    hits = enumerate_minimal_weakly_smart(q, gen_catalog(SynthConfig(2, 6, 3, seed=20183)))
    assert [tuple(v.name for v in h.views) for h in hits] == [("f5", "f5", "f6")]


def test_find_one_closes_item1_misses():
    # Dead states, whose members disagree on the next atom, must not fill
    # find-one's shared visited set and hide these plans.
    cases = [
        (SynthConfig(2, 6, 3, seed=20183), Atom("r2"), ("f5", "f5", "f6")),
        (SynthConfig(2, 5, 3, seed=20282), Atom("r2", True), ("f5", "f1", "f3")),
    ]
    for config, atom, names in cases:
        hit = find_one_weakly_smart(AtomicQuery(atom, "a"), gen_catalog(config)).hit
        assert hit is not None and tuple(v.name for v in hit.views) == names


def test_find_one_agrees_with_enumeration_on_item1_corpus():
    for t in range(300):
        cat = _differential_catalog(t)
        for q in _oriented_queries(cat):
            plans = {tuple(v.key for v in h.views) for h in enumerate_minimal_weakly_smart(q, cat)}
            hit = find_one_weakly_smart(q, cat).hit
            assert (hit is not None) == bool(plans), (t, q)
            if hit is not None:
                assert tuple(v.key for v in hit.views) in plans, (t, q)


def test_find_one_state_counts_pinned():
    # Summed over every oriented query: the search enters only consistent
    # states, and how the candidate structures are built must not change
    # which of them it visits.
    def visited(catalogs):
        return sum(
            find_one_weakly_smart(q, cat).states_visited
            for cat in catalogs
            for q in _oriented_queries(cat)
        )

    item1 = [_differential_catalog(t) for t in range(250, 300)]
    assert sum(len(_oriented_queries(cat)) for cat in item1) == 288
    assert visited(item1) == 431
    assert visited(gen_catalog(SynthConfig(4, 30, 3, seed=s)) for s in range(4)) == 103


def test_smart_enumeration_decides_only_survivors():
    # Of 3775 raw search results only the call sequences that no accepted
    # plan embeds get a plan built and is_smart run, and here each of them
    # is a minimal smart plan.
    q = AtomicQuery(Atom("r4"), "a")
    cat = gen_catalog(SynthConfig(4, 30, 3, seed=0))
    with count_calls(characterize, "is_smart") as smart:
        hits = enumerate_minimal_smart(q, cat)
    assert [(".".join(v.name for v in h.views), h.kind) for h in hits] == [
        ("f10", "trivial"),
        ("f25.f4.f13", "appended-inverse"),
        ("f25.f4.f22", "appended-inverse"),
        ("f25.f4.f29", "appended-inverse"),
        ("f30.f4.f13", "appended-inverse"),
        ("f30.f4.f22", "appended-inverse"),
        ("f30.f4.f29", "appended-inverse"),
    ]
    assert smart.calls == 7


def test_weak_screen_is_necessary():
    # Every weakly smart skeleton ends with the query atom, or opens with
    # it and ends with the inverse of its second atom.
    r, s = Atom("r"), Atom("s")
    atoms = (r, r.invert(), s, s.invert())
    q = AtomicQuery(r, "a")
    weak = 0
    for n in range(1, 7):
        for skeleton in itertools.product(atoms, repeat=n):
            if weakly_smart_skeleton(skeleton, q):
                weak += 1
                assert _may_be_weak(skeleton[:2], skeleton[-1], q), skeleton
    assert weak == 42


def test_plan_cap_sets_truncated():
    q = AtomicQuery(Atom("r4"), "a")
    cat = gen_catalog(SynthConfig(4, 30, 3, seed=0))
    searcher = _Searcher(catalog_closure(cat), q, max_plans=1)
    searcher.run()
    assert len(searcher.results) == 1
    assert searcher.stats.truncated


def test_find_one_reports_truncation():
    # An expired deadline stops the search before its first state: no
    # plan, and the result says the search did not finish.
    q = AtomicQuery(Atom("r3", True), "a")
    cat = gen_catalog(SynthConfig(4, 30, 3, seed=0))
    cut = find_one_weakly_smart(q, cat, deadline=time.monotonic() - 1.0)
    assert cut.hit is None and cut.states_visited == 0
    assert cut.truncated and cut.cause == "deadline"
    full = find_one_weakly_smart(q, cat)
    assert [v.name for v in full.hit.views] == ["f13", "f11", "f3"]
    assert not full.truncated and full.cause is None


# -- the per-closure template cache ---------------------------------------------


def _answers(q, cat, kinds=("weak", "smart", "one")):
    """Serialized weak and smart enumerations and find-one's plan and
    state count."""
    out = []
    if "weak" in kinds:
        out += [(h.shape, serialize_plan(h.plan)) for h in enumerate_minimal_weakly_smart(q, cat)]
    if "smart" in kinds:
        out += [(h.kind, serialize_plan(h.plan)) for h in enumerate_minimal_smart(q, cat)]
    if "one" in kinds:
        found = find_one_weakly_smart(q, cat)
        out.append((found.hit and serialize_plan(found.hit.plan), found.states_visited))
    return out


def _cold_answers(q, cat, kinds=("weak", "smart", "one")):
    engine._templates.cache_clear()
    return _answers(q, cat, kinds)


def test_template_cache_keys_on_bodies_and_outputs():
    # The same function names and view keys with two bodies swapped, and
    # one output list changed: every catalog keeps its own templates, and
    # its plans are those of a cold cache.
    base = fig1_catalog()
    company, hierarchy, education = base
    other_body = [
        fn(company.name, education.skeleton),
        hierarchy,
        fn(education.name, company.skeleton),
    ]
    other_outputs = [company, fn(hierarchy.name, hierarchy.skeleton, (2,)), education]
    catalogs = [base, other_body, other_outputs]
    queries = [
        AtomicQuery(Atom(b, inv), "a")
        for b in ("worksFor", "jobTitle", "graduatedFrom")
        for inv in (False, True)
    ]
    cold = [[_cold_answers(q, cat) for q in queries] for cat in catalogs]
    assert cold[0] != cold[1] and cold[0] != cold[2]
    engine._templates.cache_clear()
    for _ in range(2):
        # Query by query, so the catalogs' entries alternate.
        warm = [[_answers(q, cat) for cat in catalogs] for q in queries]
        assert warm == [list(col) for col in zip(*cold)]
    closures = [tuple(catalog_closure(cat)) for cat in catalogs]
    assert len({id(engine._templates(c)) for c in closures}) == 3
    assert [engine._templates(c).closure for c in closures] == closures


def test_template_cache_builds_once_per_catalog(tmp_path):
    # The four oriented queries of one catalog, in every mode, and the same
    # catalog file parsed twice, build the tables once.
    cat = gen_catalog(SynthConfig(2, 6, 3, seed=20183))
    queries = _oriented_queries(cat)
    assert len(queries) == 4
    engine._templates.cache_clear()
    with count_calls(engine, "_Templates") as built, count_calls(engine, "_templates") as asked:
        for q in queries:
            enumerate_minimal_smart(q, cat)
            find_one_weakly_smart(q, cat)
            smart_plan_exists(q, cat)
    assert built.calls == 1 and asked.calls >= 8
    path = tmp_path / "c.cat"
    path.write_text(serialize_catalog(cat))
    parsed = [list(parse_catalog(path.read_text())) for _ in range(2)]
    assert parsed[0] == parsed[1] and parsed[0][0] is not parsed[1][0]
    engine._templates.cache_clear()
    with count_calls(engine, "_Templates") as built:
        answers = [[_answers(q, c, ("smart",)) for q in queries] for c in parsed]
    assert built.calls == 1
    assert answers[0] == answers[1] == [_cold_answers(q, cat, ("smart",)) for q in queries]


def test_template_cache_warm_matches_cold(monkeypatch):
    # Every answer with a warm cache, catalogs interleaved so that entries
    # are evicted and rebuilt mid-run, equals the answer computed after
    # clearing the cache.
    # The criterion-5 corpus opens with its 696 exhaustive catalogs.
    catalogs = list(itertools.islice(_no_existential_catalogs(), 696))
    catalogs += [_differential_catalog(t) for t in range(250, 300)]
    assert len(catalogs) == 746
    tasks = [(i, q, kind) for i, cat in enumerate(catalogs) for q in _oriented_queries(cat)
             for kind in ("weak", "smart", "one")]
    cold = {task: _cold_answers(task[1], catalogs[task[0]], (task[2],)) for task in tasks}
    rng = random.Random(7)
    order = []
    window = 2 * engine._templates.cache_info().maxsize
    for start in range(0, len(catalogs), window):
        chunk = [t for t in tasks if start <= t[0] < start + window]
        rng.shuffle(chunk)
        order += chunk
    built = []
    build = engine._Templates

    def record(closure):
        built.append(closure)
        return build(closure)

    monkeypatch.setattr(engine, "_Templates", record)
    engine._templates.cache_clear()
    with count_calls(engine, "_templates") as asked:
        warm = {task: _answers(task[1], catalogs[task[0]], (task[2],)) for task in order}
    assert warm == cold
    assert len(set(built)) < len(built) < asked.calls  # rebuilt after eviction, reused
