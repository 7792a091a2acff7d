import dataclasses
import gc
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
    oracle_is_smart,
    oracle_is_weakly_smart,
    susie_plans,
)
from pathplan import characterize, engine
from pathplan.characterize import SMART, is_bounded, weakly_smart_skeleton
from pathplan.dsl import parse_catalog, serialize_catalog, serialize_plan
from pathplan.engine import (
    EmptyCatalogError,
    Member,
    _bounded_gate,
    _concat_skeleton,
    _may_be_smart,
    _may_be_weak,
    _Searcher,
    _smart_plan,
    _smartable,
    _weak_gate,
    search_successors,
    smart_plan_exists,
    state_consistent,
)
from pathplan.model import pivot_positions
from pathplan.synth import SynthConfig, gen_catalog

from test_acceptance import _no_existential_catalogs

from util import (
    brute_force_minimal_smart,
    brute_force_minimal_weak,
    brute_force_smart_plan,
    count_calls,
    fig1_catalog,
    fn,
    jobtitle_query,
    music_catalog,
    split_bounded,
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
    assert hits[0].kind == "bounded"


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
    for entry in (
        enumerate_minimal_weakly_smart,
        enumerate_minimal_smart,
        find_one_weakly_smart,
        smart_plan_exists,
    ):
        with pytest.raises(EmptyCatalogError):
            entry(jobtitle_query(), [])


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


def test_find_one_respects_state_bound():
    for seed in range(20):
        cat = gen_catalog(SynthConfig(3, 5, 3, seed=seed + 900))
        q = AtomicQuery(Atom("r1"), "a")
        result = find_one_weakly_smart(q, cat)
        assert result.states_visited <= bound_estimate(cat).state_bound


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
    # The embedding filter alone decides weak minimality: no returned plan,
    # whatever its length, has a proper subsequence that is weakly smart.
    checked = 0
    for seed in range(30):
        cat = gen_catalog(SynthConfig(2, 4, 2, seed=seed + 50))
        q = AtomicQuery(Atom("r1"), "a")
        hits = enumerate_minimal_weakly_smart(q, cat)
        assert hits.cause is None
        for hit in hits:
            views = hit.views
            n = len(views)
            checked += 1
            for size in range(1, n):
                for combo in itertools.combinations(range(n), size):
                    sub = [views[i] for i in combo]
                    sk = tuple(a for v in sub for a in v.skeleton)
                    assert not weakly_smart_skeleton(sk, q)
    assert checked == 30


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
    assert est.state_bound == 256


def test_engine_matches_brute_force_small():
    # Functions of length up to 5 give turn calls whose descent is two atoms
    # longer than their ascent, so a forward piece can join between them:
    # the forward path must follow the order in which its pieces start
    # (seed 10, r1^-: f1.f6.f4).  The last two cases are loose plans whose
    # lead call runs straight over a pivot past its second atom (f3.f4.f2
    # and f6.f1.f2.f2).
    r1, r2 = Atom("r1"), Atom("r2")
    cases = [(SynthConfig(3, 4, 3, seed=seed), (r1, r2), 4) for seed in range(25)]
    cases += [
        (SynthConfig(2, 6, 5, seed=seed), (r1, r1.invert(), r2, r2.invert()), 3)
        for seed in range(40)
    ]
    cases += [
        (SynthConfig(2, 5, 6, seed=28), (r2.invert(),), 3),
        (SynthConfig(2, 6, 5, seed=32), (r2,), 4),
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


# For r2^- its one minimal smart plan is the terminal f3[2].f1.f2.f4, which
# existence missed while its search shared one visited set across paths: an
# earlier path reached the plan's states with other call records.
_HIDDEN_PLAN_CATALOG = (
    "f1 = r2 . r2 . r2^- | out 2 3\nf2 = r2^- . r2\nf3 = r1 . r2^- . r1 | out 2 3\n"
    "f4 = r1^- . r2^- | out 1 2\n"
)

# Four small multi-output functions on which smart enumeration takes a few
# seconds per query: r2 finishes, and the other three stop at the plan cap.
# Without the walk prune each query runs for a minute or more.
_BLOW_UP_CATALOG = (
    "f1 = r2 . r2^- . r1^- | out 1 2 3\nf2 = r1^- . r2 . r2^- | out 1 3\n"
    "f3 = r2^- . r1 . r1 | out 1 3\nf4 = r2^- . r2 . r1 | out 1 2 3\n"
)


def test_smart_core_need_not_be_minimal_weak():
    # The core f6.f1.f3.f5 is bounded but not minimal weakly smart; the
    # inverse call f2 appended to it still gives a minimal smart plan.
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
    # Each of these has an inverse-terminal plan for its query that
    # existence missed while it searched for the final call past the query
    # atom in a seed mode of its own, beside others sharing its visited
    # set.  Every oriented query of them is checked.
    missed = [
        ("f1 = r1 . r1 . r1^- | out 2 3\nf2 = r2^- . r1^-\nf3 = r1^- . r1^-\n", "r1", "f3.f1.f1"),
        (
            "f1 = r1^- . r1^- | out 1 2\nf2 = r1^- . r2 . r2^- | out 2 3\nf3 = r1 . r1\n",
            "r2",
            "f3.f1[1].f2",
        ),
        (
            "f1 = r2 . r1\nf2 = r2 . r1^- | out 1 2\nf3 = r1^- . r1^- . r1 | out 2 3\n"
            "f4 = r1 . r2^-\n",
            "r1^-",
            "f4.f2[1].f3",
        ),
        (
            "f1 = r2 . r1\nf2 = r2^- . r2^- . r2 | out 2 3\nf3 = r2 . r2 . r1^-\n",
            "r2^-",
            "f1.f2[2].f3.f2",
        ),
        (_HIDDEN_PLAN_CATALOG, "r2", "f2.f4[1].f3[2].f1"),
    ]
    cases = []
    for text, relation, plan in missed:
        cat = list(parse_catalog(text))
        q = AtomicQuery(Atom(relation.removesuffix("^-"), relation.endswith("^-")), "a")
        hits = {".".join(v.name for v in h.views): h.kind for h in enumerate_minimal_smart(q, cat)}
        assert hits[plan] == "inverse-terminal", (plan, hits)
        cases.append((cat, _oriented_queries(cat)))
    # Two outputs per function in the exhaustive criterion-5 catalogs, so
    # terminal plans occur there.
    catalogs = [inverse_terminal] + [_differential_catalog(t) for t in range(300)]
    catalogs += itertools.islice(_no_existential_catalogs(), 696)
    cases += [(cat, _oriented_queries(cat)) for cat in catalogs]
    for i, (cat, queries) in enumerate(cases):
        for q in queries:
            assert bool(enumerate_minimal_smart(q, cat)) == smart_plan_exists(q, cat), (i, q)
    # Enumeration does not finish here, but every query has a smart single
    # call, so existence answers yes without a search, as the reference
    # does.
    blow_up = list(parse_catalog(_BLOW_UP_CATALOG))
    queries = _oriented_queries(blow_up)
    with count_calls(engine, "_Searcher") as searched:
        assert all(smart_plan_exists(q, blow_up) for q in queries)
    assert searched.calls == 0
    assert all(brute_force_smart_plan(q, blow_up, max_calls=1) for q in queries)


def test_smart_existence_matches_brute_force():
    # Wherever some chain of at most three calls is a smart plan under
    # `is_smart`, existence says yes; and it finds the 4-call plan that a
    # shared visited set hid.
    cat = list(parse_catalog(_HIDDEN_PLAN_CATALOG))
    q = AtomicQuery(Atom("r2", True), "a")
    plan = brute_force_smart_plan(q, cat, max_calls=4)
    assert [call.view.name for call in plan.calls] == ["f3[2]", "f1", "f2", "f4"]
    assert smart_plan_exists(q, cat)
    catalogs = [list(parse_catalog(_BLOW_UP_CATALOG))]
    catalogs += [_differential_catalog(t) for t in range(0, 300, 6)]
    found = 0
    for i, cat in enumerate(catalogs):
        for q in _oriented_queries(cat):
            if brute_force_smart_plan(q, cat) is not None:
                found += 1
                assert smart_plan_exists(q, cat), (i, q)
    assert found == 90


def _multi_output_catalog(seed):
    """Two relations, three or four functions of at most three atoms, each
    with random outputs that include its last position."""
    rng = random.Random(seed)
    atoms = [Atom(base, inv) for base in ("r1", "r2") for inv in (False, True)]
    cat = []
    for i in range(rng.randint(3, 4)):
        n = rng.randint(1, 3)
        body = [rng.choice(atoms) for _ in range(n)]
        while len(pivot_positions(body)) > 1:  # a function has at most one pivot
            body = [rng.choice(atoms) for _ in range(n)]
        outputs = {n} | {p for p in range(1, n) if rng.random() < 0.5}
        cat.append(fn(f"f{i + 1}", body, sorted(outputs)))
    return cat


def test_smart_enumeration_matches_brute_force():
    # The embedding filter alone decides which smart plans are minimal.  The
    # plans of at most three calls (four on the last case) equal those of
    # `brute_force_minimal_smart`, which tries every chain under `is_smart`
    # and keeps the smart chains that no other one embeds into, calls
    # possibly weakened to shorter prefix views.
    catalogs = [_differential_catalog(t) for t in range(0, 300, 17)]
    catalogs += [_multi_output_catalog(seed) for seed in range(20)]
    cases = [(cat, _oriented_queries(cat), 3) for cat in catalogs]
    hidden = list(parse_catalog(_HIDDEN_PLAN_CATALOG))
    cases.append((hidden, [AtomicQuery(Atom("r2", True), "a")], 4))
    mismatches = []
    found = 0
    for cat, queries, max_calls in cases:
        for q in queries:
            ref = set(brute_force_minimal_smart(q, cat, max_calls))
            got = {
                tuple(v.key for v in h.views)
                for h in enumerate_minimal_smart(q, cat)
                if len(h.views) <= max_calls
            }
            if got != ref:
                mismatches.append((serialize_catalog(cat), q, got ^ ref))
            found += len(ref)
    assert mismatches == []
    # The hidden catalog's r2^- plan: f3[2].f1.f2.f4.
    assert ref == {(("f3", 2), ("f1", 3), ("f2", 2), ("f4", 2))}
    assert found == 107


def test_chain_prune_is_sound(monkeypatch):
    # The search drops a path once its walk stretches can no longer chain
    # (`engine._Walk`).  With that prune switched off, weak and smart
    # enumeration and find-one give the same plans in the same order, with
    # the same cause.
    catalogs = [_differential_catalog(t) for t in range(0, 300, 5)]
    catalogs += [_multi_output_catalog(seed) for seed in range(20)]
    catalogs.append(list(parse_catalog(_HIDDEN_PLAN_CATALOG)))

    def outputs():
        found = []
        for cat in catalogs:
            for q in _oriented_queries(cat):
                for enumerate_plans in (enumerate_minimal_weakly_smart, enumerate_minimal_smart):
                    hits = enumerate_plans(q, cat)
                    found.append((hits.cause, [serialize_plan(h.plan) for h in hits]))
                one = find_one_weakly_smart(q, cat)
                found.append((one.cause, one.hit and serialize_plan(one.hit.plan)))
        return found

    pruned = outputs()
    assert sum(len(plans) for _, plans in pruned[::3]) == 236  # weak plans compared
    monkeypatch.setattr(engine._Walk, "dooms", lambda self, scan, walk_end: False)
    assert outputs() == pruned


def test_multi_output_7_smart_states_pinned():
    # Smart enumeration for r1 here visited 971869 states, about 25 s,
    # before the search dropped paths whose walk stretches cannot chain.
    cat = _multi_output_catalog(7)
    q = AtomicQuery(Atom("r1"), "a")
    hits = enumerate_minimal_smart(q, cat)
    assert (hits.states_visited, hits.cause, len(hits)) == (611, None, 2)


def test_late_templates_stretch_forward():
    # The walk prune rests on this: every structure that can join after
    # scan 1 (ender, beginner, valley, designated or pair) spans only walk
    # positions at or after the scan it enters at, so no later call touches
    # a position the scan has passed.
    catalogs = [_differential_catalog(t) for t in range(300)]
    catalogs += [_multi_output_catalog(seed) for seed in range(300)]
    checked = 0
    for cat in catalogs:
        templates = engine._Templates(tuple(catalog_closure(cat)))
        tables = (templates.enders, templates.beginners, templates.valleys, templates.designated)
        structures = [s for table in tables for s in table.all] + templates.pairs(None)
        for call in (call for s in structures for call in s.calls):
            if call.stretch is not None:
                assert min(call.stretch) >= 0, (call.view, call.stretch)
                checked += 1
    assert checked == 17328  # calls checked: no family is skipped unseen


def test_searched_paths_keep_their_top_above_the_scan(monkeypatch):
    # The walk prune's other premise: the forward path's active piece covers
    # the scanned atom, so its top lies above the scan and no position the
    # scan closes is the top.  Every leaf the search then reaches chains.
    search = _Searcher._search
    chain_walk = _Searcher._chain_walk
    states, chains = [], []

    def checked_search(self, members, scan, recs, walk):
        states.append(1 + sum(rec.path_atoms for rec in recs) > scan)
        return search(self, members, scan, recs, walk)

    def checked_chain_walk(walk, start, terminal):
        chains.append(chain_walk(walk, start, terminal))
        return chains[-1]

    monkeypatch.setattr(_Searcher, "_search", checked_search)
    monkeypatch.setattr(_Searcher, "_chain_walk", staticmethod(checked_chain_walk))
    catalogs = [_differential_catalog(t) for t in range(300)]
    catalogs += [_multi_output_catalog(seed) for seed in range(60)]
    for cat in catalogs:
        for q in _oriented_queries(cat):
            enumerate_minimal_weakly_smart(q, cat)
            enumerate_minimal_smart(q, cat)
    assert all(states) and None not in chains
    assert (len(states), len(chains)) == (61413, 8467)


def test_member_hash_is_its_field_hash():
    # A member's hash is computed once, and it is the hash of the fields
    # that decide equality, so set and dict orders are those of the tuple.
    members = [member("u.s^-", 2, False)]
    for t in range(10):
        templates = engine._Templates(tuple(catalog_closure(_differential_catalog(t))))
        members += [m for s in templates.pairs(None) + templates.valleys.all for m in s.member_set]
    for m in members:
        assert hash(m) == hash((m.fn_key, m.atoms, m.index, m.forward, m.designated))
        twin = Member(m.fn_key, m.atoms, m.index, m.forward, m.designated, m.token + 7, ())
        assert twin == m and hash(twin) == hash(m) and {twin} == {m}
        assert Member(m.fn_key, m.atoms, m.index + 1, m.forward, m.designated) != m
        assert Member(m.fn_key, m.atoms, m.index, m.forward, not m.designated) != m
        assert not hasattr(m, "__dict__")
    assert len(members) == 244


def test_seed_tokens_follow_stamp_order(monkeypatch):
    # A run stamps each seed structure once per first token and numbers
    # every seed's calls from 0, in the order extra, designated, bottom; the
    # seed's search goes on from there.  Tokens need only be unique along a
    # path and follow stamp order, which every emitted path shows.
    seeds, seed_combos, emit = _Searcher._seeds, _Searcher._seed_combos, _Searcher._emit
    combo = {}
    paths = []
    shared = 0

    def recorded_combos(bottom, extra_list, options):
        for extra, des in seed_combos(bottom, extra_list, options):
            combo["parts"] = [s for s in (extra, des, bottom) if s is not None]
            yield extra, des

    def checked_seeds(self):
        nonlocal shared
        bottoms = {}  # (id, first token) -> (bottom, its members, its records)
        for members, recs, walk_end in seeds(self):
            parts = combo["parts"]
            assert [r.view for r in recs] == [c.view for s in parts for c in s.calls]
            assert [r.token for r in recs] == list(range(len(recs)))
            bottom = parts[-1]
            calls = len(bottom.calls)
            size = sum(len(c.members) for c in bottom.calls)
            key = (id(bottom), len(recs) - calls)
            if key in bottoms:
                _, first_members, first_recs = bottoms[key]
                assert all(a is b for a, b in zip(first_members, members[-size:]))
                assert all(a is b for a, b in zip(first_recs, recs[-calls:]))
                shared += 1
            else:
                bottoms[key] = (bottom, members[-size:], recs[-calls:])
            self.seed_recs = list(recs)
            yield members, recs, walk_end

    def recorded_emit(self, recs):
        paths.append((self.seed_recs, list(recs)))
        return emit(self, recs)

    monkeypatch.setattr(_Searcher, "_seed_combos", staticmethod(recorded_combos))
    monkeypatch.setattr(_Searcher, "_seeds", checked_seeds)
    monkeypatch.setattr(_Searcher, "_emit", recorded_emit)
    catalogs = [_differential_catalog(t) for t in range(0, 300, 5)]
    catalogs += [_multi_output_catalog(seed) for seed in range(20)]
    for cat in catalogs:
        for q in _oriented_queries(cat):
            enumerate_minimal_weakly_smart(q, cat)
            enumerate_minimal_smart(q, cat)
    for seed_recs, recs in paths:
        n = len(seed_recs)
        tokens = [r.token for r in recs]
        # Strictly increasing: unique, and the later calls' tokens are >= n.
        assert all(a is b for a, b in zip(recs, seed_recs)) and tokens[:n] == list(range(n))
        assert all(a < b for a, b in zip(tokens, tokens[1:]))
    assert (len(paths), shared) == (3226, 1892)


def test_capped_smart_enumeration_keeps_inverse_terminal_plans():
    # The cap counts the search's cores; a core it found still gives its
    # inverse-terminal plans, f2.f4 (f2.f4[2]) and f6[1].f4 (f6[1].f4[2]).
    cat = list(
        parse_catalog(
            "f1 = r2 . r2^- . r2^-\nf2 = r2^-\nf3 = r1^-\n"
            "f4 = r2 . r1^- . r1 | out 2 3\nf5 = r2 . r2^- | out 1 2\n"
            "f6 = r2^- . r2 . r2 . r1 | out 1 2 4\n"
        )
    )
    hits = enumerate_minimal_smart(AtomicQuery(Atom("r1", True), "a"), cat, max_plans=2)
    assert [(".".join(v.name for v in h.views), h.kind) for h in hits] == [
        ("f2.f4", "inverse-terminal"),
        ("f3", "trivial"),
        ("f6[1].f4", "inverse-terminal"),
    ]


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
    # Dead states, whose members disagree on the next atom, filled the
    # visited set that find-one once shared across paths and hid these
    # plans.
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


def test_item1_plans_hold_under_their_oracles():
    # Every emitted plan of at most five calls on the item-1 corpus is
    # confirmed by the brute-force oracle of its kind.
    budget = dict(budget=6, max_instances=300)
    checked = 0
    for t in range(300):
        cat = _differential_catalog(t)
        for q in _oriented_queries(cat):
            for enumerate_plans, oracle in (
                (enumerate_minimal_weakly_smart, oracle_is_weakly_smart),
                (enumerate_minimal_smart, oracle_is_smart),
            ):
                for hit in enumerate_plans(q, cat):
                    if len(hit.views) <= 5:
                        assert oracle(hit.plan, q, **budget).verdict, (t, q, hit.views)
                        checked += 1
    assert checked == 1935


def test_find_one_state_counts_pinned():
    # Summed over every oriented query: the search enters only consistent
    # states, and how the candidate structures are built must not change
    # which of them it visits.  A turn call's ascent is a pending member
    # that dies where it arrives unless the forward piece before it ends,
    # so no state is entered at its due scan beside another piece
    # (t=292, r2 visits 15).  The search's one cycle check is path-local,
    # as in enumeration, so a query with no plan explores every path and a
    # state reached on two paths counts twice: the item-1 sum was 430 while
    # find-one shared one visited set across paths.  A path is dropped once
    # its walk stretches can no longer chain: the item-1 sum was 564 before.
    # The enumerations report their searches' state counts in `Hits` too.
    def visited(catalogs, search=find_one_weakly_smart):
        return sum(
            search(q, cat).states_visited
            for cat in catalogs
            for q in _oriented_queries(cat)
        )

    item1 = [_differential_catalog(t) for t in range(250, 300)]
    assert sum(len(_oriented_queries(cat)) for cat in item1) == 288
    assert visited(item1) == 362
    assert visited(gen_catalog(SynthConfig(4, 30, 3, seed=s)) for s in range(4)) == 103
    assert visited(item1, enumerate_minimal_weakly_smart) == 2692
    assert visited(item1, enumerate_minimal_smart) == 1013
    multi = [_multi_output_catalog(seed) for seed in range(20)]
    assert visited(multi, enumerate_minimal_weakly_smart) == 4580
    assert visited(multi, enumerate_minimal_smart) == 14248


def test_smart_enumeration_decides_only_survivors():
    # Of 3775 raw search results only the call sequences that no accepted
    # plan embeds get a plan built, and here each of them is a minimal
    # smart plan.  `_smartable` is the one smartness decision: `is_smart`
    # never runs.
    q = AtomicQuery(Atom("r4"), "a")
    cat = gen_catalog(SynthConfig(4, 30, 3, seed=0))
    with count_calls(engine, "_smart_plan") as built:
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
    assert built.calls == 7 and smart.calls == 0


def test_smartable_sequences_are_smart():
    # `_smartable` decides smart enumeration alone; `is_smart` is its
    # reference on every sequence of up to three views over the
    # criterion-5 bodies, every position an output.
    oriented = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    bodies = [(a,) for a in oriented]
    bodies += [(a, b) for a in oriented for b in oriented if b != a.invert()]
    closure = catalog_closure(
        [fn(f"f{i}", body, range(1, len(body) + 1)) for i, body in enumerate(bodies)]
    )
    smartable = 0
    for q in (AtomicQuery(a, "a") for a in oriented):
        bounded = _bounded_gate(q)
        for n in (1, 2, 3):
            for views in itertools.product(closure, repeat=n):
                kind = _smartable(views, q, bounded)
                if kind is not None:
                    smartable += 1
                    assert is_smart(_smart_plan(views, kind, "a"), q).level == SMART, (views, kind)
    assert smartable > 0


def test_may_be_smart_is_necessary():
    # Where no call of the closure can end a smart plan, no sequence of up
    # to three calls (two on large closures) has a smart shape whose core
    # is bounded, by trying every split of the core.  The first catalog's
    # only plan is inverse-terminal.
    catalogs = [list(parse_catalog("g = s\nf = s^- . r . r^- | out 2 3\n"))]
    catalogs += itertools.islice(_no_existential_catalogs(), 696)
    catalogs += [_differential_catalog(t) for t in range(0, 300, 3)]
    checked = 0
    for cat in catalogs:
        closure = catalog_closure(cat)
        for q in _oriented_queries(cat):
            if _may_be_smart(closure, q):
                continue
            verdicts = {}

            def bounded(core):
                if core not in verdicts:
                    verdicts[core] = split_bounded(core, q) is not None
                return verdicts[core]

            longest = 3 if len(closure) ** 3 <= 5000 else 2
            for n in range(1, longest + 1):
                for views in itertools.product(closure, repeat=n):
                    assert _smartable(views, q, bounded) is None, (views, q)
                    checked += 1
    assert checked > 100000


def test_no_search_where_no_smart_plan_can_end():
    # The five heavy sweep queries with no smart plan: the closure has no
    # call that can end one, so neither smart entry point searches.
    cases = [(5, Atom("r1", True))]
    cases += [(6, Atom(base, inv)) for base in ("r3", "r4") for inv in (False, True)]
    with count_calls(engine, "_Searcher") as searched:
        for seed, atom in cases:
            cat = gen_catalog(SynthConfig(4, 30, 3, seed=seed))
            q = AtomicQuery(atom, "a")
            assert not _may_be_smart(catalog_closure(cat), q)
            assert enumerate_minimal_smart(q, cat) == []
            assert not smart_plan_exists(q, cat)
    assert searched.calls == 0


def test_chain_walk_backtracks_among_stretches_sharing_a_top():
    # Stretches 0 and 1 both start at the top, 5.  Taking 0 first reaches
    # the end through 3 with 1 and 2 left over, so the chaining backtracks
    # and takes 1, 2, 0, 3: the chain a scan of every token in order gives.
    walk = {0: (5, 2), 1: (5, 3), 2: (3, 5), 3: (2, 0)}
    assert _Searcher._chain_walk(walk, 5, 0) == [1, 2, 0, 3]
    assert _Searcher._chain_walk(walk, 5, 1) is None
    assert _Searcher._chain_walk({}, 1, 1) == []


def test_walk_kernels_leave_no_cyclic_garbage():
    # Nothing a walk builds refers to itself, so all of it is freed when
    # the call returns, not by the cyclic collector.
    r, s = Atom("r"), Atom("s")
    skeleton = (s, s.invert(), r)
    q = AtomicQuery(r, "a")
    walk = {0: (5, 2), 1: (5, 3), 2: (3, 5), 3: (2, 0)}
    # A function and its cached prefix views refer to each other, so the
    # catalog is held through the block.
    fig1 = fig1_catalog()
    gc.collect()
    gc.disable()
    try:
        assert weakly_smart_skeleton(skeleton, q)
        assert is_bounded(skeleton, q) == (s,)
        assert gc.collect() == 0
        assert _Searcher._chain_walk(walk, 5, 0) == [1, 2, 0, 3]
        assert gc.collect() == 0
        assert len(susie_plans(jobtitle_query(), fig1)) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lead_calls_skip_views_ending_at_the_pivot():
    # f[2] = r.s ends at the pivot of f = r.s.s^-: as a lead call it runs
    # straight, with no peak whose descent has no atoms.
    r, s = Atom("r"), Atom("s")
    cat = [
        fn("f", [r, s, s.invert()], (2, 3)),
        fn("k", [s.invert()]),
        fn("h", [r.invert(), r], (1, 2)),
    ]
    q = AtomicQuery(r, "a")
    leads = list(_Searcher(catalog_closure(cat), q)._lead_calls())
    assert leads and all(m.atoms for call in leads for m in call.members)
    weak = [".".join(v.name for v in h.views) for h in enumerate_minimal_weakly_smart(q, cat)]
    assert weak == ["f", "f[2].k"]
    smart = [(".".join(v.name for v in h.views), h.kind) for h in enumerate_minimal_smart(q, cat)]
    assert smart == [("f.h", "terminal"), ("f[2].k.h", "terminal")]
    assert [v.name for v in find_one_weakly_smart(q, cat).hit.views] == ["f"]
    assert smart_plan_exists(q, cat)


def test_template_members_hold_their_windows():
    # Every member of a template call is a window lo..hi of the call's view:
    # its key is the view's key plus that window, and its atoms are the
    # view's atoms there.  The windows of one call do not overlap, so the
    # turn check in the search, which compares the windows of one call's
    # halves, reads what the call really covers.
    def calls(closure, queries):
        templates = engine._Templates(tuple(closure))
        tables = (templates.enders, templates.beginners, templates.valleys, templates.designated)
        structures = [s for table in tables for s in table.all]
        own = []
        for q in queries:
            searcher = _Searcher(closure, q)
            own += [*searcher._lead_calls(), *searcher._tail_calls(), *searcher._dip_calls()]
            for mode in engine._WALK_END:
                structures += [s for s, _ in searcher._bottoms(mode) if s is not None]
        return own + [call for s in structures for call in s.calls]

    catalogs = [_differential_catalog(t) for t in range(300)]
    catalogs += itertools.islice(_no_existential_catalogs(), 696)
    checked = 0
    for cat in catalogs:
        for call in calls(catalog_closure(cat), _oriented_queries(cat)):
            view = call.view
            windows = []
            for m in call.members:
                lo, hi = m.fn_key[2:]
                assert m.fn_key == view.key + (lo, hi), (view, m)
                assert 1 <= lo <= hi <= len(view), (view, m)
                assert m.atoms == view.skeleton[lo - 1 : hi], (view, m)
                windows.append((lo, hi))
            windows.sort()
            assert all(a[1] < b[0] for a, b in zip(windows, windows[1:])), (view, windows)
            checked += len(windows)
    assert checked == 47852  # members checked: no family is skipped unseen


def test_weak_screen_is_necessary():
    # Every weakly smart skeleton ends with the query atom, or opens with
    # it and ends with the inverse of its second atom.
    r, s = Atom("r"), Atom("s")
    atoms = (r, r.invert(), s, s.invert())
    for rel in (r, r.invert()):
        q = AtomicQuery(rel, "a")
        weak = 0
        for n in range(1, 7):
            for skeleton in itertools.product(atoms, repeat=n):
                if weakly_smart_skeleton(skeleton, q):
                    weak += 1
                    assert _may_be_weak(skeleton[:2], skeleton[-1], q), skeleton
        assert weak == 42, rel


def test_weak_gate_matches_the_walk_kernel():
    # The gate's screen and memo change no verdict: every sequence of one
    # to three views of each closure, asked twice, gets the kernel's
    # verdict on its concatenated skeleton.
    screened = one_atom_heads = accepted = 0
    for t in range(15, 30):
        cat = _differential_catalog(t)
        closure = catalog_closure(cat)
        for q in _oriented_queries(cat):
            gate = _weak_gate(q)
            for n in (1, 2, 3):
                for views in itertools.product(closure, repeat=n):
                    skeleton = _concat_skeleton(views)
                    verdict = weakly_smart_skeleton(skeleton, q)
                    assert gate(views) == gate(views) == verdict, (t, q, views)
                    screened += not _may_be_weak(skeleton[:2], skeleton[-1], q)
                    one_atom_heads += n > 1 and len(views[0]) == 1
                    accepted += verdict
    # Most sequences are screened; many open with a one-atom view.
    assert (screened, one_atom_heads, accepted) == (13645, 7584, 203)


def test_plan_cap_sets_truncated():
    q = AtomicQuery(Atom("r4"), "a")
    cat = gen_catalog(SynthConfig(4, 30, 3, seed=0))
    searcher = _Searcher(catalog_closure(cat), q, max_plans=1)
    searcher.run()
    assert len(searcher.results) == 1
    assert searcher.results.cause == "plan cap"


def test_enumerations_report_their_cause():
    # A cut enumeration says what cut it, and a finished one says None.
    # Each kind has two plans here, none of them a single call, so an
    # expired deadline leaves no plan.
    q = AtomicQuery(Atom("r4", True), "a")
    cat = _differential_catalog(296)
    for enumerate_plans in (enumerate_minimal_weakly_smart, enumerate_minimal_smart):
        full = enumerate_plans(q, cat)
        assert len(full) == 2 and full.cause is None
        capped = enumerate_plans(q, cat, max_plans=1)
        assert capped == full[:1] and capped.cause == "plan cap"
        assert capped.states_visited <= full.states_visited
        late = enumerate_plans(q, cat, deadline=time.monotonic() - 1.0)
        assert late == [] and late.cause == "deadline"
        assert late.states_visited == 0


def test_find_one_reports_truncation():
    # An expired deadline stops the search before its first state: no
    # plan, and the result says the search did not finish.
    q = AtomicQuery(Atom("r3", True), "a")
    cat = gen_catalog(SynthConfig(4, 30, 3, seed=0))
    cut = find_one_weakly_smart(q, cat, deadline=time.monotonic() - 1.0)
    assert cut.hit is None and cut.states_visited == 0
    assert cut.cause == "deadline"
    full = find_one_weakly_smart(q, cat)
    assert [v.name for v in full.hit.views] == ["f13", "f11", "f3"]
    assert full.cause is None


# -- the per-closure template cache ---------------------------------------------


def _answers(q, cat, kinds=("weak", "smart", "one")):
    """Serialized weak and smart enumerations and find-one's plan and
    state count."""
    out = []
    if "weak" in kinds:
        out += [(h.kind, serialize_plan(h.plan)) for h in enumerate_minimal_weakly_smart(q, cat)]
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


def test_function_hash_lets_equal_catalogs_share_templates():
    # A function's cached hash is the dataclass's field hash, so set and
    # dict orders are those of the generated hash; an equal catalog built
    # apart finds the same entry, one with a changed output does not.
    config = SynthConfig(4, 30, 3, seed=0)
    first, second = gen_catalog(config), gen_catalog(config)
    assert first == second and first[0] is not second[0]
    for f in first:
        assert hash(f) == hash((f.name, f.skeleton, f.outputs))
    f = next(f for f in first if len(f) > 1)
    outputs = (len(f),) if f.outputs != (len(f),) else (1, len(f))
    changed = [dataclasses.replace(g, outputs=outputs) if g is f else g for g in first]
    engine._templates.cache_clear()
    for cat in (first, second, changed):
        engine._templates(tuple(catalog_closure(cat)))
    info = engine._templates.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_template_cache_builds_once_per_catalog(tmp_path):
    # The four oriented queries of one catalog, in every mode, and the same
    # catalog file parsed twice, build the tables once.
    cat = gen_catalog(SynthConfig(2, 6, 3, seed=20183))
    queries = _oriented_queries(cat)
    assert len(queries) == 4
    engine._templates.cache_clear()
    with count_calls(engine, "_Templates") as built, count_calls(engine, "_templates") as asked:
        with count_calls(engine, "_Searcher") as searched:
            for q in queries:
                enumerate_minimal_smart(q, cat)
                find_one_weakly_smart(q, cat)
                smart_plan_exists(q, cat)
    # Every search asks for the tables, and only the first builds them.
    assert built.calls == 1 and asked.calls == searched.calls > 1
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
