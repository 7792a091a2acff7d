import itertools
import random

import pytest

from pathplan import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    FunctionCall,
    PathSemantics,
    SubFunction,
    chain_plan,
    find_walk,
    is_bounded,
    is_smart,
    is_weakly_smart,
    is_well_filtering,
    oracle_is_weakly_smart,
    plan_semantics,
    weakly_smart_semantics,
    weakly_smart_skeleton,
)
from pathplan.characterize import (
    NOT_WEAKLY_SMART,
    SMART,
    WEAKLY_SMART_ONLY,
    _walk,
    is_loosely_bounded,
)
from pathplan.model import ModelError, NotChainedError

from util import (
    fig1_catalog,
    fn,
    jobtitle_query,
    music_catalog,
    reference_walk,
    reference_walks,
    reference_weakly_smart,
    split_bounded,
)


def atoms(text):
    out = []
    for part in text.split("."):
        out.append(Atom(part[:-2], True) if part.endswith("^-") else Atom(part))
    return tuple(out)


def test_find_walk_paper_example():
    base = atoms("r^-.u.s.t")
    candidate = atoms("t^-.s^-.s.s^-.u^-.r")
    assert find_walk(base, candidate, 0) is True
    assert find_walk(base, candidate, 1) is False
    # One atom short, the walk stops at position 1, not 0.
    assert find_walk(base, candidate[:-1], 0) is False
    assert find_walk(base, candidate[:-1], 1) is True
    for word in (candidate, candidate[:-1]):
        for target in (0, 1):
            expected = find_walk(base, word, target)
            assert reference_walk(base, word, len(base), {len(word): (target,)}) is expected


def test_find_walk_single_step():
    assert find_walk(atoms("r^-"), atoms("r"), 0) is True
    assert find_walk(atoms("r^-"), atoms("r"), 1) is False


def test_find_walk_wrong_relation():
    assert find_walk(atoms("r^-.a.b"), atoms("c"), 0) is False


def test_walk_matches_reference():
    # Every line of up to four atoms over r, s and their inverses, every
    # start on it and every word of up to five atoms: the sweep answers as
    # the brute-force walks do, with no pin and with one pin of a single
    # position at any boundary, the end included.  A pin only drops walks,
    # so the pinned cases are the words some walk emits.
    oriented = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    words = [list(itertools.product(oriented, repeat=m)) for m in range(6)]
    # Words are looked up by number: hashing 2 million tuples of atoms
    # would double the test's time.
    number = {word: k for same_length in words for k, word in enumerate(same_length)}
    unpinned = pinned = walkable = 0
    for n in range(5):
        for line in itertools.product(oriented, repeat=n):
            for start in range(n + 1):
                for m in range(6):
                    walks = {}
                    for word, path in reference_walks(line, start, m):
                        walks.setdefault(word, []).append(path)
                    emitted = {number[word] for word in walks}
                    for k, word in enumerate(words[m]):
                        assert _walk(line, word, start, {}) is (k in emitted), (line, word, start)
                        unpinned += 1
                    for word, paths in walks.items():
                        for i in range(m + 1):
                            visited = {path[i] for path in paths}
                            for p in range(n + 1):
                                found = _walk(line, word, start, {i: (p,)})
                                assert found is (p in visited), (line, word, start, i, p)
                                pinned += 1
                                walkable += found
    assert (unpinned, pinned, walkable) == (2174445, 876457, 190277)


def test_long_skeleton_is_decided_without_deep_recursion():
    # 3001 atoms: a walk that deep overflows the interpreter's stack if it
    # recurses once per atom.
    s, r = Atom("s"), Atom("r")
    skeleton = (s,) * 1500 + (s.invert(),) * 1500 + (r,)
    q = AtomicQuery(r, "a")
    assert weakly_smart_skeleton(skeleton, q) is True
    assert is_bounded(skeleton, q) == (s,) * 1500


def test_is_bounded_pi1_shape():
    q = jobtitle_query()
    assert is_bounded(atoms("worksFor.worksFor^-.jobTitle"), q) == atoms("worksFor")


def test_is_bounded_pi2_shape():
    q = jobtitle_query()
    assert is_bounded(atoms("graduatedFrom.worksFor^-.jobTitle"), q) is None


def test_is_bounded_figure():
    q = AtomicQuery(Atom("r"), "a")
    assert is_bounded(atoms("u.s.t.t^-.s^-.s.s^-.u^-.r"), q) == atoms("u.s.t")


def test_is_bounded_cut_on_last_atom_matches_every_split():
    # A skeleton not ending with the query atom is rejected before any
    # split is tried; every skeleton of length <= 6 over r, s and their
    # inverses gets the forward path that trying every split gives.
    oriented = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    for q in (AtomicQuery(Atom("r"), "a"), AtomicQuery(Atom("r", True), "a")):
        bounded = 0
        for length in range(7):
            for skeleton in itertools.product(oriented, repeat=length):
                expected = split_bounded(skeleton, q)
                assert is_bounded(skeleton, q) == expected, (skeleton, q)
                bounded += expected is not None
        assert bounded > 0


def test_loosely_bounded_music():
    q = AtomicQuery(Atom("sing"), "a")
    skeleton = atoms("sing.onAlbum.onAlbum^-")
    assert is_loosely_bounded(skeleton, q)
    assert is_bounded(skeleton, q) is None


def test_loosely_bounded_subsumes_bounded():
    # Every bounded skeleton of length <= 6 over r, s and their inverses is
    # weakly smart.
    oriented = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    q = AtomicQuery(Atom("r"), "a")
    bounded = 0
    for length in range(1, 7):
        for skeleton in itertools.product(oriented, repeat=length):
            if is_bounded(skeleton, q) is not None:
                bounded += 1
                assert weakly_smart_skeleton(skeleton, q), skeleton
    assert bounded > 0


def test_loosely_bounded_negative():
    q = AtomicQuery(Atom("sing"), "a")
    assert not is_loosely_bounded(atoms("sing.onAlbum"), q)


def test_loosely_bounded_rejects_weak_refutations():
    # Each skeleton is the query atom, a forward atom, and a walk back to
    # the forward atom's start that dips through a query atom below it.
    # The plan's canonical database holds no such atom, and refutes it.
    q = AtomicQuery(Atom("r"), "a")
    for first, second in (("r.r^-", "r.r.r^-"), ("r.s.s^-", "r.r^-"), ("r.s^-.s", "r.r^-")):
        f1, f2 = fn("f1", atoms(first)), fn("f2", atoms(second))
        assert not is_loosely_bounded(f1.skeleton + f2.skeleton, q)
        plan = chain_plan([SubFunction(f, len(f.skeleton)) for f in (f1, f2)], "a")
        assert is_smart(plan, q).level == NOT_WEAKLY_SMART
        report = oracle_is_weakly_smart(plan, q)
        assert not report.verdict and report.complete


def _pi_plans():
    cat = fig1_catalog()
    getCompany, getHierarchy, getEducation = cat
    pi1 = ExecutionPlan(
        (
            FunctionCall(SubFunction(getCompany, 1), "a", (1,), ("v0",)),
            FunctionCall(SubFunction(getHierarchy, 2), "v0", (1, 2), ("v1", "v2")),
        ),
        (("v1", "a"),),
        "v2",
    )
    pi2 = ExecutionPlan(
        (
            FunctionCall(SubFunction(getEducation, 1), "a", (1,), ("v0",)),
            FunctionCall(SubFunction(getHierarchy, 2), "v0", (1, 2), ("v1", "v2")),
        ),
        (("v1", "a"),),
        "v2",
    )
    return pi1, pi2


def test_is_weakly_smart_pi1_pi2():
    q = jobtitle_query()
    pi1, pi2 = _pi_plans()
    assert is_weakly_smart(pi1, q)
    assert not is_weakly_smart(pi2, q)


def test_is_weakly_smart_checks_the_plan_it_is_given():
    # Each plan has no semantics, and trimming or narrowing its calls
    # would hide why: the second getCompany call does not read the first
    # one's output, or x is bound twice.  Both deciders raise the error
    # that `plan_semantics` raises on the plan as given.
    company, hierarchy, _ = (SubFunction(f, len(f)) for f in fig1_catalog())
    q = AtomicQuery(Atom("worksFor"), "Anna")

    def call(view, source, *outputs):
        return FunctionCall(view, source, tuple(range(1, len(view) + 1))[-len(outputs) :], outputs)

    plans = [
        ExecutionPlan((call(company, "Anna", "v0"), call(company, "Anna", "v1")), (), "v0"),
        ExecutionPlan(
            (
                call(hierarchy, "Anna", "x", "v1"),
                call(hierarchy, "v1", "x", "v2"),
                call(company, "v2", "v3"),
            ),
            (),
            "v3",
        ),
    ]
    for plan, error in zip(plans, (NotChainedError, ModelError)):
        with pytest.raises(error) as expected:
            plan_semantics(plan)
        for decide in (is_smart, is_weakly_smart):
            with pytest.raises(ModelError) as raised:
                decide(plan, q)
            assert (type(raised.value), str(raised.value)) == (
                type(expected.value),
                str(expected.value),
            ), (decide, plan)
    assert str(expected.value) == "duplicate variable 'x'"


def test_weakly_smart_semantics_matches_canonical_evaluation():
    # Every skeleton of length <= 4 over r, s and their inverses, every
    # output boundary, with no filter, the query constant at one boundary,
    # or another constant at one boundary.
    oriented = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    for constant, other in (("a", "b"), ("c2", "c0")):
        q = AtomicQuery(Atom("r"), constant)
        for length in range(5):
            for skeleton in itertools.product(oriented, repeat=length):
                filter_sets = [()]
                for pos in range(length + 1):
                    filter_sets += [((pos, constant),), ((pos, other),)]
                for output in range(length + 1):
                    for filters in filter_sets:
                        sem = PathSemantics(skeleton, filters, output)
                        assert weakly_smart_semantics(sem, q) == reference_weakly_smart(
                            sem, q
                        ), (sem, q)


def test_is_weakly_smart_recursive_example():
    r = Atom("r")
    f1, f2 = fn("f1", [r]), fn("f2", [r.invert(), r])
    plan = chain_plan([SubFunction(f1, 1), SubFunction(f2, 2)], "a")
    assert is_weakly_smart(plan, AtomicQuery(r, "a"))


def test_is_well_filtering():
    q = jobtitle_query()
    pi1, _ = _pi_plans()
    assert is_well_filtering(pi1, q)
    wrong = ExecutionPlan(pi1.calls, (("v1", "Bob"),), pi1.output)
    assert not is_well_filtering(wrong, q)
    unfiltered = ExecutionPlan(pi1.calls, (), pi1.output)
    assert not is_well_filtering(unfiltered, q)


def test_is_smart_levels():
    q = jobtitle_query()
    pi1, pi2 = _pi_plans()
    assert is_smart(pi1, q).level == SMART
    assert is_smart(pi2, q).level == NOT_WEAKLY_SMART
    unfiltered = ExecutionPlan(pi1.calls, (), pi1.output)
    assert is_smart(unfiltered, q).level == WEAKLY_SMART_ONLY


def test_is_smart_music_weakly_only():
    q = AtomicQuery(Atom("sing"), "a")
    cat = music_catalog()
    plan = chain_plan([SubFunction(cat[0], 2), SubFunction(cat[1], 1)], "a")
    assert is_smart(plan, q).level == WEAKLY_SMART_ONLY


def test_smart_implies_weakly_smart_and_terminal_pattern():
    from pathplan.model import strip_filters

    rng = random.Random(5)
    names = ["r", "s"]
    q = AtomicQuery(Atom("r"), "a")
    checked = 0
    for _ in range(400):
        parts = []
        for i in range(rng.randint(1, 3)):
            sk = tuple(
                Atom(rng.choice(names), rng.random() < 0.5)
                for _ in range(rng.randint(1, 2))
            )
            parts.append(fn(f"f{i}", sk, tuple(range(1, len(sk) + 1))))
        views = [SubFunction(p, len(p)) for p in parts]
        try:
            plan = chain_plan(views, "a", two_output_last=len(views[-1]) >= 2)
        except Exception:
            continue
        pair = plan.calls[-1].outputs
        if len(pair) >= 2:
            plan = ExecutionPlan(plan.calls, ((pair[0], "a"),), pair[1])
        verdict = is_smart(plan, q)
        if verdict.level == SMART:
            checked += 1
            assert is_weakly_smart(strip_filters(plan), q)
    assert checked > 0
