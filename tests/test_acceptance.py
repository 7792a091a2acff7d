"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
status.  Criterion 2's exhaustive layer works at the semantics level
(skeletons with filter variants realized as catalogs), which covers every
chained-plan shape the catalog-level phrasing reaches.
"""

import itertools
import statistics
import time

import pytest

from pathplan import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    PathFunction,
    SubFunction,
    bound_estimate,
    catalog_closure,
    chain_plan,
    call_function,
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
from pathplan.characterize import SMART
from pathplan.cli import main
from pathplan.evaluate import OPTIONAL_EDGE, Fact, Instance, project_rows
from pathplan.model import strip_filters
from pathplan.synth import SplitMix64, SynthConfig, gen_catalog, smart_plan_exists, vocabulary

from util import brute_force_minimal_weak, fn, smart_chain_reference, weakenings

PASS = "ACCEPTANCE PASS:"


# -- criterion 1: Figure-1 golden test ----------------------------------------


def test_criterion_1_fig1_golden(capsys, tmp_path):
    catalog = tmp_path / "fig1.cat"
    catalog.write_text(
        "getCompany = worksFor\n"
        "getHierarchy = worksFor^- . jobTitle | out 1 2\n"
        "getEducation = graduatedFrom\n"
    )
    start = time.monotonic()
    code = main(["plans", "--functions", str(catalog), "--query", "jobTitle", "--mode", "smart"])
    smart_out = capsys.readouterr().out
    code_weak = main(["plans", "--functions", str(catalog), "--query", "jobTitle", "--mode", "weak"])
    weak_out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0 and code_weak == 0
    assert smart_out == (
        "call getCompany(a -> v0)\n"
        "call getHierarchy(v0 -> v1, v2)\n"
        "filter v1 = a\n"
        "output v2\n"
    )
    assert weak_out == (
        "call getCompany(a -> v0)\n"
        "call getHierarchy(v0 -> _, v1)\n"
        "output v1\n"
    )
    assert "getEducation" not in smart_out and "getEducation" not in weak_out
    assert elapsed < 1.0
    print(f"\n{PASS} 1 (Fig. 1 golden test, {elapsed * 1000:.0f} ms)")


# -- criterion 2: characterization vs oracle ----------------------------------


def _chained_plan_cases():
    """Chained plans over small catalogs, exhaustive at the semantics level.

    Every skeleton of up to 4 atoms over two relations, split into calls in
    every way that yields legal function bodies, with the filter either
    absent, on the constant at the last two boundaries, or on a foreign
    constant.  This realizes every chained-plan semantics the catalog-level
    universe (4 relations, 5 functions of length 2, plans of 4 calls) can
    produce, deduplicated.
    """
    atoms = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    seen = set()
    for length in range(1, 5):
        for skeleton in itertools.product(atoms, repeat=length):
            cuts_space = []
            for cuts in itertools.product([False, True], repeat=length - 1):
                bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [length]
                segments = [tuple(skeleton[a:b]) for a, b in zip(bounds, bounds[1:])]
                try:
                    fns = [
                        PathFunction(f"f{i}", seg, tuple(range(1, len(seg) + 1)))
                        for i, seg in enumerate(segments)
                    ]
                except Exception:
                    continue  # a segment with more than one pivot
                key = tuple(tuple(f.skeleton) for f in fns)
                if key in seen:
                    continue
                seen.add(key)
                yield fns


def _filter_variants(fns):
    """The chained plan over ``fns`` and its filter variants: the two
    boundaries nearest the output, and a foreign-constant filter."""
    views = [SubFunction(f, len(f)) for f in fns]
    base = chain_plan(views, "a")
    variants = [base]
    last_call = base.calls[-1]
    if len(last_call.view) >= 2:
        two = chain_plan(views, "a", two_output_last=True)
        pair = two.calls[-1].outputs
        variants.append(ExecutionPlan(two.calls, ((pair[0], "a"),), pair[1]))
        variants.append(ExecutionPlan(two.calls, ((pair[1], "a"),), pair[0]))
        variants.append(ExecutionPlan(two.calls, ((pair[0], "b"),), pair[1]))
    else:
        out_var = base.calls[-1].outputs[-1]
        variants.append(ExecutionPlan(base.calls, ((out_var, "a"),), out_var))
        if len(base.calls) >= 2:
            prev = base.calls[-2].outputs[-1]
            variants.append(ExecutionPlan(base.calls, ((prev, "a"),), base.output))
            variants.append(ExecutionPlan(base.calls, ((prev, "b"),), base.output))
    return variants


def test_criterion_2_characterization_matches_oracle():
    start = time.monotonic()
    query = AtomicQuery(Atom("r"), "a")
    weak_checked = smart_checked = 0
    disagreements = []
    for fns in _chained_plan_cases():
        for plan in _filter_variants(fns):
            budget_kwargs = dict(budget=6, max_instances=3000)
            claimed_weak = is_weakly_smart(plan, query)
            oracle_weak = oracle_is_weakly_smart(plan, query, **budget_kwargs)
            weak_checked += 1
            if claimed_weak != oracle_weak.verdict:
                disagreements.append(("weak", plan, oracle_weak.witness))
                continue
            claimed_smart = is_smart(plan, query).level == SMART
            oracle_smart = oracle_is_smart(plan, query, **budget_kwargs)
            smart_checked += 1
            if claimed_smart != oracle_smart.verdict:
                disagreements.append(("smart", plan, oracle_smart.witness))
    elapsed = time.monotonic() - start
    assert disagreements == [], disagreements[:3]
    assert elapsed < 600
    print(
        f"\n{PASS} 2 (oracle agreement: {weak_checked} weak / {smart_checked} smart"
        f" checks, 0 disagreements, {elapsed:.1f} s)"
    )


# -- criterion 3: generator soundness and completeness -------------------------


def test_criterion_3_generator_matches_brute_force():
    start = time.monotonic()
    mismatches = 0
    count = 0
    for trial in range(200):
        rels = 2 + trial % 3
        fns_count = 3 + trial % 4
        cat = gen_catalog(SynthConfig(rels, fns_count, 3, seed=10_000 + trial))
        vocab = vocabulary(cat)
        base = vocab[trial % len(vocab)]
        query = AtomicQuery(Atom(base, trial % 2 == 1), "a")
        reference = set(brute_force_minimal_weak(query, cat, max_calls=5))
        got = {
            tuple(v.key for v in hit.views)
            for hit in enumerate_minimal_weakly_smart(query, cat)
            if len(hit.views) <= 5
        }
        count += 1
        if got != reference:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    print(f"\n{PASS} 3 (generator vs brute force on {count} catalogs, {elapsed:.1f} s)")


# -- criterion 4: baseline orderings -------------------------------------------


def test_criterion_4_baseline_orderings():
    start = time.monotonic()
    violations = 0
    catalogs = 0
    for trial in range(500):
        rels = 2 + trial % 3
        cat = gen_catalog(SynthConfig(rels, 3 + trial % 5, 3, seed=20_000 + trial))
        catalogs += 1
        for base in vocabulary(cat):
            for inv in (False, True):
                query = AtomicQuery(Atom(base, inv), "a")
                eq = has_trivial_equivalent_rewriting(query, cat)
                susie_hits = susie_plans(query, cat)
                smart = smart_plan_exists(query, cat)
                weak = find_one_weakly_smart(query, cat).hit is not None
                if eq and not smart:
                    violations += 1
                if susie_hits and not smart:
                    violations += 1
                if smart and not weak:
                    violations += 1
                for hit in susie_hits:
                    if is_smart(hit.plan, query).level != SMART:
                        violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    print(f"\n{PASS} 4 (baseline orderings on {catalogs} catalogs, {elapsed:.1f} s)")


# -- criterion 5: Susie limited completeness -----------------------------------


def _no_existential_catalogs():
    """Exhaustive catalogs over two relations, length <= 2, all positions
    output, no loop pivots; up to 3 functions exhaustively plus seeded
    larger samples up to 5."""
    atoms = [Atom("r"), Atom("r", True), Atom("s"), Atom("s", True)]
    bodies = [(a,) for a in atoms]
    for a in atoms:
        for b in atoms:
            if b != a.invert():
                bodies.append((a, b))
    pool = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(len(bodies)), size):
            pool.append([bodies[i] for i in combo])
    rng = SplitMix64(99)
    for _ in range(400):
        size = 4 + rng.below(2)
        picks = set()
        while len(picks) < size:
            picks.add(rng.below(len(bodies)))
        pool.append([bodies[i] for i in sorted(picks)])
    for bid, selection in enumerate(pool):
        yield [
            PathFunction(f"f{i}", body, tuple(range(1, len(body) + 1)))
            for i, body in enumerate(selection)
        ]


def test_criterion_5_susie_limited_completeness():
    start = time.monotonic()
    mismatches = 0
    checked = 0
    # One brute-force smartness decision per query, whose verdicts on plan
    # semantics hold across catalogs.
    queries = [AtomicQuery(Atom(base, inv), "a") for base in ("r", "s") for inv in (False, True)]
    smart_chain = {query: smart_chain_reference(query) for query in queries}
    for cat in _no_existential_catalogs():
        for query in queries:
            smart = {
                tuple(v.key for v in h.views)
                for h in enumerate_minimal_smart(query, cat)
            }
            # Susie plans are all smart; comparing minimal sets needs
            # minimality on both sides.  The reference's: no other chain
            # that embeds into the plan, calls possibly weakened to shorter
            # prefix views, is smart.
            susie = {
                tuple(v.key for v in h.views)
                for h in susie_plans(query, cat)
                if not any(smart_chain[query](sub) for sub in weakenings(h.views))
            }
            checked += 1
            if smart != susie:
                mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    # Conversely: with an existential middle variable, a smart plan exists
    # that the F.F^-.query construction cannot produce.
    worksFor, locatedIn, jobTitle = Atom("worksFor"), Atom("locatedIn"), Atom("jobTitle")
    cat = [
        fn("getProfessionalAddress", [worksFor, locatedIn]),
        fn("getEntityAtAddress", [locatedIn.invert()]),
        fn("getHierarchy", [worksFor.invert(), jobTitle], (1, 2)),
    ]
    query = AtomicQuery(jobTitle, "a")
    smart_hits = enumerate_minimal_smart(query, cat)
    assert any(len(h.views) == 3 for h in smart_hits)
    assert susie_plans(query, cat) == []
    print(f"\n{PASS} 5 (Susie completeness on {checked} query/catalog pairs, {elapsed:.1f} s)")


# -- criterion 6 and 7: trend reproduction and runtime bound -------------------


def _spearman(xs, ys):
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            rank = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = rank
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    ) ** 0.5
    return num / den if den else 0.0


@pytest.fixture(scope="module")
def sweeps():
    from pathplan.synth import sweep

    relations_sweep = sweep(
        "relations", 30, list(range(4, 21, 2)), seeds=20, timeout_ms=2000.0
    )
    functions_sweep = sweep(
        "functions", 10, list(range(5, 41, 5)), seeds=20, timeout_ms=2000.0
    )
    return relations_sweep, functions_sweep


def test_criterion_6_paper_trends(sweeps):
    relations_sweep, functions_sweep = sweeps
    weak_rel = [
        (r.axis_value, r.fraction)
        for r in relations_sweep.rows
        if r.approach == "weaklySmart"
    ]
    xs = [p for p, _ in weak_rel]
    ys = [f for _, f in weak_rel]
    rho_rel = _spearman(xs, ys)
    assert rho_rel <= -0.8, f"relations trend rho={rho_rel}"
    weak_fn = [
        (r.axis_value, r.fraction)
        for r in functions_sweep.rows
        if r.approach == "weaklySmart"
    ]
    rho_fn = _spearman([p for p, _ in weak_fn], [f for _, f in weak_fn])
    assert rho_fn >= 0.8, f"functions trend rho={rho_fn}"
    for result in sweeps:
        by_point = {}
        for row in result.rows:
            by_point.setdefault(row.axis_value, {})[row.approach] = row.fraction
        for point, fr in by_point.items():
            assert fr["weaklySmart"] >= fr["smart"] - 1e-9
            assert fr["smart"] >= fr["susie"] - 1e-9
    print(f"\n{PASS} 6 (trends: relations rho={rho_rel:.2f}, functions rho={rho_fn:.2f})")


def test_criterion_7_runtime_bound(sweeps):
    relations_sweep, _ = sweeps
    medians = [r.median_ms for r in relations_sweep.rows]
    assert max(medians) < 2000.0
    # Timeouts counted across every (query, approach) run of the sweep.
    assert relations_sweep.timeouts == 0
    print(
        f"\n{PASS} 7 (median per-query search {max(medians):.1f} ms worst point,"
        f" {relations_sweep.timeouts} timeouts)"
    )


# -- criterion 8: optional-edge projection law ---------------------------------


def test_criterion_8_optional_edge_projection_law():
    start = time.monotonic()
    rng = SplitMix64(8)
    rels = ["p", "q", "s"]
    pool = ["a", "b", "c", "d"]
    violations = 0
    trials = 0
    while trials < 1000:
        length = 1 + rng.below(3)
        skeleton = tuple(
            Atom(rels[rng.below(3)], rng.below(2) == 1) for _ in range(length)
        )
        try:
            f = PathFunction("f", skeleton, tuple(range(1, length + 1)))
        except Exception:
            continue
        facts = {
            Fact(rels[rng.below(3)], pool[rng.below(4)], pool[rng.below(4)])
            for _ in range(rng.below(10))
        }
        instance = Instance(facts)
        input_value = pool[rng.below(4)]
        trials += 1
        full = call_function(SubFunction(f, length), input_value, instance, OPTIONAL_EDGE)
        for k in range(1, length + 1):
            sub = SubFunction(f, k)
            direct = call_function(sub, input_value, instance, OPTIONAL_EDGE)
            if project_rows(full, sub.bindable) != direct.rows:
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    print(f"\n{PASS} 8 (projection law on {trials} triples, {elapsed:.1f} s)")


# -- criterion 9: termination instrumentation ----------------------------------


def test_criterion_9_single_plan_state_bound():
    start = time.monotonic()
    checked = 0
    for trial in range(120):
        rels = 2 + trial % 4
        cat = gen_catalog(SynthConfig(rels, 3 + trial % 6, 3, seed=30_000 + trial))
        for base in vocabulary(cat)[:2]:
            query = AtomicQuery(Atom(base, trial % 2 == 0), "a")
            result = find_one_weakly_smart(query, cat)
            checked += 1
            assert result.states_visited <= bound_estimate(cat).state_bound
    elapsed = time.monotonic() - start
    print(f"\n{PASS} 9 (state bound respected on {checked} searches, {elapsed:.1f} s)")
