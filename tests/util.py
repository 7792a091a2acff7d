"""Shared test helpers: reference enumerators, a reference plan evaluator
and oracles, and tiny catalog builders.

The brute-force enumerators are independent oracles: they enumerate call
chains exhaustively and keep the minimal ones, with no state machinery.
The reference walks try every sequence of steps along a line.
The smart references likewise try every short call chain, with every
filter and output, under ``is_smart``; the minimal-smart one keeps a smart
chain that no other smart chain embeds into with prefix weakening.
The reference evaluator runs a plan row by row, one environment dict per
row and one call per row and call, and the reference oracles evaluate the
plan and its filter-free version on every member of the instance family.
"""

from __future__ import annotations

import contextlib
import itertools
import types

from pathplan import (
    Atom,
    AtomicQuery,
    ExecutionPlan,
    PathFunction,
    PathSemantics,
    SubFunction,
    canonical_weak_database,
    catalog_closure,
    chain_plan,
    find_walk,
    is_smart,
    is_well_filtering,
)
from pathplan.characterize import SMART
from pathplan.evaluate import (
    NULL,
    OPTIONAL_EDGE,
    STANDARD,
    Instance,
    OracleReport,
    _instance_family,
    eval_semantics,
    query_answers,
)
from pathplan.model import plan_semantics, strip_filters


def fn(name, atoms, outs=None):
    atoms = tuple(atoms)
    return PathFunction(name, atoms, tuple(outs) if outs else (len(atoms),))


def concat(views):
    return tuple(a for v in views for a in v.skeleton)


def reference_weakly_smart(sem, query):
    """Weak smartness by evaluating the semantics on its canonical database,
    independent of the walk kernel in ``characterize``."""
    instance = canonical_weak_database(sem, query)
    delivered = eval_semantics(sem, query.constant, instance)
    return bool(delivered & query_answers(query, instance))


def split_bounded(skeleton, query):
    """Boundedness by trying every split into a forward path and a walk
    back to position 0, with no shortcut on the last atom: the shortest
    forward path, or None."""
    skeleton = tuple(skeleton)
    for m in range(len(skeleton)):
        if find_walk((query.relation.invert(),) + skeleton[:m], skeleton[m:], 0):
            return skeleton[:m]
    return None


def reference_walks(line, start, length):
    """Every walk of ``length`` steps along ``line`` from ``start``: each
    sequence of forward and backward steps is tried, with no memo, and one
    that stays on the line gives the word it emits and the positions it
    visits.  A forward step at p emits line[p], a backward step the inverse
    of line[p-1]."""
    for steps in itertools.product((1, -1), repeat=length):
        word, path = [], [start]
        for step in steps:
            pos = path[-1]
            if not 0 <= pos + min(step, 0) < len(line):
                break
            word.append(line[pos] if step == 1 else line[pos - 1].invert())
            path.append(pos + step)
        else:
            yield tuple(word), tuple(path)


def reference_walk(line, word, start, pins):
    """``characterize._walk`` by brute force: does a walk from ``start``
    emit ``word`` and meet every pin (boundary i -> the positions allowed
    after i steps)?"""
    word = tuple(word)
    return any(
        emitted == word and all(path[i] in allowed for i, allowed in pins.items())
        for emitted, path in reference_walks(line, start, len(word))
    )


def brute_force_minimal_weak(query, catalog, max_calls=5):
    """Exhaustive chains over the closure, kept iff weakly smart (canonical
    database evaluation) and no proper subsequence is."""
    closure = catalog_closure(catalog)
    memo = {}

    def weak_skeleton(skeleton):
        if skeleton not in memo:
            sem = PathSemantics(skeleton, (), len(skeleton))
            memo[skeleton] = len(skeleton) > 0 and reference_weakly_smart(sem, query)
        return memo[skeleton]

    weak = {}
    for k in range(1, max_calls + 1):
        for combo in itertools.product(closure, repeat=k):
            if weak_skeleton(concat(combo)):
                weak[tuple(v.key for v in combo)] = combo
    out = {}
    for key, views in weak.items():
        minimal = True
        n = len(views)
        for size in range(1, n):
            for idxs in itertools.combinations(range(n), size):
                sub = tuple(views[i].key for i in idxs)
                if sub in weak:
                    minimal = False
                    break
                if weak_skeleton(concat([views[i] for i in idxs])):
                    minimal = False
                    break
            if not minimal:
                break
        if minimal:
            out[key] = views
    return out


def _chained_plans(views, constant):
    """Every plan over the call chain ``views`` that the smart references
    try: the last call binds its last position, or its last two where its
    parent has an output at the one before; no filter or one filter of a
    variable on ``constant``; and every variable as the output."""
    last = views[-1]
    binds = [False]
    if len(last) >= 2 and len(last) - 1 in last.bindable:
        binds.append(True)
    for two_outputs in binds:
        calls = chain_plan(views, constant, two_output_last=two_outputs).calls
        variables = [name for call in calls for name in call.outputs]
        for filters in [()] + [((var, constant),) for var in variables]:
            for output in variables:
                yield ExecutionPlan(calls, filters, output)


def brute_force_smart_plan(query, catalog, max_calls=3):
    """The first smart plan of at most ``max_calls`` calls, fewest calls
    first, or None, by trying every call chain over the closure.

    Each chain is tried with every plan of ``_chained_plans``; ``is_smart``
    decides each plan.
    """
    closure = catalog_closure(catalog)
    for k in range(1, max_calls + 1):
        for views in itertools.product(closure, repeat=k):
            for plan in _chained_plans(views, query.constant):
                if is_smart(plan, query).level == SMART:
                    return plan
    return None


def smart_chain_reference(query):
    """A decision on call chains: is some plan of ``_chained_plans`` over
    the chain smart under ``is_smart``?  Verdicts are remembered per plan
    semantics, which decides ``is_smart`` on a chained plan.  A smart plan
    is well-filtering, so ``is_well_filtering`` answers first, and
    ``is_smart`` does not fall back to deciding weak smartness on plans
    that cannot be smart."""
    verdicts = {}

    def smart(views):
        for plan in _chained_plans(views, query.constant):
            sem = plan_semantics(plan)
            verdict = verdicts.get(sem)
            if verdict is None:
                verdict = verdicts[sem] = (
                    is_well_filtering(plan, query) and is_smart(plan, query).level == SMART
                )
            if verdict:
                return True
        return False

    return smart


def weakenings(views):
    """Every other call chain that embeds into ``views`` with prefix
    weakening: each subsequence, each call replaced by a view of the same
    parent whose prefix is an output no longer than the call's, except
    ``views`` itself."""
    options = [
        [SubFunction(v.parent, p) for p in v.parent.outputs if p <= v.prefix] for v in views
    ]
    key = tuple(v.key for v in views)
    seen = set()
    for size in range(1, len(views) + 1):
        for idxs in itertools.combinations(range(len(views)), size):
            for sub in itertools.product(*(options[i] for i in idxs)):
                sub_key = tuple(w.key for w in sub)
                if sub_key != key and sub_key not in seen:
                    seen.add(sub_key)
                    yield sub


def brute_force_minimal_smart(query, catalog, max_calls=3):
    """Exhaustive chains of at most ``max_calls`` closure views, kept iff
    smart (``smart_chain_reference``) and no other smart chain embeds into
    them with prefix weakening (``weakenings``), keyed by their views'
    keys.  A chain's weakenings have no more calls than it, so every one
    is among the chains tried."""
    closure = catalog_closure(catalog)
    smart = smart_chain_reference(query)
    chains = {}
    for k in range(1, max_calls + 1):
        for views in itertools.product(closure, repeat=k):
            if smart(views):
                chains[tuple(v.key for v in views)] = views
    return {
        key: views
        for key, views in chains.items()
        if not any(tuple(w.key for w in sub) in chains for sub in weakenings(views))
    }


def reference_call_rows(view, input_value, instance, mode=STANDARD):
    """Rows of one view call over all its bound positions, by depth-first
    search over the instance."""
    skeleton = view.skeleton
    positions = view.bindable
    rows = set()
    stack = [(input_value, 0, ())]
    while stack:
        node, depth, acc = stack.pop()
        if depth == len(skeleton):
            rows.add(acc)
            continue
        nxt = instance.successors(skeleton[depth], node)
        if not nxt and mode == OPTIONAL_EDGE:
            rows.add(acc + tuple(NULL for p in positions if p > depth))
            continue
        for succ in nxt:
            cell = (succ,) if (depth + 1) in positions else ()
            stack.append((succ, depth + 1, acc + cell))
    return frozenset(rows)


def reference_eval_plan(plan, instance, mode=STANDARD):
    """Run calls in order over row dicts, then apply filters and read the
    output; a null input leaves the call's outputs null on that row."""
    rows = [dict()]
    for i, call in enumerate(plan.calls):
        bind_idx = {p: j for j, p in enumerate(call.view.bindable)}
        new_rows = []
        for env in rows:
            value = call.source if i == 0 else env.get(call.source)
            if value is None:
                ext = dict(env)
                for name in call.outputs:
                    ext[name] = None
                new_rows.append(ext)
                continue
            produced = False
            for row in reference_call_rows(call.view, value, instance, mode):
                ext = dict(env)
                for p, name in zip(call.bind, call.outputs):
                    ext[name] = row[bind_idx[p]]
                new_rows.append(ext)
                produced = True
            if not produced and mode == OPTIONAL_EDGE:
                ext = dict(env)
                for name in call.outputs:
                    ext[name] = None
                new_rows.append(ext)
        rows = new_rows
    out = set()
    for env in rows:
        if any(env.get(var) != const for var, const in plan.filters):
            continue
        value = env.get(plan.output)
        if value is not None:
            out.add(value)
    return out


def _family(plan, query, budget, max_instances, rng_seed):
    """Every member of the instance family in order, as a fresh ``Instance``,
    and whether the cap cut its exhaustive layer."""
    sem = plan_semantics(plan)
    canonical = canonical_weak_database(sem, query)
    layers = list(_instance_family(canonical, sem, query, budget, max_instances, rng_seed))
    members = itertools.chain(
        [canonical.facts],
        ([layer.facts[i] for i in member] for layer in layers for member in layer.members),
    )
    return (Instance(facts) for facts in members), any(layer.cut for layer in layers)


def reference_oracle_is_weakly_smart(
    plan, query, budget=6, max_instances=20000, mode=OPTIONAL_EDGE
):
    """``oracle_is_weakly_smart`` evaluating every member of the family,
    the plan and its filter-free version separately."""
    unfiltered = strip_filters(plan)
    family, truncated = _family(plan, query, budget, max_instances, rng_seed=97)
    for checked, inst in enumerate(family, start=1):
        answers = query_answers(query, inst)
        if not answers:
            continue
        if not reference_eval_plan(unfiltered, inst, mode):
            continue
        delivered = reference_eval_plan(plan, inst, mode)
        if not (delivered & answers):
            return OracleReport(False, inst, True, checked)
    return OracleReport(True, None, not truncated, checked)


def reference_oracle_is_smart(
    plan, query, budget=6, max_instances=20000, mode=OPTIONAL_EDGE
):
    """``oracle_is_smart`` evaluating every member of the family, the plan
    and its filter-free version separately."""
    unfiltered = strip_filters(plan)
    family, truncated = _family(plan, query, budget, max_instances, rng_seed=193)
    for checked, inst in enumerate(family, start=1):
        if not reference_eval_plan(unfiltered, inst, mode):
            continue
        if reference_eval_plan(plan, inst, mode) != query_answers(query, inst):
            return OracleReport(False, inst, True, checked)
    return OracleReport(True, None, not truncated, checked)


def report_key(report):
    """What two oracle reports must agree on."""
    witness = None if report.witness is None else sorted(report.witness.facts, key=str)
    return (report.verdict, witness, report.complete, report.instances_checked)


def fig1_catalog():
    worksFor, jobTitle, graduatedFrom = Atom("worksFor"), Atom("jobTitle"), Atom("graduatedFrom")
    return [
        fn("getCompany", [worksFor]),
        fn("getHierarchy", [worksFor.invert(), jobTitle], (1, 2)),
        fn("getEducation", [graduatedFrom]),
    ]


def music_catalog():
    sing, onAlbum = Atom("sing"), Atom("onAlbum")
    return [
        fn("getAlbumsOfSinger", [sing, onAlbum]),
        fn("getSongsOnAlbum", [onAlbum.invert()]),
    ]


def jobtitle_query():
    return AtomicQuery(Atom("jobTitle"), "a")


@contextlib.contextmanager
def count_calls(module, name):
    """Count the calls made to ``module.name`` inside the block.

    Yields a namespace whose ``calls`` grows with each call; the original
    attribute is put back on exit.
    """
    original = getattr(module, name)
    counter = types.SimpleNamespace(calls=0)

    def counted(*args, **kwargs):
        counter.calls += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield counter
    finally:
        setattr(module, name, original)
