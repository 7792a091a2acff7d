"""Shared test helpers: reference enumerators and tiny catalog builders.

The brute-force enumerators are independent oracles: they enumerate call
chains exhaustively and keep the minimal ones, with no state machinery.
"""

from __future__ import annotations

import contextlib
import itertools
import types

from pathplan import (
    Atom,
    AtomicQuery,
    PathFunction,
    PathSemantics,
    canonical_weak_database,
    catalog_closure,
    find_walk,
)
from pathplan.evaluate import eval_semantics, query_answers


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
