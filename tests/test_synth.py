import pytest

from pathplan import Atom, AtomicQuery, gen_catalog, SynthConfig
from pathplan import synth
from pathplan.synth import (
    answered_fractions,
    smart_plan_exists,
    sweep,
    sweep_csv,
    vocabulary,
)
from pathplan.engine import find_one_weakly_smart, has_trivial_equivalent_rewriting, susie_plans

from util import fig1_catalog, fn, jobtitle_query, music_catalog


def test_gen_catalog_shape():
    cfg = SynthConfig(relation_count=10, function_count=30, seed=1)
    cat = gen_catalog(cfg)
    assert len(cat) == 30
    for f in cat:
        assert 1 <= len(f.skeleton) <= 3
        assert f.outputs == (len(f.skeleton),)


def test_gen_catalog_single_function():
    cat = gen_catalog(SynthConfig(1, 1, 1, seed=9))
    assert len(cat) == 1 and len(cat[0].skeleton) == 1


def test_gen_catalog_deterministic():
    cfg = SynthConfig(5, 12, 3, seed=42)
    a = gen_catalog(cfg)
    b = gen_catalog(cfg)
    assert [(f.name, f.skeleton, f.outputs) for f in a] == [
        (f.name, f.skeleton, f.outputs) for f in b
    ]


def test_gen_catalog_no_multi_pivot():
    for seed in range(30):
        for f in gen_catalog(SynthConfig(2, 8, 3, seed=seed)):
            f.pivot()  # raises at construction if more than one


def test_trivial_function_answers_all_approaches():
    r = Atom("r1")
    cat = [fn("f1", [r])]
    point = answered_fractions(cat)
    # Query r1 is answered by every approach; r1^- by none.
    assert point.fractions["eqRewriting"] == 0.5
    assert point.fractions["susie"] == 0.5
    assert point.fractions["smart"] == 0.5
    assert point.fractions["weaklySmart"] == 0.5


def test_fig1_fractions_jobtitle():
    cat = fig1_catalog()
    q = jobtitle_query()
    assert not has_trivial_equivalent_rewriting(q, cat)
    assert susie_plans(q, cat)
    assert smart_plan_exists(q, cat)
    assert find_one_weakly_smart(q, cat).hit is not None


def test_music_weak_but_not_smart():
    cat = music_catalog()
    q = AtomicQuery(Atom("sing"), "a")
    assert find_one_weakly_smart(q, cat).hit is not None
    assert not smart_plan_exists(q, cat)


def test_approach_ordering_invariant():
    # eq answered => smart answered; susie => smart => weakly smart.
    for seed in range(25):
        cat = gen_catalog(SynthConfig(3, 6, 3, seed=seed + 1200))
        for base in vocabulary(cat):
            for inv in (False, True):
                q = AtomicQuery(Atom(base, inv), "a")
                eq = has_trivial_equivalent_rewriting(q, cat)
                susie = bool(susie_plans(q, cat))
                smart = smart_plan_exists(q, cat)
                weak = find_one_weakly_smart(q, cat).hit is not None
                assert not eq or smart
                assert not susie or smart
                assert not smart or weak


def test_sweep_single_point_matches_answered_fractions():
    values = [3]
    result = sweep("relations", 5, values, seeds=1, timeout_ms=4000)
    rows = {r.approach: r for r in result.rows}
    assert set(rows) == {"eqRewriting", "susie", "smart", "weaklySmart"}
    assert all(0.0 <= r.fraction <= 1.0 for r in result.rows)


def test_sweep_deterministic_fractions():
    a = sweep("functions", 3, [4, 6], seeds=2, timeout_ms=4000)
    b = sweep("functions", 3, [4, 6], seeds=2, timeout_ms=4000)
    assert [(r.axis_value, r.approach, r.fraction) for r in a.rows] == [
        (r.axis_value, r.approach, r.fraction) for r in b.rows
    ]


def test_sweep_csv_header():
    result = sweep("relations", 4, [2], seeds=1, timeout_ms=4000)
    text = sweep_csv(result)
    assert text.splitlines()[0] == "axisValue,approach,fractionAnswered,medianMs,p95Ms"
    assert len(text.splitlines()) == 5


def test_answered_fractions_propagates_errors(monkeypatch):
    # Only a bug can raise here (a deadline ends the search quietly), so it
    # must not be booked as a timeout.
    def broken(*args, **kwargs):
        raise ValueError("broken check")

    monkeypatch.setattr(synth, "smart_plan_exists", broken)
    with pytest.raises(ValueError):
        answered_fractions(fig1_catalog())
