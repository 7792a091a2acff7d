import random

import pytest

from pathplan import Atom, chain_plan, catalog_closure, SubFunction
from pathplan.dsl import (
    DuplicateNameError,
    InverseFactError,
    MultiPivotLoopError,
    ParseError,
    UnknownFunctionError,
    parse_catalog,
    parse_instance,
    parse_plan,
    serialize_catalog,
    serialize_instance,
    serialize_plan,
)
from pathplan.evaluate import Fact
from pathplan.synth import SynthConfig, gen_catalog

from util import fig1_catalog, fn


def test_parse_catalog_table_function():
    doc = parse_catalog("getDeathDate = hasId^- . diedOnDate | out 2")
    f = doc.functions[0]
    assert f.skeleton == (Atom("hasId", True), Atom("diedOnDate"))
    assert f.outputs == (2,)


def test_parse_catalog_default_outputs():
    doc = parse_catalog("f = r")
    assert doc.functions[0].outputs == (1,)
    assert doc.functions[0].skeleton == (Atom("r"),)


def test_parse_catalog_multi_output():
    doc = parse_catalog("getHierarchy = worksFor^- . jobTitle | out 1 2")
    assert doc.functions[0].outputs == (1, 2)


def test_parse_catalog_comments_and_blanks():
    text = "# demo\n\nf = r . s\n  # trailing comment line\ng = s^-\n"
    doc = parse_catalog(text)
    assert [f.name for f in doc.functions] == ["f", "g"]


def test_parse_catalog_duplicate_name():
    with pytest.raises(DuplicateNameError):
        parse_catalog("f = r\nf = s")


def test_parse_catalog_multi_pivot_rejected():
    with pytest.raises(MultiPivotLoopError):
        parse_catalog("f = r . r^- . r")


def test_parse_catalog_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_catalog("f = r\ng = . s")
    assert err.value.line == 2


def test_parse_catalog_bad_outputs_position():
    with pytest.raises(ParseError) as err:
        parse_catalog("g = s\nf = r . s | out 3")
    assert err.value.line == 2
    assert "bad output positions" in err.value.reason


def test_plan_missing_prefix_view_position():
    cat = [fn("f", [Atom("p"), Atom("q")], (2,))]
    with pytest.raises(ParseError) as err:
        parse_plan("# prefix 1 is no output\ncall f[1](a -> v0)\noutput v0\n", cat)
    assert err.value.line == 2
    assert "no sub-function of length 1" in err.value.reason


def test_parse_instance():
    inst = parse_instance("worksFor(Anna, TheGuardian)\nworksFor(Anna, TheGuardian)")
    assert len(inst) == 1
    assert Fact("worksFor", "Anna", "TheGuardian") in inst.facts


def test_parse_instance_empty():
    assert len(parse_instance("")) == 0


def test_parse_instance_rejects_inverse():
    with pytest.raises(InverseFactError):
        parse_instance("worksFor^-(TheGuardian, Anna)")


def test_plan_round_trip_pi1():
    cat = fig1_catalog()
    text = (
        "call getCompany(Anna -> v0)\n"
        "call getHierarchy(v0 -> v1, v2)\n"
        "filter v1 = Anna\n"
        "output v2\n"
    )
    plan = parse_plan(text, cat)
    assert serialize_plan(plan) == text
    assert parse_plan(serialize_plan(plan), cat) == plan


def test_plan_round_trip_prefix_and_placeholder():
    cat = [fn("f", [Atom("p"), Atom("q"), Atom("s")], (1, 2, 3))]
    text = "call f[2](a -> _, v0)\noutput v0\n"
    plan = parse_plan(text, cat)
    assert plan.calls[0].view.prefix == 2
    assert plan.calls[0].bind == (2,)
    assert serialize_plan(plan) == text


def test_plan_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse_plan("call nope(a -> v0)\noutput v0", fig1_catalog())


def test_catalog_round_trip_random():
    for seed in range(40):
        cat = gen_catalog(SynthConfig(4, 8, 3, seed=seed))
        doc = parse_catalog(serialize_catalog(cat))
        assert [(f.name, f.skeleton, f.outputs) for f in doc.functions] == [
            (f.name, f.skeleton, f.outputs) for f in cat
        ]


def test_plan_round_trip_random():
    rng = random.Random(4)
    for seed in range(25):
        cat = gen_catalog(SynthConfig(3, 6, 3, seed=seed + 10))
        closure = catalog_closure(cat)
        views = [closure[rng.randrange(len(closure))] for _ in range(rng.randint(1, 4))]
        plan = chain_plan(views, "a")
        assert parse_plan(serialize_plan(plan), cat) == plan


def test_instance_round_trip():
    inst = parse_instance("r(a, b)\ns(b, c)\nr(c, a)")
    assert parse_instance(serialize_instance(inst)) == inst
