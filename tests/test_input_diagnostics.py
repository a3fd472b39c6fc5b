"""Every diagnostic of validate_category and validate_functor, each from one
malformed input written as JSON: `hhwb validate` prints it and exits 1,
and `hhwb compute` refuses the category with exit 1 and no traceback."""

import json

import pytest

from hhwb import cli
from hhwb.cli import main


def hom(name, src="*", tgt="*", degree=0):
    return {"name": name, "src": src, "tgt": tgt, "degree": degree}


def term(basis, num=1):
    return [{"basis": basis, "num": num}]


def dual(**changes):
    """k[x]/x^2 (fixtures/dual_numbers.json) with `changes` applied."""
    data = {"name": "D", "objects": ["*"], "homs": [hom("1"), hom("x")],
            "units": {"*": "1"},
            "compose": [{"g": "x", "f": "x", "result": []}], "diff": []}
    return dict(data, **changes)


def quiver(**changes):
    """The path category of a -> b (fixtures/quiver_a2.json)."""
    data = {"name": "A2", "objects": ["a", "b"],
            "homs": [hom("ea", "a", "a"), hom("eb", "b", "b"),
                     hom("p", "a", "b")],
            "units": {"a": "ea", "b": "eb"}, "compose": [], "diff": []}
    return dict(data, **changes)


def square_zero(**changes):
    """1, u (degree 0), v (degree 1), products of non-units zero, d(u) = v
    (conftest.square_zero_with_diff)."""
    data = {"name": "T", "objects": ["*"],
            "homs": [hom("1"), hom("u"), hom("v", degree=1)],
            "units": {"*": "1"}, "compose": [],
            "diff": [{"basis": "u", "result": term("v")}]}
    return dict(data, **changes)


CATEGORIES = {
    "duplicate object": (
        dual(objects=["*", "*"]), "duplicate object identifiers"),
    "bad endpoint": (
        dual(homs=[hom("1"), hom("x"), hom("w", "*", "nowhere")]),
        "basis w: endpoint not an object"),
    "missing unit": (
        quiver(units={"a": "ea"}), "object b: missing unit"),
    "unit not an endomorphism": (
        quiver(units={"a": "p", "b": "eb"}),
        "unit p of a: not an endomorphism basis element"),
    "unit degree": (
        dual(homs=[hom("1", degree=1), hom("x")]),
        "unit 1 of *: degree 1 != 0"),
    "unit differential": (
        dual(homs=[hom("1"), hom("x"), hom("y", degree=1)],
             diff=[{"basis": "1", "result": term("y")}]),
        "unit 1 of *: differential is nonzero"),
    "compose unknown": (
        dual(compose=[{"g": "x", "f": "nope", "result": term("x")}]),
        "compose (x,nope): unknown basis element"),
    "compose not composable": (
        quiver(compose=[{"g": "p", "f": "p", "result": term("p")}]),
        "compose (p,p): pair is not composable"),
    "compose wrong hom space": (
        quiver(compose=[{"g": "p", "f": "ea", "result": term("eb")}]),
        "compose (p,ea): term eb in wrong hom space"),
    "diff unknown": (
        dual(diff=[{"basis": "nope", "result": term("x")}]),
        "diff nope: unknown basis element"),
    "diff wrong hom space": (
        quiver(homs=quiver()["homs"] + [hom("r", "a", "a", 1)],
               diff=[{"basis": "p", "result": term("r")}]),
        "diff p: term r in wrong hom space"),
    "diff degree": (
        dual(diff=[{"basis": "x", "result": term("x")}]),
        "diff x: term x not of degree +1"),
    "d squared": (
        square_zero(homs=square_zero()["homs"] + [hom("w", degree=2)],
                    diff=[{"basis": "u", "result": term("v")},
                          {"basis": "v", "result": term("w")}]),
        "d∘d != 0 on u"),
    "left unit law": (
        dual(compose=[{"g": "1", "f": "x", "result": term("x", 2)}]),
        "left unit law fails on x"),
    "right unit law": (
        dual(compose=[{"g": "x", "f": "1", "result": term("x", 2)}]),
        "right unit law fails on x"),
    "Leibniz": (
        square_zero(compose=[{"g": "u", "f": "u", "result": term("u")}]),
        "Leibniz rule fails on (u,u)"),
}


def write(tmp_path, data) -> str:
    """`data` as a JSON file; a str is written as it is."""
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def edited(data, old: str, new: str) -> str:
    """`data` as JSON text with `old` replaced by `new`, which can repeat
    a key, as no dict can."""
    text = json.dumps(data)
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("data,message", CATEGORIES.values(),
                         ids=CATEGORIES.keys())
def test_category_diagnostic(tmp_path, capsys, data, message):
    path = write(tmp_path, data)
    assert main(["validate", path]) == cli.EXIT_MISMATCH == 1
    assert message in capsys.readouterr().out.splitlines()
    code = main(["compute", path, "--max-level", "1", "--degrees=0..0"])
    out = capsys.readouterr()
    assert code == 1
    assert message in out.err.splitlines()
    assert "Traceback" not in out.err
    assert out.out == ""


# functors on the categories above, written into their "functors" entry
GOOD_FUNCTOR = (dual, {"name": "minus", "obj_map": {"*": "*"},
                       "hom_map": {"1": term("1"), "x": term("x", -1)}})
FUNCTORS = {
    "object map": (
        dual, {"obj_map": {}, "hom_map": {}}, "object map misses *"),
    "unknown target": (
        dual, {"obj_map": {"*": "*"},
               "hom_map": {"1": term("1"), "x": term("nope")}},
        "F(x): unknown target basis nope"),
    "wrong hom space": (
        quiver, {"obj_map": {"a": "a", "b": "b"},
                 "hom_map": {"ea": term("ea"), "eb": term("eb"),
                             "p": term("ea")}},
        "F(p): term ea in wrong hom space"),
    "degree": (
        square_zero, {"obj_map": {"*": "*"},
                      "hom_map": {"1": term("1"), "u": term("v"),
                                  "v": term("v")}},
        "F(u): term v changes degree"),
    "unit": (
        dual, {"obj_map": {"*": "*"},
               "hom_map": {"1": term("1", 2), "x": term("x")}},
        "unit of * not preserved"),
    "composition": (
        dual, {"obj_map": {"*": "*"},
               "hom_map": {"1": term("1"), "x": term("1")}},
        "composition not preserved on (x,x)"),
    "differential": (
        square_zero, {"obj_map": {"*": "*"},
                      "hom_map": {"1": term("1"), "u": term("u")}},
        "differential not preserved on u"),
    # a map may name only the category's own objects and basis morphisms
    "unknown object": (
        dual, dict(GOOD_FUNCTOR[1], obj_map={"*": "*", "ghost": "*"}),
        "object map names unknown object ghost"),
    "unknown basis": (
        dual, dict(GOOD_FUNCTOR[1],
                   hom_map={"1": term("1"), "x": term("x", -1), "zzz": []}),
        "hom map names unknown basis zzz"),
}


def test_good_functor_validates(tmp_path, capsys):
    category, functor = GOOD_FUNCTOR
    path = write(tmp_path, category(functors=[functor]))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.startswith("D: ok")


@pytest.mark.parametrize("category,functor,message", FUNCTORS.values(),
                         ids=FUNCTORS.keys())
def test_functor_diagnostic(tmp_path, capsys, category, functor, message):
    path = write(tmp_path, category(functors=[dict(functor, name="F")]))
    assert main(["validate", path]) == 1
    assert f"functor F: {message}" in capsys.readouterr().out.splitlines()


def compose_entry(**changes):
    return [dict({"g": "x", "f": "x", "result": []}, **changes)]


# inputs of the wrong JSON shape, each refused as an input error (exit 2)
# before any work; functors are read by validate alone
MALFORMED = {
    "homs a number": (dual(homs=5), True),
    "compose a number": (dual(compose=5), True),
    "diff a number": (dual(diff=7), True),
    "units a list": (dual(units=["1"]), True),
    "unit a list": (dual(units={"*": ["1"]}), True),
    "object a list": (dual(objects=[["*"]]), True),
    "category name a list": (dual(name=["x"]), True),
    "compose name a list": (dual(compose=compose_entry(g=["x"])), True),
    "diff name a list": (dual(diff=[{"basis": ["x"], "result": []}]), True),
    # JSON numbers are read only when they are integers, never truncated
    "degree a fraction": (dual(homs=[hom("1"), hom("x", degree=2.5)]), True),
    "degree a boolean": (dual(homs=[hom("1"), hom("x", degree=True)]), True),
    "numerator a fraction": (
        dual(compose=compose_entry(result=term("x", 0.5))), True),
    "numerator a string": (
        dual(compose=compose_entry(result=term("x", "1"))), True),
    "denominator a fraction": (
        dual(compose=compose_entry(result=[{"basis": "x", "num": 1,
                                            "den": 0.5}])), True),
    "denominator zero": (
        dual(compose=compose_entry(result=[{"basis": "x", "num": 1,
                                            "den": 0}])), True),
    "functor coefficient a fraction": (
        dual(functors=[dict(GOOD_FUNCTOR[1],
                            hom_map={"1": term("1"), "x": term("x", 1.0)})]),
        False),
    "functors a number": (dual(functors=5), False),
    "obj_map a list": (dual(functors=[dict(GOOD_FUNCTOR[1],
                                           obj_map=[["*", "*"]])]), False),
    "hom_map a list": (dual(functors=[dict(GOOD_FUNCTOR[1],
                                           hom_map=[["1", []]])]), False),
    "functor name a list": (dual(functors=[dict(GOOD_FUNCTOR[1],
                                                name=["x"])]), False),
    # a definition given twice is refused, never overwritten by the last
    "hom defined twice": (
        dual(homs=[hom("1"), hom("x"), hom("x", degree=1)]), True),
    "compose pair given twice": (
        dual(compose=compose_entry(result=term("x")) + compose_entry()),
        True),
    "diff given twice": (
        square_zero(diff=[{"basis": "u", "result": term("v")},
                          {"basis": "u", "result": []}]), True),
    "basis twice in a combination": (
        dual(compose=compose_entry(result=term("x") + term("x", -1))), True),
    "basis twice in a functor combination": (
        dual(functors=[dict(GOOD_FUNCTOR[1],
                            hom_map={"1": term("1"),
                                     "x": term("x") + term("x")})]), False),
    "top-level key twice": (
        edited(dual(), '"name": "D"', '"name": "D", "name": "E"'), True),
    "unit key twice": (
        edited(dual(), '"units": {"*": "1"}', '"units": {"*": "1", "*": "x"}'),
        True),
    "functor map key twice": (
        edited(dual(functors=[GOOD_FUNCTOR[1]]), '"obj_map": {"*": "*"}',
               '"obj_map": {"*": "*", "*": "*"}'), True),
}


@pytest.mark.parametrize("data,computes", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_input_is_a_parse_error(tmp_path, capsys, data, computes):
    path = write(tmp_path, data)
    verbs = [["validate", path]]
    if computes:
        verbs.append(["compute", path, "--max-level", "1", "--degrees=0..0"])
    for argv in verbs:
        assert main(argv) == cli.EXIT_PARSE, argv
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert line.startswith("error: ")
        assert "Traceback" not in out.err


def test_malformed_functor_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, dual(functors=[{"obj_map": {"*": "*"}}]))
    assert main(["validate", path]) == cli.EXIT_PARSE == 2
    assert "bad functor entry" in capsys.readouterr().err
