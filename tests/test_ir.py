import random
import re

import pytest

from epathopt import (
    Block,
    BrIf,
    FuelExhausted,
    Function,
    Instruction,
    Jump,
    ParseError,
    Ret,
    Returned,
    interpret,
    parse_file,
    parse_function,
    print_function,
    validate,
    wrap64,
)
from conftest import argument_vectors, corpus_paths, golden
from generators import MUTATIONS, mutate, random_function
from oracles import brute_validate

IDENTITY = "func @id(v0) {\nb0(v0):\n  ret v0\n}"


def test_identity_print_golden():
    f = parse_function(IDENTITY)
    assert print_function(f) == IDENTITY


def test_parse_print_roundtrip_corpus():
    for path in corpus_paths():
        f = parse_function(path.read_text())
        reparsed = parse_function(print_function(f))
        assert reparsed == f, path.name


def test_print_idempotent_corpus():
    for path in corpus_paths():
        f = parse_function(path.read_text())
        once = print_function(f)
        assert print_function(parse_function(once)) == once, path.name


def test_sec2_print_matches_golden():
    f = parse_function((corpus_paths()[0].parent / "sec2_loop.ir").read_text())
    assert print_function(f) == golden("sec2_loop.txt")


def test_sec2_has_five_blocks_and_validates():
    f = parse_function(golden("sec2_loop.txt"))
    assert len(f.blocks) == 5
    assert validate(f) == []


def test_parse_file_multiple_functions():
    text = IDENTITY + "\n" + IDENTITY.replace("@id", "@id2")
    funcs = parse_file(text)
    assert [f.name for f in funcs] == ["id", "id2"]


def test_parse_comments_and_whitespace():
    text = "; leading comment\nfunc @f()   {\nb0():  ; block\n  ret\n}\n"
    f = parse_function(text)
    assert print_function(f) == "func @f() {\nb0():\n  ret\n}"


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("func @f() {\nb0():\n  retx\n}", "terminator", 3),
        ("func @f( {\nb0():\n  ret\n}", "value", 1),
        ("func @f() {\nb0():\n  v0 = bogus\n  ret\n}", "unknown opcode", 3),
        ("func @f() {\nb0():\n  v0 = iadd v1\n  ret\n}", "2 operands", 3),
        ("func @f() {\nb0():\n  v0 = iconst 1\n  ret v9\n}", "undefined value", 1),
        ("func @f(v0, v0) {\nb0(v0, v0):\n  ret\n}", "defined more than once", 1),
        ("func @f() {\nb0():\n  jump b7()\n}", "undefined block", 1),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(ParseError) as exc:
        parse_function(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as exc:
        parse_function("func @f() {\nb0():\n  v0 = iconst zz\n  ret\n}")
    assert exc.value.line == 3
    assert exc.value.col > 1


def test_validate_anf_violation_built_programmatically():
    two = (
        Instruction("iconst", 1, (), 1),
        Instruction("iconst", 2, (), 2),
    )
    f = Function("f", (0,), 0, (Block(0, (0,), two, Ret(())),))
    assert any("ANF: >1 instruction" in v for v in validate(f))


def test_validate_terminator_arity():
    blocks = (
        Block(0, (), (), Jump(1, ())),
        Block(1, (3,), (), Ret(())),
    )
    f = Function("f", (), 0, blocks)
    assert any("terminator arity" in v for v in validate(f))


def test_validate_brif_equal_targets_unequal_args():
    blocks = (
        Block(0, (0, 1), (), BrIf(0, 1, (0,), 1, (1,))),
        Block(1, (2,), (), Ret(())),
    )
    f = Function("f", (0, 1), 0, blocks)
    assert any("brif targets equal" in v for v in validate(f))


def test_validate_unreachable_and_entry_preds():
    blocks = (
        Block(0, (), (), Ret(())),
        Block(1, (), (), Jump(0, ())),
    )
    f = Function("f", (), 0, blocks)
    out = validate(f)
    assert any("unreachable" in v for v in out)
    assert any("has predecessors" in v for v in out)


def test_validate_use_not_dominated():
    # value defined on only one branch of a diamond, used at the merge
    blocks = (
        Block(0, (0,), (), BrIf(0, 1, (), 2, ())),
        Block(1, (), (Instruction("iconst", 1, (), 5),), Jump(3, ())),
        Block(2, (), (), Jump(3, ())),
        Block(3, (), (), Ret((1,))),
    )
    f = Function("f", (0,), 0, blocks)
    assert any("not dominated" in v for v in validate(f))


def test_validate_corpus_all_clean():
    for path in corpus_paths():
        assert validate(parse_function(path.read_text())) == [], path.name


def test_interpret_identity():
    f = parse_function(IDENTITY)
    assert interpret(f, [7], 10) == Returned((7,), ())


def test_interpret_bounded_loop_hand_trace():
    f = parse_function((corpus_paths()[0].parent / "sec2_loop_bounded.ir").read_text())
    # climbs by one per iteration until the header check fails at 10
    assert interpret(f, [0], 1000) == Returned((10,), ())
    assert interpret(f, [7], 1000) == Returned((10,), ())
    assert interpret(f, [50], 1000) == Returned((50,), ())


def test_interpret_unbounded_loop_exhausts_fuel():
    f = parse_function((corpus_paths()[0].parent / "sec2_loop.ir").read_text())
    assert interpret(f, [0], 100) == FuelExhausted()


def test_interpret_effect_order_hand_trace():
    f = parse_function((corpus_paths()[0].parent / "loop_sideeffect.ir").read_text())
    expected = Returned((1,), (("eff", 5), ("eff", 4), ("eff", 3), ("eff", 2)))
    assert interpret(f, [5], 1000) == expected


def test_interpret_wrapping_arithmetic():
    text = (
        "func @w() {\nb0():\n  v0 = iconst 9223372036854775807\n  jump b1()\n"
        "b1():\n  v1 = iconst 1\n  jump b2()\nb2():\n  v2 = iadd v0, v1\n  ret v2\n}"
    )
    f = parse_function(text)
    assert interpret(f, [], 10) == Returned((-(1 << 63),), ())


def test_interpret_arity_and_fuel_errors():
    f = parse_function(IDENTITY)
    with pytest.raises(ValueError):
        interpret(f, [], 10)
    with pytest.raises(ValueError):
        interpret(f, [1], 0)


def test_interpret_deterministic():
    f = parse_function((corpus_paths()[0].parent / "loop_conditional_body.ir").read_text())
    for vector in argument_vectors(1, count=4):
        assert interpret(f, vector, 500) == interpret(f, vector, 500)


def test_wrap64_bounds():
    assert wrap64((1 << 63)) == -(1 << 63)
    assert wrap64(-(1 << 63) - 1) == (1 << 63) - 1
    assert wrap64(42) == 42


def test_validation_soundness_fuzz():
    # random valid functions interpret without hitting undefined values
    rng = random.Random(7)
    for _ in range(60):
        f = random_function(rng)
        assert validate(f) == []
        for vector in argument_vectors(len(f.params), count=3):
            interpret(f, vector, 200)


def _validate_findings(violations):
    """`validate`'s use, reachability and entry findings, in the oracle's terms."""
    use = re.compile(r"b(\d+): use of (undefined value )?v(\d+)( not dominated by its definition)?")
    flagged, unreachable, entry_preds = set(), set(), False
    for v in violations:
        if m := use.fullmatch(v):
            flagged.add((int(m[1]), int(m[3]), m[2] is not None))
        elif m := re.fullmatch(r"b(\d+): unreachable", v):
            unreachable.add(int(m[1]))
        elif re.fullmatch(r"entry block b\d+ has predecessors", v):
            entry_preds = True
    return flagged, unreachable, entry_preds


def test_validate_matches_graph_search_oracle_on_mutants():
    rng = random.Random(0x5EED)
    seen = {"flagged": 0, "undefined": 0, "unreachable": 0, "entry_preds": 0}
    for i in range(2400):
        f = random_function(rng, max_blocks=12)
        for _ in range(rng.randint(1, 2)):
            f = mutate(rng, f, rng.choice(MUTATIONS))
        violations = validate(f)
        assert not any("undefined block" in v for v in violations), violations
        expected = brute_validate(f)
        assert _validate_findings(violations) == expected, (i, print_function(f), violations)
        flagged, unreachable, entry_preds = expected
        seen["flagged"] += any(not undefined for _, _, undefined in flagged)
        seen["undefined"] += any(undefined for _, _, undefined in flagged)
        seen["unreachable"] += bool(unreachable)
        seen["entry_preds"] += entry_preds
    assert min(seen.values()) >= 50, seen
