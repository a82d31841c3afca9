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
    to_function,
    validate,
    wrap64,
)
from epathopt import ir
from conftest import CORPUS_DIR, argument_vectors, closure, corpus_paths, golden, load_corpus
from generators import MUTATIONS, fold_function, mutate, random_function
from oracles import (
    brute_interpret,
    brute_validate,
    defined_by,
    reference_find_violations,
    reference_must_dataflow,
)

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
        ("func @f() {\nb0():\n  v0 = iconst 1\n  ret v9\n}", "undefined value", 2),
        ("func @f(v0, v0) {\nb0(v0, v0):\n  ret\n}", "defined more than once", 1),
        ("func @f() {\nb0():\n  jump b7()\n}", "undefined block", 2),
        # Irreducible, with v1 defined in b2: one pass over the reverse
        # postorder takes b3, also entered from b6, to be reached only via b2.
        (
            "func @f(v0) {\nb0(v0):\n  brif v0, b1(), b2()\nb1():\n  jump b4()\n"
            "b2():\n  v1 = iconst 1\n  jump b3()\nb3():\n  v2 = iadd v1, v0\n"
            "  jump b5()\nb4():\n  jump b5()\nb5():\n  brif v0, b4(), b6()\n"
            "b6():\n  brif v0, b3(), b7()\nb7():\n  ret v0\n}",
            "b3: use of v1 not dominated",
            9,
        ),
        (IDENTITY + "\n\n" + IDENTITY, "duplicate function name @id", 6),
        # Digits that str.isdigit accepts but int() rejects.
        ("func @f() {\nb0():\n  v0 = iconst \u00b2\n  ret\n}", "expected integer", 3),
        ("func @f(v\u00b9) {\nb0(v\u00b9):\n  ret\n}", "expected value", 1),
        ("func @f() {\nb\u00b2():\n  ret\n}", "expected block", 2),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(ParseError) as exc:
        parse_function(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        ("func @f(v0, v1) {\nb0(v0, v1):\n  ret v0 v1\n}", "trailing input: 'v1'", 3, 10),
        ("func @f() {\nb0()\n  ret\n}", "expected ':'", 2, 5),
        # An instruction's shape is judged by `Instruction`, at the opcode.
        ("func @f() {\nb0():\n  v0 = bogus v1\n  ret\n}", "unknown opcode 'bogus'", 3, 8),
        ("func @f() {\nb0():\n  v0 =\tiadd v1\n  ret\n}", "iadd expects 2 operands, got 1", 3, 8),
        ("func @() {\nb0():\n  ret\n}", "expected identifier", 1, 7),
        (
            "func @f() {\nb0():",
            "unexpected end of input, expected instruction or terminator",
            2,
            1,
        ),
        ("func @f() {\n}", "function has no blocks", 1, 1),
        (
            "func @f() {\nb0():\n  v0 = iconst 9223372036854775808\n  ret v0\n}",
            "iconst immediate out of 64-bit range",
            3,
            34,
        ),
        ("", "no functions found", 1, 1),
        ("; only a comment\n\n   ; another\n", "no functions found", 1, 1),
        (
            IDENTITY + "\n" + IDENTITY.replace("@id", "@id2"),
            "expected exactly one function, found 2",
            1,
            1,
        ),
        # A violation inside a block is located at the block's header line;
        # one of the whole function at the function's.
        (
            "func @f() {\nb0():\n  jump b1()\nb1():\n  ret v9\n}",
            "invalid function @f: b1: use of undefined value v9",
            4,
            1,
        ),
        (
            "func @f(v0) {\nb0():\n  ret\n}",
            "invalid function @f: function params differ from entry block params",
            1,
            1,
        ),
        # Only ASCII digits: str.isdecimal also accepts "\u0661" and "\u0660"
        # (Arabic-Indic one and zero).
        ("func @f(v\u0661) {\nb0(v\u0661):\n  ret\n}", "expected value (vN)", 1, 9),
        ("func @f() {\nb\u0661():\n  ret\n}", "expected block (bN)", 2, 1),
        (
            "func @f() {\nb0():\n  v0 = iconst -\u0661\u0660\n  ret v0\n}",
            "expected integer",
            3,
            16,
        ),
    ],
)
def test_parse_error_triples(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_function(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


# The characters other than "\n" and "\r" that str.splitlines breaks at.
NON_NEWLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NON_NEWLINE_BREAKS)
def test_only_newlines_end_a_line(sep):
    # A line holding only such a character is blank and shifts no line number.
    with pytest.raises(ParseError) as exc:
        parse_function(f"{sep}\nfunc @f() {{\nb0():\n  retx\n}}")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "expected terminator, got 'retx'",
        4,
        7,
    )
    # Inside a line it is an ordinary character, not a line break.
    with pytest.raises(ParseError) as exc:
        parse_function(f"func @f() {{\nb0():{sep}  ret\n}}")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        f"trailing input: {sep + '  ret'!r}",
        2,
        6,
    )


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_end_lines(newline):
    text = IDENTITY + "\n; two functions\n" + IDENTITY.replace("@id", "@id2")
    assert parse_file(text.replace("\n", newline)) == parse_file(text)
    with pytest.raises(ParseError) as exc:
        parse_function("func @f() {\nb0():\n\n  retx\n}".replace("\n", newline))
    assert (exc.value.line, exc.value.col) == (4, 7)


# Characters, tokens and awkward digits that mutations splice into inputs;
# form feeds are weighted up.
MUTATION_ALPHABET = [
    " ", "\t", "\n", "\r", "\r\n", *NON_NEWLINE_BREAKS, "\x0c", "\x0c", "\xa0",
    ";", ",", "(", ")", ":", "=", "@", "{", "}", "-", "_", "v", "b", "0", "7",
    "func", "iconst", "iadd", "jump", "brif", "ret", "\u00b2", "\u0663", "\uff56",
    "9223372036854775808", "-9223372036854775809",
]


def _mutated_texts(rng, count):
    """`count` corpus and `random_function` texts, each with one to three
    characters deleted, inserted or substituted from MUTATION_ALPHABET."""
    texts = [p.read_text() for p in corpus_paths()]
    texts += [print_function(random_function(rng, max_blocks=12, name=f"m{i}")) for i in range(100)]
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i, kind = rng.randrange(len(text) + 1), rng.random()
            rest = text[i + 1 :] if kind < 0.6 else text[i:]
            middle = "" if kind < 0.3 else rng.choice(MUTATION_ALPHABET)
            text = text[:i] + middle + rest
        yield text


def test_parse_errors_point_into_the_input():
    rng = random.Random(0x11E5)
    seen = {"parsed": 0, "failed": 0, "failed_after_a_break": 0}
    for text in _mutated_texts(rng, 5000):
        # Anything but a ParseError escapes and fails the test.
        try:
            parse_file(text)
        except ParseError as error:
            physical = re.split(r"\r\n|\r|\n", text)  # [""] for an empty text
            assert 1 <= error.line <= len(physical), (text, error)
            assert 1 <= error.col <= len(physical[error.line - 1]) + 1, (text, error)
            seen["failed"] += 1
            before = "".join(physical[: error.line])
            seen["failed_after_a_break"] += any(sep in before for sep in NON_NEWLINE_BREAKS)
        else:
            seen["parsed"] += 1
    assert seen["parsed"] >= 150 and seen["failed_after_a_break"] >= 500, seen


# What one-character edits splice in where the line patterns and the scanner
# must agree: ASCII digits, an Arabic-Indic one, "_", signs, a tab, a
# no-break space and the punctuation of the grammar.
EDIT_ALPHABET = [*"0123456789", "\u0661", "_", "+", "-", "\t", "\xa0", ";", "(", ")", ",", "}"]

# Spellings the scanner accepts and the patterns leave to it.
SCANNER_ONLY = [
    "func @f() {\nb0():\n  v0 = iconst-5\n  ret v0\n}",
    # More digits than a pattern takes, all but one of them leading zeros.
    "func @f(v" + "0" * 700 + "1) {\nb0(v1):\n  ret v1\n}",
    "func @f\u0661() {\nb0():\n  ret\n}",
    "func @\u00e9t\u00e9(v0) {\nb0(v0):\n  ret v0\n}",
]

# Instructions at the edges of the patterns: the 64-bit bounds, awkward
# digits and signs, and wrong operand counts.
EDGE_INSTRUCTIONS = [
    "iconst 9223372036854775807", "iconst -9223372036854775808", "iconst 9223372036854775808",
    "iconst -9223372036854775809", "iconst \u0661", "iconst 1\u0660", "iconst +1", "iconst 007",
    "iconst - 1", "iconst\t-1", "iconst", "sideeffect v0, v0", "sideeffect", "iadd v0",
    "iadd v0, v0, v0", "icmp_slt v0,v0", "imul v0 ,\tv0",
    # Past the digits a pattern takes: leading zeros do not count, more digits
    # are out of range.
    "iconst " + "0" * 5000 + "7", "iconst -" + "0" * 5000 + "7", "iconst " + "9" * 5000,
]


LONG = "1" * 5000


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        (f"func @f(v{LONG}) {{\nb0():\n  ret\n}}", "value (vN) too long", 1, 9),
        (f"func @f() {{\nb{LONG}():\n  ret\n}}", "block (bN) too long", 2, 1),
        (f"func @f() {{\nb0():\n  v{LONG} = iconst 1\n  ret\n}}", "value (vN) too long", 3, 3),
        (f"func @f() {{\nb0():\n  jump b{LONG}()\n}}", "block (bN) too long", 3, 8),
        (f"func @f() {{\nb0():\n  ret v1, v{LONG}\n}}", "value (vN) too long", 3, 11),
        (
            f"func @f() {{\nb0():\n  v0 = iconst -{LONG}\n  ret v0\n}}",
            "iconst immediate out of 64-bit range", 3, 5016,
        ),
    ],
    ids=["param", "label", "result", "target", "operand", "immediate"],
)
def test_an_integer_too_long_to_convert_is_a_located_error(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_file(text)
    assert exc.value.message.startswith(message)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_leading_zeros_do_not_count_toward_an_integers_length():
    zeros = "0" * 5000
    f = parse_function(
        f"func @f(v{zeros}0) {{\nb{zeros}3(v0):\n  v{zeros}1 = iconst -{zeros}7\n"
        f"  jump b{zeros}4(v1)\nb4(v2):\n  ret v2\n}}"
    )
    assert print_function(f) == (
        "func @f(v0) {\nb3(v0):\n  v1 = iconst -7\n  jump b4(v1)\nb4(v2):\n  ret v2\n}"
    )
    assert ir.parse_integer(zeros + "12") == 12
    assert ir.parse_integer("-" + "9" * 640) == -int("9" * 640)
    with pytest.raises(ValueError, match="^integer has 641 digits, more than 640$"):
        ir.parse_integer(zeros + "9" * 641)


def _edited(rng, text):
    """`text` with one character deleted, inserted or substituted."""
    i, kind = rng.randrange(len(text) + 1), rng.randrange(3)
    middle = "" if kind == 0 else rng.choice(EDIT_ALPHABET)
    return text[:i] + middle + text[i + (kind != 1) :]


def _outcome(text):
    """The functions parsed from `text`, or its error's message, line and column."""
    try:
        return parse_file(text)
    except ParseError as error:
        return error.message, error.line, error.col


def test_line_patterns_agree_with_the_scanner(monkeypatch):
    rng = random.Random(0x5CA9)
    texts = [p.read_text() for p in corpus_paths() + sorted((CORPUS_DIR / "reject").glob("*.ir"))]
    texts += [print_function(random_function(rng, max_blocks=12, name=f"d{i}")) for i in range(300)]
    texts += [_edited(rng, text) for text in texts for _ in range(4)]
    texts += [f"func @e(v0) {{\nb0(v0):\n  v1 = {i}\n  ret v1\n}}" for i in EDGE_INSTRUCTIONS]
    texts += [*_mutated_texts(rng, 1500), *SCANNER_ONLY]
    with_patterns = list(map(_outcome, texts))
    patterns = [name for name, value in vars(ir).items() if isinstance(value, re.Pattern)]
    assert len(patterns) >= 7, patterns
    for name in patterns:
        monkeypatch.setattr(ir, name, re.compile("(?!)"))  # matches nothing
    for text, outcome in zip(texts, with_patterns):
        assert _outcome(text) == outcome, text
    parsed = sum(isinstance(outcome, list) for outcome in with_patterns)
    assert 400 <= parsed <= len(texts) - 1500, parsed
    assert all(isinstance(outcome, list) for outcome in with_patterns[-len(SCANNER_ONLY) :])


@pytest.fixture
def scanned(monkeypatch):
    """The lines `parse_file` hands to `_LineScanner`, in order."""
    lines = []

    class CountedScanner(ir._LineScanner):
        def __init__(self, line_no, text):
            lines.append(text)
            super().__init__(line_no, text)

    monkeypatch.setattr(ir, "_LineScanner", CountedScanner)
    return lines


def test_every_scanner_only_spelling_reaches_the_scanner(scanned):
    for text in SCANNER_ONLY:
        scanned.clear()
        parse_file(text)
        assert scanned, text


def test_printed_functions_parse_without_the_scanner(scanned, corpus):
    # Every line `print_function` writes for an ASCII-named function has a
    # pattern; a typo in one would send its lines back to the scanner and
    # lose the speed with every other test still passing.
    rng = random.Random(0x6A7D)
    functions = list(corpus.values())
    functions += [random_function(rng, max_blocks=12, name=f"g{i}") for i in range(200)]
    for f in functions:
        assert parse_function(print_function(f)) == f
    assert scanned == []
    with pytest.raises(ParseError):
        parse_function("func @f() {\nb0():\n  retx\n}")
    assert scanned == ["  retx"]


def test_parse_print_roundtrip_random_functions():
    rng = random.Random(0x2071)
    for i in range(200):
        f = random_function(rng, max_blocks=12, name=f"r{i}")
        text = print_function(f)
        assert parse_function(text) == f, text
        assert print_function(parse_function(text)) == text


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as exc:
        parse_function("func @f() {\nb0():\n  v0 = iconst zz\n  ret\n}")
    assert exc.value.line == 3
    assert exc.value.col > 1


def test_a_second_instruction_in_a_block_is_a_located_parse_error():
    # The grammar admits at most one instruction per block, which is why
    # `Block` holds one instruction or None.
    text = "func @f() {\nb0():\n  v0 = iconst 1\n  v1 = iconst 2\n  ret v1\n}"
    with pytest.raises(ParseError) as exc:
        parse_function(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "expected terminator, got 'v1'", 4, 5
    )


def test_validate_terminator_arity():
    blocks = (
        Block(0, (), None, Jump(1, ())),
        Block(1, (3,), None, Ret(())),
    )
    f = Function("f", (), 0, blocks)
    assert any("terminator arity" in v for v in validate(f))


def test_validate_brif_equal_targets_unequal_args():
    blocks = (
        Block(0, (0, 1), None, BrIf(0, 1, (0,), 1, (1,))),
        Block(1, (2,), None, Ret(())),
    )
    f = Function("f", (0, 1), 0, blocks)
    assert any("brif targets equal" in v for v in validate(f))
    # One target with the same args on both branches is allowed.
    same = Function("f", (0, 1), 0, (Block(0, (0, 1), None, BrIf(0, 1, (0,), 1, (0,))), blocks[1]))
    assert validate(same) == []


def test_validate_unreachable_and_entry_preds():
    blocks = (
        Block(0, (), None, Ret(())),
        Block(1, (), None, Jump(0, ())),
    )
    f = Function("f", (), 0, blocks)
    out = validate(f)
    assert any("unreachable" in v for v in out)
    assert any("has predecessors" in v for v in out)


def test_validate_use_not_dominated():
    # value defined on only one branch of a diamond, used at the merge
    blocks = (
        Block(0, (0,), None, BrIf(0, 1, (), 2, ())),
        Block(1, (), Instruction("iconst", 1, (), 5), Jump(3, ())),
        Block(2, (), None, Jump(3, ())),
        Block(3, (), None, Ret((1,))),
    )
    f = Function("f", (0,), 0, blocks)
    assert any("not dominated" in v for v in validate(f))


@pytest.mark.parametrize(
    "params,block,violation",
    [
        ((), Block(-1, (), None, Ret(())), "negative block id"),
        ((0,), Block(0, (), None, Ret(())), "function params differ from entry block params"),
        ((-1,), Block(0, (-1,), None, Ret((-1,))), "negative value id"),
    ],
)
def test_validate_flags_malformed_built_functions(params, block, violation):
    f = Function("f", params, block.id, (block,))
    assert validate(f) == [violation]


@pytest.mark.parametrize(
    "fields,message",
    [
        (("bogus", 0), "unknown opcode 'bogus'"),
        (("iadd", 1, (0,)), "iadd expects 2 operands, got 1"),
        (("iconst", 0), "iconst without immediate"),
        (("iconst", 0, (), 1 << 63), "iconst immediate out of 64-bit range"),
        (("iadd", 1, (0, 0), 5), "iadd carries an immediate"),
    ],
)
def test_instruction_refuses_a_malformed_shape_when_built(fields, message):
    # An instruction is well-formed by its type, so `validate` has no shape
    # rule: no malformed instruction reaches a block.
    with pytest.raises(ValueError) as exc:
        Instruction(*fields)
    assert str(exc.value) == message


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


def _random_fuel(rng):
    return rng.randint(1, 12) if rng.random() < 0.4 else rng.randint(1, 1000)


def test_interpret_matches_plain_walk_oracle():
    rng = random.Random(0x1E7)
    functions = list(load_corpus().values())
    functions += [random_function(rng, max_blocks=12, name=f"r{i}") for i in range(200)]
    seen = {"returned": 0, "exhausted": 0, "small_fuel": 0}
    for f in functions:
        for s in closure(f):
            g = to_function(s, f.name)
            for _ in range(3):
                args = [rng.randint(-60, 60) for _ in g.params]
                fuel = _random_fuel(rng)
                expected = brute_interpret(g, args, fuel)
                assert interpret(g, args, fuel) == expected, (print_function(g), args, fuel)
                seen["returned" if isinstance(expected, Returned) else "exhausted"] += 1
                seen["small_fuel"] += fuel <= 12
    assert min(seen.values()) >= 100, seen


SPIN = "func @spin() {\nb0():\n  jump b1()\nb1():\n  v0 = iconst 1\n  jump b1()\n}"
# v1 alternates 7, -7, 7, ...: the state repeats every two blocks.
FLIP = (
    "func @flip(v0) {\nb0(v0):\n  jump b1(v0)\nb1(v1):\n  v2 = iconst 0\n  jump b2()\n"
    "b2():\n  v3 = isub v2, v1\n  jump b1(v3)\n}"
)


@pytest.mark.parametrize("text,args", [(SPIN, []), (FLIP, [7])])
def test_interpret_stops_a_run_at_a_repeated_state(monkeypatch, text, args):
    f = parse_function(text)
    steps = []
    step = ir._step
    monkeypatch.setattr(ir, "_step", lambda *a: steps.append(1) or step(*a))
    assert interpret(f, args, 10**6) == FuelExhausted()
    # every block but the entry runs one instruction, so this counts blocks
    assert 0 < len(steps) <= 8, len(steps)


def test_interpret_agrees_with_oracle_at_every_fuel_when_no_state_repeats():
    corpus = load_corpus()
    bounded = corpus["sec2_loop_bounded.ir"]
    fuel = 1
    while isinstance(expected := brute_interpret(bounded, [0], fuel), FuelExhausted):
        assert interpret(bounded, [0], fuel) == expected, fuel
        fuel += 1
    assert interpret(bounded, [0], fuel) == expected == Returned((10,), ())
    assert fuel > 20

    unbounded = corpus["sec2_loop.ir"]
    for fuel in range(1, 201):
        assert interpret(unbounded, [0], fuel) == brute_interpret(unbounded, [0], fuel)


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


def _validate_mutants():
    """The inputs of `test_validate_matches_graph_search_oracle_on_mutants`:
    the same seed, drawn in the same order."""
    rng = random.Random(0x5EED)
    for _ in range(2400):
        f = random_function(rng, max_blocks=12)
        for _ in range(rng.randint(1, 2)):
            f = mutate(rng, f, rng.choice(MUTATIONS))
        yield f


def _gens(f):
    """Two gen maps over the blocks `f` reaches: block gens (bit i for
    `f.rpo[i]`) and value gens (a bit per value in definition order, one
    bit for a value defined more than once)."""
    bit = {}
    for b in f.blocks:
        for v in defined_by(b):
            bit.setdefault(v, 1 << len(bit))
    values = {bid: sum({bit[v] for v in defined_by(f.block(bid))}) for bid in f.rpo}
    return {bid: 1 << i for i, bid in enumerate(f.rpo)}, values


def test_must_dataflow_matches_the_reference_solver():
    functions = list(load_corpus().values()) + list(_validate_mutants())
    assert len(functions) > 2400
    for f in functions:
        for gen in _gens(f):
            assert ir.must_dataflow(f, gen) == reference_must_dataflow(f, gen), print_function(f)


def test_must_dataflow_reads_an_acyclic_function_once_per_block(monkeypatch):
    functions = list(load_corpus().values()) + [fold_function(random.Random(s)) for s in range(50)]
    calls = []
    successors = ir.successors
    monkeypatch.setattr(ir, "successors", lambda f, bid: calls.append(bid) or successors(f, bid))
    acyclic = 0
    for f in functions:
        index = {bid: i for i, bid in enumerate(f.rpo)}
        if any(index[t] <= index[bid] for bid in f.rpo for t in successors(f, bid)):
            continue
        for gen in _gens(f):
            calls.clear()
            ir.must_dataflow(f, gen)
            assert calls == f.rpo, print_function(f)
        acyclic += 1
    assert acyclic >= 20


def test_validate_names_each_duplicate_block_id_once():
    ret = Block(0, (), None, Ret(()))
    blocks = [ret, Block(2, (), None, Ret(())), Block(1, (), None, Ret(()))]
    blocks += [Block(1, (), None, Ret(())), Block(2, (), None, Ret(()))]
    blocks += [Block(2, (), None, Ret(()))]
    f = Function("f", (), 0, tuple(blocks))
    assert validate(f) == ["duplicate block id b1", "duplicate block id b2"]


def _malformed_graphs():
    """Built functions whose check stops early, or that break several rules
    at once, so that the order of the messages shows."""
    ret = Block(0, (), None, Ret(()))
    mixed = (
        Block(0, (0, 1), None, BrIf(0, 2, (0,), 2, (1,))),
        Block(2, (3,), Instruction("iadd", 3, (4, 1)), Jump(0, ())),
        Block(1, (), Instruction("iconst", 1, (), 7), Jump(5, (3,))),
        Block(5, (), Instruction("imul", 6, (6, 0)), Ret((1, 6))),
    )
    return [
        Function("f", (), 0, (Block(0, (), None, Jump(7, ())),)),
        Function("f", (), 0, (ret, Block(1, (), None, BrIf(0, 9, (), 1, (2,))))),
        Function("f", (), 3, (ret,)),
        Function("f", (), 0, (ret, Block(-2, (), None, Ret(())), ret)),
        Function("f", (0,), 0, mixed),
        Function("f", (0, 1), 0, mixed[:2] + (Block(1, (), None, Jump(2, ())),) + mixed[3:]),
    ]


def test_find_violations_equals_the_reference_checker(saturated):
    # The one-walk checker against the scans it replaced: the same messages,
    # in the same order, and the same dominator positions.
    rng = random.Random(0xC4EC)
    functions = list(load_corpus().values()) + _malformed_graphs()
    functions += [s.function for _, path in saturated.values() for s in path.variants()]
    for seed in range(2000):
        f = random_function(random.Random(seed), max_blocks=12)
        functions += [mutate(rng, f, kind) for kind in MUTATIONS]
    flagged = 0
    for f in functions:
        expected = reference_find_violations(f)
        assert ir._find_violations(f) == expected, print_function(f)
        flagged += bool(expected[0])
    assert flagged >= 4000, flagged


def test_retarget_rewrites_only_the_edges_it_is_given():
    def into_b9(target, args):
        # The rules' edit: send the edges into b1 to b9, dropping their args.
        return (9, ()) if target == 1 else (target, args)

    assert ir.retarget(Jump(1, (0,)), into_b9) == Jump(9, ())
    assert ir.retarget(Jump(2, (0,)), into_b9) == Jump(2, (0,))
    assert ir.retarget(BrIf(0, 2, (0,), 1, (0,)), into_b9) == BrIf(0, 2, (0,), 9, ())
    assert ir.retarget(BrIf(0, 1, (), 1, ()), into_b9) == BrIf(0, 9, (), 9, ())
    assert ir.retarget(Ret((0,)), into_b9) == Ret((0,))
    # Renaming: `value` renames the condition and the returned values, not
    # the args, which belong to the edges.
    rename = {0: 5, 1: 6}.__getitem__
    assert ir.retarget(BrIf(0, 2, (1,), 1, ()), into_b9, rename) == BrIf(5, 2, (1,), 9, ())
    assert ir.retarget(Ret((1, 0)), into_b9, rename) == Ret((6, 5))


def test_remap_block_with_identity_maps_returns_an_equal_block():
    rng = random.Random(0x1D)
    functions = list(load_corpus().values())
    functions += [random_function(rng, max_blocks=12) for _ in range(200)]
    for f in functions:
        values = {v: v for b in f.blocks for v in defined_by(b)}
        blocks = {b.id: b.id for b in f.blocks}
        for b in f.blocks:
            assert ir.remap_block(b, values, blocks) == b, (f.name, b)
