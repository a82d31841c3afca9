import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from epathopt import (
    FuelExhausted,
    IrreducibleError,
    find_back_edges,
    from_function,
    interpret,
    parse_file,
    parse_function,
    print_function,
    validate,
)
from epathopt.cli import main
from epathopt.rewrite import apply_broken, rules_named
from conftest import CORPUS_DIR, golden
from generators import irreducible_function, random_function
from oracles import audit_saturation

SEC2 = str(CORPUS_DIR / "sec2_loop.ir")
BOUNDED = str(CORPUS_DIR / "sec2_loop_bounded.ir")
CONSTS = str(CORPUS_DIR / "straightline_consts.ir")
IRREDUCIBLE = str(CORPUS_DIR / "reject" / "irreducible.ir")
IDENTITY = str(CORPUS_DIR / "identity.ir")
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_opt_sec2_licm_golden(capsys):
    code, out, err = run(capsys, ["opt", SEC2, "--rules", "licm"])
    assert code == 0 and err == ""
    assert out == golden("sec2_loop_licm.txt") + "\n"


def test_opt_constfold_straight_line(capsys):
    code, out, _ = run(capsys, ["opt", CONSTS, "--rules", "constfold"])
    assert code == 0
    assert out == golden("straightline_consts_fold.txt") + "\n"


def test_opt_dump_variants_shows_both(capsys):
    code, out, _ = run(capsys, ["opt", SEC2, "--rules", "licm", "--dump-variants"])
    assert code == 0
    headers = [l for l in out.splitlines() if l.startswith("; variant ")]
    assert len(headers) == 2
    assert "cost 1N^1 + 2" in headers[0]
    assert "cost 3N^1" in headers[1]


def test_opt_trace_lines(capsys):
    code, out, _ = run(capsys, ["opt", SEC2, "--rules", "licm", "--trace"])
    assert code == 0
    trace = [l for l in out.splitlines() if re.fullmatch(r"licm: [0-9a-f]{16} -> [0-9a-f]{16}", l)]
    assert len(trace) == 1


def test_opt_emit_dot(capsys):
    code, out, _ = run(capsys, ["opt", SEC2, "--rules", "licm", "--emit", "dot"])
    assert code == 0
    assert out.startswith('digraph "sec2" {')
    assert "iconst 42" in out


def test_opt_deterministic(capsys):
    argv = ["opt", SEC2, "--dump-variants", "--trace"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_opt_output_reparses_and_revalidates(capsys):
    for name in ("sec2_loop.ir", "nested_loops.ir", "diamond_consts.ir"):
        code, out, _ = run(capsys, ["opt", str(CORPUS_DIR / name)])
        assert code == 0
        f = parse_function(out)
        assert validate(f) == []


# Both constants feed only the loop's `isub`, so folding it finds the entry
# `b0` and the loop header `b1` dead. Splicing both would make the entry `b2`,
# which then branches back to itself.
ENTRY_ONTO_LOOP = """\
func @f() {
b0():
  v0 = iconst 2
  jump b1()
b1():
  v1 = iconst 2
  jump b2()
b2():
  v2 = isub v0, v1
  brif v2, b1(), b3()
b3():
  ret v2
}
"""


def test_a_fold_never_splices_the_entry_onto_a_block_with_predecessors(capsys, tmp_path):
    path = tmp_path / "entry.ir"
    path.write_text(ENTRY_ONTO_LOOP)
    code, out, err = run(capsys, ["opt", str(path)])
    assert code == 0 and err == ""
    assert validate(parse_function(out)) == []
    code, out, err = run(capsys, ["check", str(path), "--fuel", "50"])
    assert (code, out, err) == (0, "@f: 5 variants agree\n", "")
    problems, report = audit_saturation(
        from_function(parse_function(ENTRY_ONTO_LOOP)), rules_named(["licm", "constfold"])
    )
    assert problems == [] and report.inserted == 4, problems


def test_opt_checks_each_function_once(monkeypatch, capsys):
    # The parser checks the function it returns; saturation must not check
    # that seed again, only each new variant.
    import epathopt.ir as ir

    checked = []
    check = ir._find_violations

    def counted(f):
        checked.append(f.name)
        return check(f)

    monkeypatch.setattr(ir, "_find_violations", counted)
    code, out, _ = run(capsys, ["opt", str(CORPUS_DIR / "two_loops.ir"), "--dump-variants"])
    assert code == 0 and out.count("; variant ") == 4
    assert checked == ["twoloops", "s", "s", "s"]


def test_opt_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.ir"
    bad.write_text("func @f() {\nb0():\n  retx\n}\n")
    code, out, err = run(capsys, ["opt", str(bad)])
    assert code == 1
    assert "error" in err


def test_opt_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, ["opt", str(tmp_path / "nope.ir")])
    assert code == 1
    assert err


def test_opt_irreducible_exit_2(capsys):
    code, out, err = run(capsys, ["opt", IRREDUCIBLE])
    assert code == 2
    assert "retreating edge" in err and "b2 -> b1" in err


@pytest.mark.parametrize("command", ["opt", "check"])
def test_generated_irreducible_function_exits_2_naming_its_edge(capsys, tmp_path, command):
    rng = random.Random(0x1AA)
    for i in range(20):
        f = irreducible_function(rng, name=f"irr{i}")
        path = tmp_path / f"{f.name}.ir"
        path.write_text(print_function(f) + "\n")
        with pytest.raises(IrreducibleError) as expected:
            find_back_edges(f)
        argv = [command, str(path)]
        if command == "check":
            argv += ["--args", ",".join("1" for _ in f.params)]
        assert run(capsys, argv) == (2, "", f"epath-opt: error: @{f.name}: {expected.value}\n")


def test_opt_unknown_rule_exit_2(capsys):
    code, _, err = run(capsys, ["opt", SEC2, "--rules", "licm,zap"])
    assert code == 2
    assert "unknown rules" in err


def test_opt_cost_table_flag(capsys, tmp_path):
    # make constants free: hoisting stops mattering, smaller text wins ties
    table = tmp_path / "costs.txt"
    table.write_text("iconst = 0\n")
    code, out, _ = run(capsys, ["opt", SEC2, "--rules", "licm", "--cost-table", str(table)])
    assert code == 0
    code2, out2, _ = run(capsys, ["opt", SEC2, "--rules", "licm"])
    assert code2 == 0
    assert out != "" and out2 != ""


def test_opt_bad_cost_table_exit_2(capsys, tmp_path):
    table = tmp_path / "costs.txt"
    table.write_text("widget = 1\n")
    code, _, err = run(capsys, ["opt", SEC2, "--cost-table", str(table)])
    assert code == 2
    assert "unknown opcode" in err


def test_opt_cost_table_errors_are_located(capsys, tmp_path):
    table = tmp_path / "costs.txt"
    table.write_text("imul = 2\niadd = -3\n")
    assert run(capsys, ["opt", SEC2, "--cost-table", str(table)]) == (
        2, "", "epath-opt: error: cost table: line 2: costs must be nonnegative\n"
    )
    table.write_bytes(b"iadd = 1\n\xff\n")
    assert run(capsys, ["opt", SEC2, "--cost-table", str(table)]) == (
        2,
        "",
        f"epath-opt: error: cost table: {table}: 'utf-8' codec can't decode byte 0xff "
        "in position 9: invalid start byte\n",
    )


def test_opt_multi_function_file(capsys, tmp_path):
    multi = tmp_path / "multi.ir"
    multi.write_text(
        "func @a(v0) {\nb0(v0):\n  ret v0\n}\nfunc @b() {\nb0():\n  ret\n}\n"
    )
    code, out, _ = run(capsys, ["opt", str(multi)])
    assert code == 0
    funcs = parse_file(out)
    assert [f.name for f in funcs] == ["a", "b"]


def test_check_bounded_loop_agrees(capsys):
    code, out, err = run(capsys, ["check", BOUNDED, "--args", "0", "--fuel", "1000"])
    assert code == 0
    assert "variants agree" in out


def test_check_broken_rule_caught(capsys):
    code, out, _ = run(capsys, ["check", CONSTS, "--rules", "broken"])
    assert code == 1
    assert "mismatch" in out
    assert len(re.findall(r"[0-9a-f]{16}", out)) >= 2


def test_check_fuel_one_uniform_exhaustion(capsys):
    code, out, _ = run(capsys, ["check", SEC2, "--args", "0", "--fuel", "1"])
    assert code == 0


def test_check_arity_mismatch_exit_2(capsys):
    code, _, err = run(capsys, ["check", BOUNDED, "--args", "1,2,3"])
    assert code == 2
    assert "arguments" in err


def test_check_bad_args_exit_2(capsys):
    code, _, err = run(capsys, ["check", BOUNDED, "--args", "1,x"])
    assert code == 2


def test_check_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.ir"
    bad.write_text("func @f() {\nb0():\n  retx\n}\n")
    code, _, err = run(capsys, ["check", str(bad)])
    assert code == 2
    assert "error" in err


def test_check_irreducible_exit_2(capsys):
    code, _, err = run(capsys, ["check", IRREDUCIBLE, "--args", "0"])
    assert code == 2
    assert "retreating edge" in err


def test_check_low_fuel_is_inconclusive_not_mismatch(capsys):
    # Fuel counts entered blocks and the variants differ in block count: the
    # seed finishes, the hoisted variant runs out, which proves nothing.
    code, out, err = run(capsys, ["check", BOUNDED, "--args=3", "--fuel", "30"])
    assert code == 0
    assert out == "@count: 2 variants agree\n"
    assert "1 of 2 variants ran out of fuel" in err

    code, _, err = run(capsys, ["check", BOUNDED, "--args=3", "--fuel", "1000"])
    assert code == 0 and err == ""


def test_check_exhausted_runs_do_not_hide_a_mismatch(capsys):
    # `broken` bumps a constant on every pass, so saturation hits the
    # iteration cap; at this fuel most variants run out, two finish apart.
    code, out, err = run(
        capsys, ["check", BOUNDED, "--args=3", "--fuel", "35", "--rules", "licm,broken"]
    )
    assert code == 1
    assert out.startswith("mismatch in @count:")
    assert "FuelExhausted" not in out
    assert "warning: @count: saturation stopped" in err


def test_check_at_small_fuel_never_reports_a_false_mismatch(capsys, tmp_path):
    # At fuel 1-20 many variants run out; that is inconclusive, and the runs
    # that finish agree, since every rule is sound.
    rng = random.Random(0xF0E1)
    path = tmp_path / "f.ir"
    exhausted = 0
    for seed in range(200):
        f = random_function(random.Random(seed))
        path.write_text(print_function(f))
        fuel = rng.randint(1, 20)
        args = ",".join(str(rng.randrange(-5, 6)) for _ in f.params)
        argv = ["check", str(path), f"--args={args}", "--fuel", str(fuel)]
        code, out, err = run(capsys, [*argv, "--rules", "licm,constfold"])
        assert code == 0 and re.fullmatch(r"@fuzz: \d+ variants agree\n", out), (seed, fuel, out)
        if err:
            note = r"epath-opt: note: @fuzz: \d+ of \d+ variants ran out of fuel \(inconclusive\)\n"
            assert re.fullmatch(note, err), (seed, fuel, err)
            exhausted += 1
    assert exhausted > 20


def test_check_catches_broken_on_random_functions(capsys, tmp_path):
    # Whenever `broken`'s output of the seed computes something else on the
    # check arguments, `check` reports the mismatch.
    rng = random.Random(0xB0C)
    path = tmp_path / "f.ir"
    caught = 0
    for seed in range(300):
        f = random_function(random.Random(seed))
        s = from_function(f)
        args = [rng.randrange(-5, 6) for _ in f.params]
        for bumped in apply_broken(s):
            results = [interpret(x.function, args, 1000) for x in (s, bumped.sequence)]
            if any(isinstance(r, FuelExhausted) for r in results) or results[0] == results[1]:
                continue
            path.write_text(print_function(f))
            argv = ["check", str(path), "--args=" + ",".join(map(str, args)), "--fuel", "1000",
                    "--rules", "licm,constfold,broken"]
            code, out, _ = run(capsys, argv)
            assert code == 1 and out.startswith("mismatch in @fuzz:"), (seed, out)
            caught += 1
    assert caught >= 5


def test_opt_warns_when_saturation_is_truncated(capsys):
    nested = CORPUS_DIR / "nested_loops.ir"
    code, out, err = run(capsys, ["opt", str(nested), "--max-seqs", "1"])
    assert code == 0
    assert err.count("\n") == 1
    assert "warning: @nest: saturation stopped" in err and "fixed point" in err
    # stdout is unchanged: the seed, the only variant stored
    assert out == print_function(parse_function(nested.read_text())) + "\n"

    code, _, err = run(capsys, ["opt", str(nested)])
    assert code == 0 and err == ""


@pytest.mark.parametrize("name", ["loop_invariant_chain", "two_loops"])
def test_opt_variants_and_trace_golden(capsys, name):
    # Pins the provenance edge order, which depends on the worklist order.
    argv = ["opt", str(CORPUS_DIR / f"{name}.ir"), "--dump-variants", "--trace"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == golden(f"{name}_variants_trace.txt") + "\n"


@pytest.mark.parametrize("dump", [[], ["--dump-variants", "--trace"]])
def test_opt_costs_each_variant_once(monkeypatch, capsys, dump):
    # `cost_of` reads the sequence's analyses through `cost.analyze` once
    # per call, under whichever name it is called.
    import epathopt.cost as cost

    costed = []
    analyze = cost.analyze

    def counted(s):
        costed.append(s.digest)
        return analyze(s)

    monkeypatch.setattr(cost, "analyze", counted)
    code, out, err = run(capsys, ["opt", str(CORPUS_DIR / "two_loops.ir"), *dump])
    assert code == 0 and err == ""
    assert len(costed) == len(set(costed)) == 4
    if dump:
        assert out.count("; variant ") == 4
        assert out == golden("two_loops_variants_trace.txt") + "\n"


def run_child(argv, **kwargs):
    """`epath-opt` with `argv` in a child process, as `subprocess.run` returns it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-m", "epathopt.cli", *argv], text=True, env=env, timeout=60, **kwargs
    )


def test_opt_broken_pipe_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = run_child(
            ["opt", str(CORPUS_DIR / "loop_invariant_chain.ir"), "--dump-variants"],
            stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["opt"], ["check", "--args", "3"]])
def test_a_name_stdout_cannot_encode_exits_1_without_traceback(tmp_path, monkeypatch, argv):
    src = tmp_path / "f.ir"
    src.write_text("func @\u00e9t\u00e9(v0) {\nb0(v0):\n  ret v0\n}\n", encoding="utf-8")
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    proc = run_child([argv[0], str(src), *argv[1:]], capture_output=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("epath-opt: error: cannot write to stdout: 'ascii' codec")
    assert "Traceback" not in proc.stderr


ZEROS, LONG = "0" * 5000, "1" * 5000


@pytest.mark.parametrize("command, code", [("opt", 1), ("check", 2)])
def test_long_integers_are_read_or_located_without_a_traceback(tmp_path, command, code):
    # More digits than Python's `int()` converts by default: leading zeros do
    # not count, and any other long integer is a located error.
    padded = tmp_path / "padded.ir"
    padded.write_text(f"func @f() {{\nb0():\n  v{ZEROS}0 = iconst -{ZEROS}7\n  ret v0\n}}\n")
    proc = run_child([command, str(padded)], capture_output=True)
    printed = "func @f() {\nb0():\n  v0 = iconst -7\n  ret v0\n}\n"
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (printed if command == "opt" else "@f: 1 variants agree\n")
    too_long = "too long: integer has 5000 digits, more than 640"
    cases = [
        ("  v0 = iconst " + LONG, "3:5015: iconst immediate out of 64-bit range"),
        (f"  v{LONG} = iconst 1", f"3:3: value (vN) {too_long}"),
        (f"  jump b{LONG}()", f"3:8: block (bN) {too_long}"),
    ]
    bad = tmp_path / "long.ir"
    for line, error in cases:
        bad.write_text(f"func @f() {{\nb0():\n{line}\n  ret v0\n}}\n")
        proc = run_child([command, str(bad)], capture_output=True)
        assert (proc.returncode, proc.stdout) == (code, ""), line[:20]
        assert proc.stderr == f"epath-opt: error: {bad}:{error}\n", line[:20]


def test_long_integers_in_cost_tables_and_args(capsys, tmp_path):
    table = tmp_path / "costs.txt"
    table.write_text(f"iadd = {ZEROS}5\niconst = {LONG}\n")
    assert run(capsys, ["opt", SEC2, "--cost-table", str(table)]) == (
        2, "", "epath-opt: error: cost table: line 2: integer has 5000 digits, more than 640\n"
    )
    assert run(capsys, ["check", IDENTITY, "--args", ZEROS + "7"]) == (
        0, "@id: 1 variants agree\n", ""
    )
    assert run(capsys, ["check", IDENTITY, "--args", LONG]) == (
        2, "", f"epath-opt: error: bad --args value {LONG!r}\n"
    )


@pytest.mark.parametrize("command, code", [("opt", 1), ("check", 2)])
def test_non_utf8_input_is_a_located_error(capsys, tmp_path, command, code):
    bad = tmp_path / "utf16.ir"
    bad.write_bytes(b"\xff\xfe" + "func @f() {".encode("utf-16-le"))
    exit_code, out, err = run(capsys, [command, str(bad)])
    assert (exit_code, out) == (code, "")
    assert err.startswith(f"epath-opt: error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, code", [("opt", 1), ("check", 2)])
def test_unicode_digit_is_a_located_error(capsys, tmp_path, command, code):
    # "\u00b2" passes str.isdigit but int() rejects it.
    bad = tmp_path / "superscript.ir"
    bad.write_text("func @f() {\nb0():\n  v0 = iconst \u00b2\n  ret v0\n}\n", encoding="utf-8")
    exit_code, out, err = run(capsys, [command, str(bad)])
    assert (exit_code, out) == (code, "")
    assert err == f"epath-opt: error: {bad}:3:15: expected integer\n"


def test_form_feed_line_keeps_line_numbers(capsys, tmp_path):
    # Line 1 holds only a form feed; "retx" is on line 8.
    bad = tmp_path / "formfeed.ir"
    body = "func @f() {\nb0():\n  jump b1()\nb1():\n  jump b2()\nb2():\n"
    bad.write_text("\x0c\n" + body + "  retx\n}\n", encoding="utf-8")
    exit_code, out, err = run(capsys, ["opt", str(bad)])
    assert (exit_code, out) == (1, "")
    assert err == f"epath-opt: error: {bad}:8:7: expected terminator, got 'retx'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["opt", SEC2, "--max-iters", "0"], "limits must be positive"),
        (["check", SEC2, "--args", "0", "--rules", "licm,zap"], "unknown rules: zap"),
        (["check", SEC2, "--args", "0", "--fuel", "0"], "fuel must be positive"),
        (["check", SEC2, "--args", "1_0"], "bad --args value '1_0'"),
        (["check", SEC2, "--args", "+3"], "bad --args value '+3'"),
        (["check", SEC2, "--args", "\u0661"], "bad --args value '\u0661'"),
        # Only spaces and tabs separate the values, as between the IR's tokens.
        (["check", SEC2, "--args", "\u00a07"], "bad --args value '\\xa07'"),
        (["check", SEC2, "--args", "\u30007"], "bad --args value '\\u30007'"),
        (["check", SEC2, "--args", "7\n"], "bad --args value '7\\n'"),
    ],
)
def test_bad_option_values_exit_2(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"epath-opt: error: {message}\n")


def test_spaces_and_tabs_separate_args(capsys):
    code, out, _ = run(capsys, ["check", IDENTITY, "--args", " \t7 "])
    assert (code, out) == (0, "@id: 1 variants agree\n")
