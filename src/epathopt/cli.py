"""Command-line driver.

    epath-opt opt <file> [--rules a,b] [--max-iters K] [--max-seqs K]
                         [--cost-table f] [--dump-variants]
                         [--emit text|dot] [--trace]
    epath-opt check <file> --args 1,2,3 --fuel N [--rules a,b]

`opt` parses, saturates, and prints the cheapest variant of every function in
the file. `check` interprets every saturated variant on the given arguments
and fails if two runs that finished disagree; a run that exhausts its fuel is
inconclusive and is counted on stderr. Both warn on stderr when saturation
stops at a limit before reaching a fixed point; `check` always saturates
with the fixed limits of 64 iterations and 100 000 sequences. The unsound
`broken` rule adds a new constant on every pass, so `check --rules ...,broken`
on a function with a constant runs to the iteration cap: with `constfold`
it stores 89569 variants of `tests/corpus/diamond_consts.ir`.

Exit codes: 0 success, 1 parse/validate error (or check mismatch), 2
irreducible control flow or usage errors. A reader that closes stdout early
gets exit code 1 and no traceback; so does a stdout whose encoding cannot
write the output (say, a function name outside ASCII under
`PYTHONIOENCODING=ascii`), after an error on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import IrreducibleError
from .cost import CostTable, default_cost_table, load_cost_table, rank_by_cost, sort_by_cost
from .epath import EPath, saturate
from .esequence import from_function, to_dot, to_function
from .ir import FuelExhausted, Function, ParseError, interpret, parse_file, parse_integer
from .ir import print_function
from .rewrite import RewriteRule, rules_named

DEFAULT_RULES = ["licm", "constfold"]


class _Failure(Exception):
    """`_Failure(message, code)` ends a command: `main` prints the message as
    an error on stderr and exits with the code."""


def _rules(names: list[str]) -> list[RewriteRule]:
    try:
        return rules_named(names)
    except ValueError as exc:
        raise _Failure(str(exc), 2)


def _parse_input(path: Path, error_code: int) -> list[Function]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise _Failure(str(exc), error_code)
    except UnicodeDecodeError as exc:
        raise _Failure(f"{path}: {exc}", error_code)
    try:
        return parse_file(text)
    except ParseError as exc:
        raise _Failure(f"{path}:{exc}", error_code)


def _saturated(f: Function, rules: list[RewriteRule], **limits) -> EPath:
    """The saturated e-path of `f`, warning on stderr when saturation stops
    at a limit; exit code 2 when `f` is irreducible."""
    try:
        path = EPath(from_function(f))
    except IrreducibleError as exc:
        raise _Failure(f"@{f.name}: {exc}", 2)
    report = saturate(path, rules, **limits)
    if not report.reached_fixed_point:
        print(
            f"epath-opt: warning: @{f.name}: saturation stopped at a limit before "
            f"a fixed point ({report.iterations} iterations, {len(path)} variants)",
            file=sys.stderr,
        )
    return path


def cmd_opt(ns: argparse.Namespace) -> int:
    if ns.max_iters <= 0 or ns.max_seqs <= 0:
        raise _Failure("limits must be positive", 2)
    rules = _rules(ns.rules)

    if ns.cost_table is not None:
        try:
            table = load_cost_table(ns.cost_table.read_text())
        except UnicodeDecodeError as exc:
            raise _Failure(f"cost table: {ns.cost_table}: {exc}", 2)
        except (OSError, ValueError) as exc:
            raise _Failure(f"cost table: {exc}", 2)
    else:
        table = default_cost_table()

    outputs = []
    for f in _parse_input(ns.input, error_code=1):
        path = _saturated(f, rules, max_iterations=ns.max_iters, max_sequences=ns.max_seqs)
        outputs.append(_render_result(f, path, table, ns))

    print("\n\n".join(outputs))
    return 0


def _render_result(f: Function, path: EPath, table: CostTable, ns: argparse.Namespace) -> str:
    lines: list[str] = []
    if ns.trace:
        for edge in path.edges:
            lines.append(f"{edge.rule_name}: {edge.source} -> {edge.target}")
    if ns.dump_variants:
        ranked = rank_by_cost(path.variants(), table)
        for seq, cost in ranked:
            lines.append(f"; variant {seq.digest} cost {cost.render()}")
            lines.append(print_function(to_function(seq, f.name)))
        best = ranked[0][0]
    else:
        best = sort_by_cost(path.variants(), table)[0]
    if ns.emit == "dot":
        lines.append(to_dot(best, f.name))
    else:
        lines.append(print_function(to_function(best, f.name)))
    return "\n".join(lines)


def cmd_check(ns: argparse.Namespace) -> int:
    try:
        args = _parse_int_list(ns.args)
    except ValueError:
        raise _Failure(f"bad --args value {ns.args!r}", 2)
    rules = _rules(ns.rules)
    if ns.fuel <= 0:
        raise _Failure("fuel must be positive", 2)

    for f in _parse_input(ns.input, error_code=2):
        if len(args) != len(f.params):
            raise _Failure(
                f"@{f.name} takes {len(f.params)} arguments, got {len(args)}", 2
            )
        path = _saturated(f, rules)

        results = [
            (seq.digest, interpret(seq.function, args, ns.fuel))
            for seq in path.variants()
        ]
        finished = [(d, r) for d, r in results if not isinstance(r, FuelExhausted)]
        for digest, result in finished[1:]:
            if result != finished[0][1]:
                print(f"mismatch in @{f.name}:")
                print(f"  {finished[0][0]}: {finished[0][1]}")
                print(f"  {digest}: {result}")
                return 1
        if len(finished) < len(results):
            print(
                f"epath-opt: note: @{f.name}: {len(results) - len(finished)} of "
                f"{len(results)} variants ran out of fuel (inconclusive)",
                file=sys.stderr,
            )
        print(f"@{f.name}: {len(results)} variants agree")
    return 0


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; spaces and tabs around them are ignored, as
    between the IR's tokens."""
    if not text.strip(" \t"):
        return []
    return [parse_integer(part.strip(" \t")) for part in text.split(",")]


def _parse_rule_list(text: str) -> list[str]:
    return [r for r in text.split(",") if r]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epath-opt",
        description="Non-destructive saturation over a restricted ANF control-flow IR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_rules = ",".join(DEFAULT_RULES)

    opt = sub.add_parser("opt", help="saturate and print the cheapest variant")
    opt.add_argument("input", type=Path)
    opt.add_argument(
        "--rules", type=_parse_rule_list, default=default_rules,
        help="comma-separated rule names",
    )
    opt.add_argument("--max-iters", type=int, default=64)
    opt.add_argument("--max-seqs", type=int, default=100_000)
    opt.add_argument("--cost-table", type=Path, default=None)
    opt.add_argument("--dump-variants", action="store_true")
    opt.add_argument("--emit", choices=["text", "dot"], default="text")
    opt.add_argument("--trace", action="store_true")

    check = sub.add_parser("check", help="interpret all variants and compare outcomes")
    check.add_argument("input", type=Path)
    check.add_argument("--args", default="", help="comma-separated integer arguments")
    check.add_argument("--fuel", type=int, default=10_000)
    check.add_argument("--rules", type=_parse_rule_list, default=default_rules)

    return parser


_PARSER = build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    ns = _PARSER.parse_args(argv)
    try:
        try:
            code = cmd_opt(ns) if ns.command == "opt" else cmd_check(ns)
        except _Failure as exc:
            message, code = exc.args
            print(f"epath-opt: error: {message}", file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early. Point stdout at devnull so the
        # flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnicodeEncodeError as exc:
        print(f"epath-opt: error: cannot write to stdout: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
