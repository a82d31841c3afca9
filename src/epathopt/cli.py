"""Command-line driver.

    epath-opt opt <file> [--rules a,b] [--max-iters K] [--max-seqs K]
                         [--cost-table f] [--dump-variants]
                         [--emit text|dot] [--trace]
    epath-opt check <file> --args 1,2,3 --fuel N [--rules a,b]

`opt` parses, saturates, and prints the cheapest variant of every function in
the file. `check` interprets every saturated variant on the given arguments
and fails if two runs that finished disagree; a run that exhausts its fuel is
inconclusive and is counted on stderr. Both warn on stderr when saturation
stops at a limit before reaching a fixed point.

Exit codes: 0 success, 1 parse/validate error (or check mismatch), 2
irreducible control flow or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import IrreducibleError
from .cost import CostTable, cost_of, default_cost_table, load_cost_table, sort_by_cost
from .epath import EPath, SaturationReport, saturate
from .esequence import from_function, to_dot, to_function
from .ir import FuelExhausted, Function, ParseError, interpret, parse_file, print_function
from .rewrite import rules_named

DEFAULT_RULES = ["licm", "constfold"]


@dataclass
class RunConfig:
    input: Path
    rules: list[str] = field(default_factory=lambda: list(DEFAULT_RULES))
    max_iterations: int = 64
    max_sequences: int = 100_000
    cost_table: Path | None = None
    emit: str = "text"
    dump_variants: bool = False
    trace: bool = False


def _fail(message: str, code: int) -> int:
    print(f"epath-opt: error: {message}", file=sys.stderr)
    return code


def _warn_if_truncated(f: Function, path: EPath, report: SaturationReport) -> None:
    if not report.reached_fixed_point:
        print(
            f"epath-opt: warning: @{f.name}: saturation stopped at a limit before "
            f"a fixed point ({report.iterations} iterations, {len(path)} variants)",
            file=sys.stderr,
        )


def _parse_input(path: Path, error_code: int) -> list[Function] | int:
    try:
        text = path.read_text()
    except OSError as exc:
        return _fail(str(exc), error_code)
    try:
        return parse_file(text)
    except ParseError as exc:
        return _fail(f"{path}:{exc}", error_code)


def cmd_opt(config: RunConfig) -> int:
    if config.max_iterations <= 0 or config.max_sequences <= 0:
        return _fail("limits must be positive", 2)
    try:
        rules = rules_named(config.rules)
    except ValueError as exc:
        return _fail(str(exc), 2)

    if config.cost_table is not None:
        try:
            table = load_cost_table(config.cost_table.read_text())
        except (OSError, ValueError) as exc:
            return _fail(f"cost table: {exc}", 2)
    else:
        table = default_cost_table()

    functions = _parse_input(config.input, error_code=1)
    if isinstance(functions, int):
        return functions

    outputs = []
    for f in functions:
        try:
            seed = from_function(f)
        except IrreducibleError as exc:
            return _fail(f"@{f.name}: {exc}", 2)
        path = EPath(seed)
        report = saturate(
            path,
            rules,
            max_iterations=config.max_iterations,
            max_sequences=config.max_sequences,
        )
        _warn_if_truncated(f, path, report)
        outputs.append(_render_result(f, path, table, config))

    print("\n\n".join(outputs))
    return 0


def _render_result(f: Function, path: EPath, table: CostTable, config: RunConfig) -> str:
    lines: list[str] = []
    if config.trace:
        for edge in path.edges:
            lines.append(f"{edge.rule_name}: {edge.source} -> {edge.target}")
    ordered = sort_by_cost(path.variants(), table)
    if config.dump_variants:
        for seq in ordered:
            lines.append(f"; variant {seq.digest} cost {cost_of(seq, table).render()}")
            lines.append(print_function(to_function(seq, f.name)))
    best = ordered[0]
    if config.emit == "dot":
        lines.append(to_dot(best, f.name))
    else:
        lines.append(print_function(to_function(best, f.name)))
    return "\n".join(lines)


def cmd_check(input_path: Path, args: list[int], fuel: int, rule_names: list[str]) -> int:
    try:
        rules = rules_named(rule_names)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if fuel <= 0:
        return _fail("fuel must be positive", 2)

    functions = _parse_input(input_path, error_code=2)
    if isinstance(functions, int):
        return functions

    for f in functions:
        if len(args) != len(f.params):
            return _fail(
                f"@{f.name} takes {len(f.params)} arguments, got {len(args)}", 2
            )
        try:
            seed = from_function(f)
        except IrreducibleError as exc:
            return _fail(f"@{f.name}: {exc}", 2)
        path = EPath(seed)
        _warn_if_truncated(f, path, saturate(path, rules))

        results = [
            (seq.digest, interpret(to_function(seq, f.name), args, fuel))
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
    text = text.strip()
    if not text:
        return []
    return [int(part.strip()) for part in text.split(",")]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epath-opt",
        description="Non-destructive saturation over a restricted ANF control-flow IR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("opt", help="saturate and print the cheapest variant")
    opt.add_argument("input", type=Path)
    opt.add_argument("--rules", default=",".join(DEFAULT_RULES), help="comma-separated rule names")
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
    check.add_argument("--rules", default=",".join(DEFAULT_RULES))

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_arg_parser().parse_args(argv)
    if ns.command == "opt":
        config = RunConfig(
            input=ns.input,
            rules=[r for r in ns.rules.split(",") if r],
            max_iterations=ns.max_iters,
            max_sequences=ns.max_seqs,
            cost_table=ns.cost_table,
            emit=ns.emit,
            dump_variants=ns.dump_variants,
            trace=ns.trace,
        )
        return cmd_opt(config)
    try:
        args = _parse_int_list(ns.args)
    except ValueError:
        return _fail(f"bad --args value {ns.args!r}", 2)
    return cmd_check(ns.input, args, ns.fuel, [r for r in ns.rules.split(",") if r])


if __name__ == "__main__":
    sys.exit(main())
