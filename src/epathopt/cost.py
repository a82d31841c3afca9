"""Symbolic cost evaluation and cheapest-variant extraction.

A sequence's cost is a polynomial in the symbolic iteration count N: each
block contributes its instruction cost plus the terminator cost at the
coefficient whose index is the block's loop-nesting depth, so every enclosing
loop multiplies the contribution by one factor of N. Comparison is
lexicographic from the highest coefficient down, i.e. by behavior for all
sufficiently large N.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from .epath import EPath
from .esequence import ESequence, analyze
from .ir import OPCODE_ARITY, logical_lines, parse_integer, render_parts
from .ir import print_function  # noqa: F401  kept by name: perfbench/tracer.py wraps it here


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class CostPoly:
    """Coefficients c0..cd over N^0..N^d, normalized (no trailing zeros)."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("coefficients must be non-empty")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("coefficients must be nonnegative")
        trimmed = self.coefficients
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        object.__setattr__(self, "coefficients", trimmed)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, n: int) -> int:
        return sum(c * n**k for k, c in enumerate(self.coefficients))

    def render(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            terms.append(str(c) if k == 0 else f"{c}N^{k}")
        return " + ".join(terms) if terms else "0"


def _order_key(cost: CostPoly) -> tuple:
    """The key of the cost order, which `compare` and `sort_by_cost` share:
    the degree, then the coefficients from the highest down. On normalized
    polynomials this is lexicographic from the highest coefficient down."""
    return cost.degree, cost.coefficients[::-1]


def compare(a: CostPoly, b: CostPoly) -> Ordering:
    """Total order: lexicographic from the highest coefficient downward."""
    ka, kb = _order_key(a), _order_key(b)
    return Ordering((ka > kb) - (ka < kb))


@dataclass(frozen=True)
class CostTable:
    """Per-opcode base costs plus a flat cost for every terminator."""

    opcode_costs: dict[str, int]
    terminator_cost: int = 0

    def __post_init__(self):
        unknown = [op for op in self.opcode_costs if op not in OPCODE_ARITY]
        if unknown:
            raise ValueError(f"unknown opcodes: {', '.join(sorted(unknown))}")
        if any(c < 0 for c in self.opcode_costs.values()) or self.terminator_cost < 0:
            raise ValueError("costs must be nonnegative")

    def opcode_cost(self, opcode: str) -> int:
        return self.opcode_costs.get(opcode, 1)


def default_cost_table() -> CostTable:
    """Every instruction costs 1, terminators are free."""
    return CostTable({op: 1 for op in OPCODE_ARITY}, 0)


def load_cost_table(text: str) -> CostTable:
    """Parse a `name = integer` per line table; `terminator` sets the
    terminator cost, anything else must be a known opcode. Lines, comments
    and blank lines are read as in the IR (`ir.logical_lines`), and as there
    only spaces and tabs separate tokens."""
    costs: dict[str, int] = {}
    terminator: int | None = None
    for line_no, line in logical_lines(text):
        name, sep, value = line.partition("=")
        name, value = name.strip(" \t"), value.strip(" \t")
        if not sep or not name or not value:
            raise ValueError(f"line {line_no}: expected 'name = integer'")
        try:
            cost = parse_integer(value)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if name == "terminator":
            if terminator is not None:
                raise ValueError(f"line {line_no}: duplicate terminator entry")
            terminator = cost
        elif name in OPCODE_ARITY:
            if name in costs:
                raise ValueError(f"line {line_no}: duplicate entry for {name}")
            costs[name] = cost
        else:
            raise ValueError(f"line {line_no}: unknown opcode {name!r}")
        if cost < 0:
            raise ValueError(f"line {line_no}: costs must be nonnegative")

    table = dict(default_cost_table().opcode_costs)
    table.update(costs)
    return CostTable(table, 0 if terminator is None else terminator)


def cost_of(s: ESequence, table: CostTable | None = None) -> CostPoly:
    """Sum block costs, one nesting depth per enclosing loop: every block
    starts at depth 0, and one pass over the loops of `analyze(s)`, which the
    sequence caches, counts 1 for each block of each loop body."""
    table = table or default_cost_table()
    depth = Counter(bid for loop in analyze(s).loops for bid in loop.body)
    coefficients = [0] * (max(depth.values(), default=0) + 1)
    for b in s.blocks:
        block_cost = table.terminator_cost
        if b.instruction:
            block_cost += table.opcode_cost(b.instruction.opcode)
        coefficients[depth[b.id]] += block_cost
    return CostPoly(tuple(coefficients))


def rank_by_cost(
    variants: list[ESequence], table: CostTable | None = None
) -> list[tuple[ESequence, CostPoly]]:
    """Each variant with its cost, computed once, in ascending cost in the
    order of `compare`, ties broken by canonical printed form (`s.text`).
    The tie-break compares the parts `s.text` is joined from, which order
    as it does, so no variant's text is joined."""
    table = table or default_cost_table()
    ranked = [(s, cost_of(s, table)) for s in variants]
    ranked.sort(
        key=lambda pair: (_order_key(pair[1]), render_parts("s", pair[0].params, pair[0].blocks))
    )
    return ranked


def sort_by_cost(variants: list[ESequence], table: CostTable | None = None) -> list[ESequence]:
    """The variants of `rank_by_cost`, without their costs."""
    return [s for s, _ in rank_by_cost(variants, table)]


def extract(p: EPath, table: CostTable | None = None) -> ESequence:
    """The cheapest variant in the set (deterministic under ties)."""
    return sort_by_cost(p.variants(), table)[0]
