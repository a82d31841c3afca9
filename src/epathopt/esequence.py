"""Canonicalized, immutable control-flow regions with structural hashing.

An ESequence is the unit of congruence: a whole function body whose blocks
are stored in canonical reverse postorder with densely renumbered block and
value ids. Two functions that differ only in naming canonicalize to equal
sequences with equal digests, which is what makes hash-consing work.

Canonicalization renders the canonical text straight from its source and
digests that; the blocks are built only when first read, so a rule output
that turns out to be a duplicate costs one rendering and a lookup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .analysis import Analyses, IrreducibleError, find_back_edges
from .ir import (
    Block,
    BlockId,
    BrIf,
    Function,
    Jump,
    ValueId,
    print_function,
    remap_instruction,
    remap_terminator,
    render_instruction,
    render_terminator,
    reverse_postorder,
    validate,
)

DIGEST_BYTES = 8


@dataclass(frozen=True)
class ESequence:
    """An immutable region; construct via `from_function` only.

    Equality and hashing go by `text`, the canonical printed form, which
    encodes the structure one to one. `blocks` is built on first use."""

    params: tuple[ValueId, ...] = field(compare=False)
    text: str = field(repr=False)
    digest: str = field(compare=False)
    _build: Callable[[], tuple[Block, ...]] | None = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """Blocks in canonical order (block i has id i)."""
        blocks = self._build()
        object.__setattr__(self, "_build", None)  # release the source
        return blocks

    @cached_property
    def analyses(self) -> Analyses:
        """CFG analyses of the function form, computed on first use and kept
        for the sequence's lifetime. Not a field: equality and hashing
        ignore it. Raises IrreducibleError."""
        return Analyses.compute(to_function(self))


def from_function(f, *, checked: bool = True) -> ESequence:
    """Canonicalize a valid, reducible function into an ESequence.

    Blocks are reordered to reverse postorder and renumbered 0..n-1; values
    are renumbered in definition order (entry params first, then each
    block's params and instruction result).

    `f` is a `Function` or a rule's working copy, read through `params`,
    `entry`, `blocks`, `block(id)` and, for error reports, `finish()`. It
    must not change afterwards: the sequence's blocks are built from it on
    first use.

    Raises ValueError listing the violations of an invalid function, and
    IrreducibleError naming an edge in `f`'s own block ids. Rules pass
    `checked=False`: the result then only has a digest and its text, and
    `verify` must accept it before it is trusted. `saturate` verifies only
    digests it has not stored yet; a duplicate has the text of a verified
    sequence and never builds its blocks.
    """
    if checked:
        _require_valid(_as_function(f))
    s = _canonicalize(f)
    if checked:
        try:
            analyze(s)
        except IrreducibleError:
            find_back_edges(_as_function(f))  # raises again, naming f's block ids
            raise
    return s


def verify(s: ESequence) -> None:
    """Check a sequence built with `checked=False`: ValueError listing its
    violations, or IrreducibleError. Leaves its analyses cached."""
    _require_valid(to_function(s))
    analyze(s)


def _as_function(f) -> Function:
    return f if isinstance(f, Function) else f.finish()


def _require_valid(f: Function) -> None:
    violations = validate(f)
    if violations:
        raise ValueError(f"invalid function @{f.name}: " + "; ".join(violations))


def _canonicalize(f) -> ESequence:
    """Rename `f` into canonical form and print it, without validating it.

    One pass over the reverse postorder builds the block and value maps,
    then the text is rendered straight from `f` through them: it is exactly
    `print_function` of the renamed function named `s`, and the digest is
    its blake2b. No block is built here.

    Validity and reducibility do not depend on names, so checking the result
    checks `f`. Renaming fails only on an invalid `f` (an undefined target or
    value, an unreached or duplicate block); `validate` then names why."""
    try:
        rpo = reverse_postorder(f)
        block_map = {old: new for new, old in enumerate(rpo)}
        value_map: dict[ValueId, ValueId] = {}
        source = [f.block(old) for old in rpo]
        for block in source:
            for v in block.params:
                value_map[v] = len(value_map)
            for instr in block.instructions:
                value_map[instr.result] = len(value_map)
        params = tuple(value_map[v] for v in f.params)
        text = _render(params, source, block_map, value_map)
    except KeyError:
        text = None
    if text is None or len(rpo) != len(f.blocks):
        f = _as_function(f)
        _require_valid(f)
        raise ValueError(f"invalid function @{f.name}: cannot canonicalize")

    def build() -> tuple[Block, ...]:
        return _build_blocks(source, block_map, value_map)

    return ESequence(params, text, _digest(text), build)


def _render(
    params: tuple[ValueId, ...],
    source: list,
    block_map: dict[BlockId, BlockId],
    value_map: dict[ValueId, ValueId],
) -> str:
    """`print_function` of the renamed function named `s`, without renaming:
    `source` is in reverse postorder, so its blocks come out by new id."""
    name = {old: f"v{new}" for old, new in value_map.items()}.__getitem__

    def values(vals) -> str:
        return ", ".join(map(name, vals))

    lines = [f"func @s({', '.join(f'v{v}' for v in params)}) {{"]
    for new, block in enumerate(source):
        lines.append(f"b{new}({values(block.params)}):")
        for instr in block.instructions:
            if instr.opcode == "iconst":
                lines.append(f"  {name(instr.result)} = iconst {instr.imm}")
            else:
                lines.append(f"  {name(instr.result)} = {instr.opcode} {values(instr.operands)}")
        term = block.terminator
        if isinstance(term, Jump):
            lines.append(f"  jump b{block_map[term.target]}({values(term.args)})")
        elif isinstance(term, BrIf):
            lines.append(
                f"  brif {name(term.cond)}, "
                f"b{block_map[term.then_target]}({values(term.then_args)}), "
                f"b{block_map[term.else_target]}({values(term.else_args)})"
            )
        elif term.args:
            lines.append(f"  ret {values(term.args)}")
        else:
            lines.append("  ret")
    lines.append("}")
    return "\n".join(lines)


def _build_blocks(
    source: list,
    block_map: dict[BlockId, BlockId],
    value_map: dict[ValueId, ValueId],
) -> tuple[Block, ...]:
    return tuple(
        Block(
            new,
            tuple(value_map[v] for v in block.params),
            tuple(remap_instruction(i, value_map) for i in block.instructions),
            remap_terminator(block.terminator, value_map, block_map),
        )
        for new, block in enumerate(source)
    )


def to_function(s: ESequence, name: str = "s") -> Function:
    """Materialize the sequence as a function; inverts `from_function`."""
    return Function(name, s.params, 0, s.blocks)


def canonical_hash(s: ESequence) -> str:
    """Deterministic structural digest, stable across processes; prints the
    sequence's blocks, independently of the text `from_function` renders."""
    return _digest(print_function(to_function(s)))


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=DIGEST_BYTES).hexdigest()


def analyze(s: ESequence) -> Analyses:
    """CFG analyses of the sequence's function form, cached on the sequence;
    treat the result as read-only."""
    return s.analyses


def to_dot(s: ESequence, name: str = "seq") -> str:
    """Graphviz rendering: one node per block, branch edges labeled."""
    lines = [f'digraph "{name}" {{', "  node [shape=box, fontname=monospace];"]
    for b in s.blocks:
        text = [f"b{b.id}({', '.join(f'v{v}' for v in b.params)}):"]
        text.extend(render_instruction(i) for i in b.instructions)
        text.append(render_terminator(b.terminator))
        label = "\\l".join(text) + "\\l"
        lines.append(f'  b{b.id} [label="{label}"];')
    for b in s.blocks:
        term = b.terminator
        if isinstance(term, Jump):
            lines.append(f"  b{b.id} -> b{term.target};")
        elif isinstance(term, BrIf):
            lines.append(f'  b{b.id} -> b{term.then_target} [label="then"];')
            lines.append(f'  b{b.id} -> b{term.else_target} [label="else"];')
    lines.append("}")
    return "\n".join(lines)
