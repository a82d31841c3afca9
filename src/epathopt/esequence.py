"""Canonicalized, immutable control-flow regions with structural hashing.

An ESequence is the unit of congruence: a whole function body whose blocks
are stored in canonical reverse postorder with densely renumbered block and
value ids. Two functions that differ only in naming canonicalize to equal
sequences with equal digests, which is what makes hash-consing work.

Canonicalization renders the canonical text straight from its source and
digests that; the sequence's one `Function` is built only when first read,
so a rule output that turns out to be a duplicate costs one rendering and a
lookup.
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
    remap_block,
    render_block,
    render_function,
    reverse_postorder,
    validate,
)

DIGEST_BYTES = 8


@dataclass(frozen=True)
class ESequence:
    """An immutable region; construct via `from_function` only.

    Equality and hashing go by `text`, the canonical printed form, which
    encodes the structure one to one. `function` is built on first use."""

    params: tuple[ValueId, ...] = field(compare=False)
    text: str = field(repr=False)
    digest: str = field(compare=False)
    _build: Callable[[], tuple[Block, ...]] | None = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def function(self) -> Function:
        """The sequence as the function `s`, built on first use and kept:
        validation, analyses, costs and the rules all read this one object.
        Not a field: equality and hashing ignore it."""
        f = Function("s", self.params, 0, self._build())
        object.__setattr__(self, "_build", None)  # release the source
        return f

    @property
    def blocks(self) -> tuple[Block, ...]:
        """Blocks in canonical order (block i has id i)."""
        return self.function.blocks

    @cached_property
    def analyses(self) -> Analyses:
        """CFG analyses of `function`, computed on first use and kept for the
        sequence's lifetime. Raises IrreducibleError."""
        return Analyses.compute(self.function)


def from_function(f: Function, *, checked: bool = True) -> ESequence:
    """Canonicalize a valid, reducible function into an ESequence.

    Blocks are reordered to reverse postorder and renumbered 0..n-1; values
    are renumbered in definition order (entry params first, then each
    block's params and instruction result).

    The sequence's function is built from `f`'s blocks on first use; rules
    pass the `Function` their working copy finishes, which shares the
    source's unchanged blocks. A checked `Function` keeps its verdict, so one
    the parser has checked is not checked again.

    Raises ValueError listing the violations of an invalid function, and
    IrreducibleError naming an edge in `f`'s own block ids. Rules pass
    `checked=False`: the result then only has a digest and its text, and
    `verify` must accept it before it is trusted. `saturate` verifies only
    digests it has not stored yet; a duplicate has the text of a verified
    sequence and never builds its function.
    """
    if checked:
        _require_valid(f)
    s = _canonicalize(f)
    if checked:
        try:
            analyze(s)
        except IrreducibleError:
            find_back_edges(f)  # raises again, naming f's block ids
            raise
    return s


def verify(s: ESequence) -> None:
    """Check a sequence built with `checked=False`: ValueError listing its
    violations, or IrreducibleError. Leaves its analyses cached."""
    _require_valid(s.function)
    analyze(s)


def _require_valid(f: Function) -> None:
    violations = validate(f)
    if violations:
        raise ValueError(f"invalid function @{f.name}: " + "; ".join(violations))


def _canonicalize(f: Function) -> ESequence:
    """Rename `f` into canonical form and print it, without validating it.
    `f` is a parsed `Function` or one a rule's working copy finished.

    One pass over the reverse postorder builds the block and value maps,
    then `render_function` writes the text straight from `f` through them:
    it is exactly `print_function` of the renamed function named `s`, and
    the digest is its blake2b. No block is built here.

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
        text = render_function("s", f.params, source, value_map, block_map)
    except KeyError:
        text = None
    if text is None or len(rpo) != len(f.blocks):
        _require_valid(f)
        raise ValueError(f"invalid function @{f.name}: cannot canonicalize")
    return ESequence(
        params, text, _digest(text), lambda: _build_blocks(source, block_map, value_map)
    )


def _build_blocks(
    source: list[Block],
    block_map: dict[BlockId, BlockId],
    value_map: dict[ValueId, ValueId],
) -> tuple[Block, ...]:
    return tuple(remap_block(block, value_map, block_map) for block in source)


def to_function(s: ESequence, name: str = "s") -> Function:
    """The sequence as a function named `name`; inverts `from_function`.
    Under the default name this is `s.function` itself."""
    if name == "s":
        return s.function
    return Function(name, s.params, 0, s.blocks)


def canonical_hash(s: ESequence) -> str:
    """Deterministic structural digest, stable across processes: the digest
    of `print_function(s.function)`. It prints the built blocks with the
    renderer that gave `s.text`, so it equals `s.digest` whenever the blocks
    match the text."""
    return _digest(print_function(s.function))


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
        label = "\\l".join(line.lstrip() for line in render_block(b)) + "\\l"
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
