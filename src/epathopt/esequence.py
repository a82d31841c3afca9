"""Canonicalized, immutable control-flow regions with structural hashing.

An ESequence is the unit of congruence: a whole function body whose blocks
are stored in canonical reverse postorder with densely renumbered block and
value ids. Two functions that differ only in naming canonicalize to equal
sequences with equal digests, which is what makes hash-consing work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from .analysis import Analyses, IrreducibleError, find_back_edges
from .ir import (
    Block,
    BrIf,
    Function,
    Jump,
    ValueId,
    print_function,
    remap,
    render_instruction,
    render_terminator,
    reverse_postorder,
    validate,
)

DIGEST_BYTES = 8


@dataclass(frozen=True)
class ESequence:
    """An immutable region; construct via `from_function` only."""

    params: tuple[ValueId, ...]
    blocks: tuple[Block, ...]
    digest: str = field(compare=False)

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def analyses(self) -> Analyses:
        """CFG analyses of the function form, computed on first use and kept
        for the sequence's lifetime. Not a field: equality and hashing
        ignore it. Raises IrreducibleError."""
        return Analyses.compute(to_function(self))


def from_function(f: Function, *, checked: bool = True) -> ESequence:
    """Canonicalize a valid, reducible function into an ESequence.

    Blocks are reordered to reverse postorder and renumbered 0..n-1; values
    are renumbered in definition order (entry params first, then each
    block's params and instruction result).

    Raises ValueError listing the violations of an invalid function, and
    IrreducibleError naming an edge in `f`'s own block ids. Rules pass
    `checked=False`: the result then only has a digest, and `verify` must
    accept it before it is trusted. `saturate` verifies only digests it has
    not stored yet; a duplicate is structurally equal to a verified sequence.
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
    _require_valid(to_function(s))
    analyze(s)


def _require_valid(f: Function) -> None:
    violations = validate(f)
    if violations:
        raise ValueError(f"invalid function @{f.name}: " + "; ".join(violations))


def _canonicalize(f: Function) -> ESequence:
    """Rename `f` into canonical form without validating it.

    Validity and reducibility do not depend on names, so checking the result
    checks `f`. Renaming fails only on an invalid `f` (an undefined target or
    value, an unreached or duplicate block); `validate` then names why."""
    try:
        rpo = reverse_postorder(f)
        block_map = {old: new for new, old in enumerate(rpo)}
        value_map: dict[ValueId, ValueId] = {}
        for old in rpo:
            block = f.block(old)
            for v in block.params:
                value_map[v] = len(value_map)
            for instr in block.instructions:
                value_map[instr.result] = len(value_map)
        renamed = remap(f, value_map, block_map)
    except KeyError:
        renamed = None
    if renamed is None or len(rpo) != len(f.blocks):
        _require_valid(f)
        raise ValueError(f"invalid function @{f.name}: cannot canonicalize")

    blocks = tuple(sorted(renamed.blocks, key=lambda b: b.id))
    params = renamed.params
    return ESequence(params, blocks, _digest(params, blocks))


def to_function(s: ESequence, name: str = "s") -> Function:
    """Materialize the sequence as a function; inverts `from_function`."""
    return Function(name, s.params, 0, s.blocks)


def canonical_hash(s: ESequence) -> str:
    """Deterministic structural digest, stable across processes."""
    return _digest(s.params, s.blocks)


def _digest(params, blocks) -> str:
    text = print_function(Function("s", params, 0, blocks))
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
