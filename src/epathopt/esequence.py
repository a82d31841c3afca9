"""Canonicalized, immutable control-flow regions with structural hashing.

An ESequence is the unit of congruence: a whole function body whose blocks
are stored in canonical reverse postorder with densely renumbered block and
value ids. Two functions that differ only in naming canonicalize to equal
sequences with equal digests, which is what makes hash-consing work.

Canonicalization (`from_function`, the one constructor) renames its
source's blocks once, prints the canonical text from those blocks and
digests it, and validates nothing; a rule's `Rewrite` makes its sequence
when first read. A canonical block keeps its renamings and its text, so
a block that variants share is built and printed once per e-path. A
sequence keeps only those blocks: its text is joined from theirs when
read, never stored a second time. The sequence's one `Function` wraps the
canonical blocks when first read, after its source is validated, and its
`analyses` add reducibility: that is the one place a sequence is checked,
and both name what they find in the source's own block ids. `EPath`
analyzes what it stores, so it is the one trust gate.
"""

from __future__ import annotations

import hashlib
from functools import cached_property

from .analysis import Analyses, IrreducibleError
from .ir import (
    Block,
    Function,
    ValueId,
    ids_below,
    print_function,
    remap_block,
    render_block,
    render_function,
    terminator_targets,
    validate,
)

DIGEST_BYTES = 8


class ESequence:
    """An immutable region, made only by `from_function`.

    A sequence holds its params, its canonical `blocks` (block i has id i),
    the `digest` of its text and `source_rpo`, its source's reverse
    postorder: canonical block i is the source block `source_rpo[i]`, the
    one renaming fact a sequence keeps. `text`, the canonical printed form,
    is joined from the texts the blocks keep whenever it is read. Equality
    goes by `params` and `blocks`, which `text` encodes one to one, so no
    text is joined to compare; since canonical blocks are shared, that is
    mostly identity checks. Hashing goes by `digest`. Reading these
    validates nothing: `function` is validated on first use."""

    def __init__(self, params: tuple[ValueId, ...], blocks: tuple[Block, ...], source: Function):
        self.params, self.blocks, self._source = params, blocks, source
        self.digest, self.source_rpo = _digest(self.text), tuple(source.rpo)

    @property
    def text(self) -> str:
        """The canonical printed form, joined from the blocks' kept texts."""
        return render_function("s", self.params, self.blocks)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, ESequence) and (
            self.params == other.params and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash(self.digest)

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def function(self) -> Function:
        """The sequence as the function `s`: on first use the source is
        validated and the canonical blocks are wrapped and kept; analyses,
        costs and the rules all read this one object. Canonical block i is
        `source_rpo[i]`, so the function inherits its reverse postorder,
        `0..n-1`, and the source's `idom_positions` tuple as is: no
        canonical function is walked or solved. Raises ValueError listing
        the violations of an invalid source, and keeps nothing."""
        _require_valid(source := self._source)
        f = Function("s", self.params, 0, self.blocks)
        f.__dict__.update(rpo=[*range(len(f.blocks))], idom_positions=source.idom_positions)
        self._source = None  # release the source
        return f

    @cached_property
    def analyses(self) -> Analyses:
        """CFG analyses of `function`, computed on first use and kept for the
        sequence's lifetime. Raises IrreducibleError naming the edge in the
        source's own block ids: canonical block i is `source_rpo[i]`."""
        try:
            return Analyses.compute(self.function)
        except IrreducibleError as exc:
            raise IrreducibleError(tuple(self.source_rpo[b] for b in exc.edge)) from None


def from_function(f: Function) -> ESequence:
    """Canonicalize `f` into an ESequence, without validating it. `f` is a
    parsed `Function` or one a rule's working copy finished, which shares the
    source's unchanged blocks.

    Blocks are reordered to reverse postorder and renumbered 0..n-1; values
    are renumbered in definition order (entry params first, then each
    block's params and instruction result). One pass over `f.rpo`, the walk
    validation shares, builds the block and value maps; then `remap_block`
    renames each reached block once, and the sequence keeps those blocks
    and the blake2b digest of the text `render_function` prints from them,
    exactly `print_function` of the canonical function named `s`; the text
    itself is not kept. The value map is complete before any block is
    renamed, so an invalid `f` that uses a value before defining it still
    canonicalizes. A block `f` shares with a canonical source keeps its
    renamings and its text, so renaming it under a map seen before, or
    under none, builds and prints nothing. When the largest block and value
    ids such a block names lie below the first reverse-postorder position
    that is not its own id and the first value whose new number differs,
    every id it names is its own image, and `ids_below` keeps the block
    without a `remap_block` call.

    Validity and reducibility do not depend on names, so `f` is checked
    only when the sequence's `function` and `analyses` are first read, in
    `f`'s own ids: a duplicate, which `EPath` never stores, is never
    checked, and a parsed `Function` keeps the parser's verdict. Renaming
    fails only on an invalid `f` (an undefined target or value, an
    unreached or duplicate block): ValueError then names why.
    """
    try:
        rpo = f.rpo
        block_map = {old: new for new, old in enumerate(rpo)}
        value_map: dict[ValueId, ValueId] = {}
        source = [f.block(old) for old in rpo]
        for block in source:
            for v in block.params:
                value_map[v] = len(value_map)
            if instr := block.instruction:
                value_map[instr.result] = len(value_map)
        params = tuple(value_map[v] for v in f.params)
        # Every block id and value id below these is its own image.
        same_blocks = next((new for new, old in enumerate(rpo) if new != old), len(rpo))
        same_values = next((new for old, new in value_map.items() if new != old), len(value_map))
        blocks = tuple(
            block
            if ids_below(block, same_blocks, same_values)
            else remap_block(block, value_map, block_map)
            for block in source
        )
    except KeyError:
        blocks = None
    if blocks is None or len(rpo) != len(f.blocks):
        _require_valid(f)
        raise ValueError(f"invalid function @{f.name}: cannot canonicalize")
    return ESequence(params, blocks, f)


def _require_valid(f: Function) -> None:
    violations = validate(f)
    if violations:
        raise ValueError(f"invalid function @{f.name}: " + "; ".join(violations))


def to_function(s: ESequence, name: str = "s") -> Function:
    """The sequence as a function named `name`; inverts `from_function`.
    Under the default name this is `s.function` itself. Either way it
    reads `s.function`, so an invalid source raises ValueError."""
    f = s.function
    return f if name == "s" else Function(name, s.params, 0, f.blocks)


def canonical_hash(s: ESequence) -> str:
    """Deterministic structural digest, stable across processes: the digest
    of `print_function(s.function)`. It prints the sequence's own blocks,
    from the texts they keep, which is `s.text`, so it equals `s.digest`."""
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
        edges = terminator_targets(b.terminator)
        labels = (' [label="then"]', ' [label="else"]') if len(edges) == 2 else ("",)
        for (target, _), label in zip(edges, labels):
            lines.append(f"  b{b.id} -> b{target}{label};")
    lines.append("}")
    return "\n".join(lines)
