"""Rewrite rules over canonical sequences.

A rule is a pure function, `apply(s)`, from one sequence to zero or more
`Rewrite`s, each naming a new, semantically equivalent sequence; it never
mutates its input, and it reads everything through `s`: its `function`, and
its cached `analyses` when it needs loops. A `Rewrite` holds its site,
footprint and edit, and makes its `sequence` on first read: the edit builds
a copy-on-write overlay of the sequence's function, and `from_function`
renders and digests the `Function` it finishes; `EPath.insert` checks each
new digest. Rules:

* ``licm``: hoist loop-invariant instructions into a preheader chain.
* ``constfold``: fold binary operations over two constants. It is a table
  of `ExprPattern`s, one per opcode, matched in one scan of the function by
  `_match_patterns`, the multi-pattern form of `match_expression` (kept
  deliberately small, no general dead-code elimination).
* ``broken``: deliberately unsound negative control for differential
  checking; never use outside tests or `check` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

from .analysis import Analyses, InstrUse, LoopRegion, def_use
from .esequence import ESequence, analyze, from_function
from .ir import (
    Block,
    BlockId,
    Function,
    IMPURE_OPCODES,
    Instruction,
    Jump,
    OPCODE_ARITY,
    Terminator,
    ValueId,
    edges_conflict,
    fold_constants,
    retarget,
    terminator_targets,
    wrap64,
)


class Rewrite:
    """A rule output: `site`, `(rule name, block)`, and `footprint`, the blocks
    the rewrite reads or writes, in its source's block ids (an output without
    a site is never predicted), and `edit()`, which builds the working copy;
    `sequence`, made on first read, canonicalizes the function it finishes."""

    def __init__(self, site: tuple[str, BlockId] | None, footprint, edit: Callable[[], _Editor]):
        self.site, self.footprint, self.edit = site, frozenset(footprint), edit

    @cached_property
    def sequence(self) -> ESequence:
        return from_function(self.edit().finish())


@dataclass(frozen=True)
class RewriteRule:
    name: str
    apply: Callable[[ESequence], list[Rewrite]]


@dataclass(frozen=True)
class LicmSplit:
    """Partition of a loop's instruction-bearing blocks into invariant and
    loop-dependent sets."""

    loop: LoopRegion
    invariant_blocks: tuple[BlockId, ...]
    variant_blocks: tuple[BlockId, ...]


# ---------------------------------------------------------------------------
# Expression-level matching


@dataclass(frozen=True)
class PatVar:
    """Binds any value (block parameter or instruction result)."""

    name: str


@dataclass(frozen=True)
class PatOp:
    """Matches an instruction by opcode; `imm` is an int literal, a binding
    name, or None (iconst only)."""

    opcode: str
    operands: tuple["PatOp | PatVar", ...] = ()
    imm: int | str | None = None


@dataclass(frozen=True)
class ExprPattern:
    """A linear pattern over the def-use graph; `root` names the binding that
    receives the matched root instruction's result."""

    root: str
    tree: PatOp

    def __post_init__(self):
        names = [self.root]

        def walk(node):
            if isinstance(node, PatVar):
                names.append(node.name)
                return
            if node.opcode not in OPCODE_ARITY:
                raise ValueError(f"unknown opcode in pattern: {node.opcode!r}")
            if len(node.operands) != OPCODE_ARITY[node.opcode]:
                raise ValueError(f"pattern arity mismatch for {node.opcode}")
            if node.imm is not None and node.opcode != "iconst":
                raise ValueError("only iconst patterns take an immediate")
            if isinstance(node.imm, str):
                names.append(node.imm)
            for sub in node.operands:
                walk(sub)

        walk(self.tree)
        if len(names) != len(set(names)):
            raise ValueError("pattern bindings must be linear")


def match_expression(pat: ExprPattern, s: ESequence) -> list[dict[str, int]]:
    """All embeddings of the pattern into the sequence's def-use graph.

    Operand order is respected (no commutativity); results are ordered by
    the root instruction's canonical block position. Binding values are
    ValueIds for PatVar bindings and immediates for iconst bindings. It reads
    `s.function` and needs no reducibility, so it never analyzes `s`.
    """
    return _match_patterns((pat,), s.function)[0]


def _match_patterns(patterns: tuple[ExprPattern, ...], f: Function) -> list[list[dict[str, int]]]:
    """`match_expression` of each pattern over a sequence's function `f`, in
    one scan of its blocks: an instruction is tried against the patterns
    rooted at its opcode, and an operand is followed to its defining
    instruction through `f.defs`, so the scan order fixes only the order of
    the matches."""
    by_root: dict[str, list[tuple[ExprPattern, list]]] = {}
    found: list[list[dict[str, int]]] = [[] for _ in patterns]
    for pat, matches in zip(patterns, found):
        by_root.setdefault(pat.tree.opcode, []).append((pat, matches))
    for b in f.blocks:
        if instr := b.instruction:
            for pat, matches in by_root.get(instr.opcode, ()):
                bindings = [(pat.root, instr.result)]
                if _match_node(pat.tree, instr, f, bindings):
                    matches.append(dict(bindings))
    return found


def _match_node(p: PatOp, instr: Instruction, f: Function, bindings: list) -> bool:
    """Whether `instr`, which has `p`'s opcode, matches `p`. An operand's
    defining instruction is the one in its block in `f.defs` whose result it
    is (a block parameter defines none); its opcode is checked before the
    walk goes in."""
    if isinstance(p.imm, str):
        bindings.append((p.imm, instr.imm))
    elif p.imm is not None and instr.imm != p.imm:
        return False
    for sub, operand in zip(p.operands, instr.operands):
        if type(sub) is PatVar:
            bindings.append((sub.name, operand))
            continue
        d = f.block(f.defs[operand]).instruction
        if d is None or d.result != operand or d.opcode != sub.opcode:
            return False
        if not _match_node(sub, d, f, bindings):
            return False
    return True


# ---------------------------------------------------------------------------
# Control-flow matching and invariance classification


def match_loops(s: ESequence) -> list[LoopRegion]:
    """All natural loops of the region, outermost first."""
    return list(analyze(s).loops)


def classify_invariance(
    loop: LoopRegion, s: ESequence, analyses: Analyses | None = None
) -> LicmSplit:
    """A block is invariant iff its instruction is pure and every operand is
    defined outside the loop or by an invariant instruction inside it. In
    SSA each value has one definition, so an operand is decided by the block
    that defines it, read from `f.defs`, and one value set, the results
    found invariant so far. One pass in reverse postorder decides every
    block: a definition dominates its uses, so its block comes first. Both
    tuples list blocks in ascending id."""
    f = (analyses or analyze(s)).function
    invariant: list[BlockId] = []
    variant: list[BlockId] = []
    hoisted: set[ValueId] = set()
    for bid in f.rpo:
        instr = bid in loop.body and f.block(bid).instruction
        if not instr:
            continue
        if instr.opcode not in IMPURE_OPCODES and all(
            f.defs[v] not in loop.body or v in hoisted for v in instr.operands
        ):
            hoisted.add(instr.result)
            invariant.append(bid)
        else:
            variant.append(bid)
    return LicmSplit(loop, tuple(sorted(invariant)), tuple(sorted(variant)))


# ---------------------------------------------------------------------------
# Function surgery shared by the rules


class _Editor:
    """Copy-on-write overlay of a function for building one rewrite result.

    `blocks` starts as the source's own map of immutable `Block`s. Every
    write puts a new `Block` in place through `add_block`, which
    `set_instruction` and `set_terminator` call, or deletes one in
    `try_splice`, so the source never changes. Edges into a block are moved
    by `ir.retarget`, whose result `set_terminator` stores. `written` holds
    the ids of the blocks the edit replaced, added or removed: the result is
    the source without them, plus the written blocks still in `blocks`.
    `finish()` returns the result as a `Function`."""

    def __init__(self, f: Function):
        self._source = f
        self.entry = f.entry
        self.blocks: dict[BlockId, Block] = dict(f._by_id)
        self.written: set[BlockId] = set()
        self._next_block = max(self.blocks) + 1
        self._next_value: ValueId | None = None

    def fresh_block(self) -> BlockId:
        self._next_block += 1
        return self._next_block - 1

    def fresh_value(self) -> ValueId:
        # Numbered past every value the source's definition map holds, not
        # the edited blocks': LICM detaches the instructions it hoists before
        # it asks for fresh ids.
        if self._next_value is None:
            self._next_value = max(self._source.defs, default=-1) + 1
        self._next_value += 1
        return self._next_value - 1

    def preds(self, bid: BlockId) -> list[BlockId]:
        """The current predecessors of `bid`, in ascending block id, as
        `predecessors` lists them: derived from the source's `f.preds[bid]`
        without the written blocks, plus each written block still present
        whose terminator targets `bid`."""
        kept = [p for p in self._source.preds.get(bid, ()) if p not in self.written]
        present = self.written & self.blocks.keys()
        return sorted(kept + [p for p in present if bid in _targets(self.blocks[p].terminator)])

    def set_instruction(self, bid: BlockId, instr: Instruction | None) -> None:
        b = self.blocks[bid]
        self.add_block(Block(bid, b.params, instr, b.terminator))

    def set_terminator(self, bid: BlockId, term: Terminator) -> None:
        b = self.blocks[bid]
        self.add_block(Block(bid, b.params, b.instruction, term))

    def add_block(self, block: Block) -> None:
        self.blocks[block.id] = block
        self.written.add(block.id)

    def try_splice(self, bid: BlockId) -> bool:
        """Remove a parameterless jump-only block, and record it as written:
        `retarget` sends each predecessor's edges into it to its target, with
        its jump's args. Refuses shapes the IR cannot express: a brif whose
        branches would collapse onto one target with differing args
        (`edges_conflict`), and an entry whose target has other predecessors,
        which would leave the new entry with predecessors."""
        b = self.blocks[bid]
        if b.params or not isinstance(b.terminator, Jump):
            return False
        target, args = b.terminator.target, b.terminator.args
        if target == bid:
            return False

        if bid == self.entry and args:
            raise ValueError(f"cannot splice entry block b{bid}: its jump passes arguments")
        if bid == self.entry and self.preds(target) != [bid]:
            return False

        updates: dict[BlockId, Terminator] = {}
        for p in self.preds(bid):
            new_term = retarget(
                self.blocks[p].terminator, lambda t, a: (target, args) if t == bid else (t, a)
            )
            if edges_conflict(new_term):
                return False
            updates[p] = new_term

        for p, new_term in updates.items():
            self.set_terminator(p, new_term)
        if bid == self.entry:
            self.entry = target
        del self.blocks[bid]
        self.written.add(bid)
        return True

    def finish(self) -> Function:
        entry = self.blocks[self.entry]
        return Function(self._source.name, entry.params, self.entry, tuple(self.blocks.values()))


def _targets(term: Terminator) -> set[BlockId]:
    return {t for t, _ in terminator_targets(term)}


# ---------------------------------------------------------------------------
# LICM


def apply_licm(s: ESequence) -> list[Rewrite]:
    """One hoisted variant per loop with a non-empty invariant set.

    All invariant instructions of a loop move together, in dependency order,
    into a preheader chain placed on the loop-entry path; the loop keeps only
    its loop-dependent blocks. Returns [] when nothing is hoistable. The
    site is the loop's header, the footprint its body and the header's
    predecessors."""
    analyses = analyze(s)
    out = []
    for loop in analyses.loops:
        split = classify_invariance(loop, s, analyses)
        if split.invariant_blocks:
            footprint = loop.body.union(analyses.function.preds[loop.header])
            edit = partial(_hoist, analyses.function, loop, split)
            out.append(Rewrite(("licm", loop.header), footprint, edit))
    return out


def _hoist(f: Function, loop: LoopRegion, split: LicmSplit) -> _Editor:
    ed = _Editor(f)
    header = loop.header
    hoisted = [f.block(bid).instruction for bid in split.invariant_blocks]

    # Detach invariant instructions. The header must keep its place; blocks
    # that cannot be spliced out stay behind as empty pass-throughs.
    for bid in split.invariant_blocks:
        ed.set_instruction(bid, None)
        if bid != header:
            ed.try_splice(bid)

    # The entry block has no predecessors, so it is never a loop header and
    # every header has at least one predecessor outside the body.
    entry_preds = [p for p in ed.preds(header) if p not in loop.body]
    chain = [ed.fresh_block() for _ in hoisted]

    if len(entry_preds) == 1:
        # Splice the chain onto the single entry edge; the edge's arguments
        # move to the chain's final jump.
        p = entry_preds[0]
        term = ed.blocks[p].terminator
        final_args = next(a for t, a in terminator_targets(term) if t == header)
        ed.set_terminator(p, retarget(term, lambda t, a: (chain[0], ()) if t == header else (t, a)))
    else:
        # Multiple entry edges merge through one forwarding block so hoisted
        # results keep dominating their uses inside the loop.
        merge = ed.fresh_block()
        fresh = tuple(ed.fresh_value() for _ in ed.blocks[header].params)
        ed.add_block(Block(merge, fresh, None, Jump(chain[0], ())))
        for p in entry_preds:
            term = ed.blocks[p].terminator
            ed.set_terminator(p, retarget(term, lambda t, a: (merge, a) if t == header else (t, a)))
        final_args = fresh

    for i, (bid, instr) in enumerate(zip(chain, hoisted)):
        term = Jump(chain[i + 1], ()) if i + 1 < len(chain) else Jump(header, final_args)
        ed.add_block(Block(bid, (), instr, term))

    return ed


# ---------------------------------------------------------------------------
# Constant folding


_CONSTFOLD = tuple(
    ExprPattern("root", PatOp(op, (PatOp("iconst", imm="a"), PatOp("iconst", imm="b"))))
    for op in ("iadd", "isub", "imul", "icmp_slt")
)


def apply_const_fold(s: ESequence) -> list[Rewrite]:
    """One variant per match of a `_CONSTFOLD` pattern `op(iconst a, iconst b)`,
    ordered by pattern, then by block: the matched block, the site, becomes
    `iconst fold_constants(op, a, b)`, and dead constant feeders are
    straightened out of the block chain where `_Editor.try_splice` allows
    it. It reads `s.function` only: `_fold` reads each definition's block
    from `f.defs`, and the feeders' uses from the def-use chains, which are
    built once, and only when some pattern matched."""
    f = s.function
    found = _match_patterns(_CONSTFOLD, f)
    chains = def_use(f) if any(found) else {}
    return [_fold(f, chains, p, m) for p, ms in zip(_CONSTFOLD, found) for m in ms]


def _fold(f: Function, chains: dict, p: ExprPattern, m: dict[str, int]) -> Rewrite:
    """The output that folds `m`. The root's and each feeder's block are read
    from `f.defs`, a feeder's uses from the def-use `chains`; a feeder read
    only by the folded instruction is dead, and its block is spliced out
    unless the splice is refused. The footprint holds the root, each
    feeder's definition and uses, and each dead block's predecessors and
    targets."""
    root = f.defs[m["root"]]
    footprint = {root}
    dead = []
    for feeder in dict.fromkeys(f.block(root).instruction.operands):
        block, uses = f.defs[feeder], chains[feeder][1]
        footprint.update((block,), (u.block for u in uses))
        if all(isinstance(u, InstrUse) and u.block == root for u in uses):
            dead.append(block)
            footprint.update(f.preds[block])
            footprint.update(_targets(f.block(block).terminator))
    fold = partial(fold_constants, p.tree.opcode, m["a"], m["b"])
    return Rewrite(("constfold", root), footprint, partial(_fold_at, f, root, fold, dead))


def _fold_at(f: Function, root: BlockId, fold: Callable[[], int], dead: list) -> _Editor:
    """The edit of a fold: `root`'s instruction becomes `iconst fold()`,
    computed and built only when the output is made, and each `dead` block
    is spliced out where `_Editor.try_splice` allows it."""
    ed = _Editor(f)
    ed.set_instruction(root, Instruction("iconst", f.block(root).instruction.result, (), fold()))
    for bid in dead:
        ed.try_splice(bid)
    return ed


# ---------------------------------------------------------------------------
# Negative control


def apply_broken(s: ESequence) -> list[Rewrite]:
    """Unsound on purpose: bumps the first constant it finds. Exists so the
    differential checker has something to catch. Which constant is first
    depends on every block before it, so the output has no site. The edit
    is a fold that splices nothing."""
    for b in s.blocks:
        instr = b.instruction
        if instr and instr.opcode == "iconst":
            bump = partial(wrap64, instr.imm + 1)
            return [Rewrite(None, (), partial(_fold_at, s.function, b.id, bump, ()))]
    return []


RULES: dict[str, RewriteRule] = {
    "licm": RewriteRule("licm", apply_licm),
    "constfold": RewriteRule("constfold", apply_const_fold),
    "broken": RewriteRule("broken", apply_broken),
}


def rules_named(names: list[str]) -> list[RewriteRule]:
    unknown = [n for n in names if n not in RULES]
    if unknown:
        raise ValueError(f"unknown rules: {', '.join(unknown)}")
    return [RULES[n] for n in names]
