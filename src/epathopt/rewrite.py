"""Rewrite rules over canonical sequences.

A rule is a pure function from one sequence to zero or more new, semantically
equivalent sequences; it never mutates its input. Rules edit a copy-on-write
overlay of the sequence's function and hand the `Function` it finishes to
`from_function`, which renders and digests it without validating it or
building its blocks; `saturate` verifies each new digest.
Shipped rules:

* ``licm``: hoist loop-invariant instructions into a preheader chain.
* ``constfold``: fold binary operations over two constants, found in one
  scan of the function (`match_expression` is the reference the scan is
  tested against; kept deliberately small, no general dead-code
  elimination).
* ``broken``: deliberately unsound negative control for differential
  checking; never use outside tests or `check` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .analysis import Analyses, InstrDef, InstrUse, LoopRegion
from .esequence import ESequence, analyze, from_function
from .ir import (
    Block,
    BlockId,
    BrIf,
    Function,
    IMPURE_OPCODES,
    Instruction,
    Jump,
    OPCODE_ARITY,
    Terminator,
    ValueId,
    fold_constants,
    terminator_targets,
    wrap64,
)


@dataclass(frozen=True)
class RewriteRule:
    name: str
    apply: Callable[[ESequence, Analyses], list[ESequence]]


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
    ValueIds for PatVar bindings and immediates for iconst bindings.
    """
    instr_by_result: dict[ValueId, Instruction] = {}
    for b in s.blocks:
        if b.instruction:
            instr_by_result[b.instruction.result] = b.instruction

    matches = []
    for b in s.blocks:
        if not b.instruction:
            continue
        bindings: dict[str, int] = {}
        if _match_node(pat.tree, b.instruction, instr_by_result, bindings):
            bindings[pat.root] = b.instruction.result
            matches.append(bindings)
    return matches


def _match_node(p: PatOp, instr: Instruction, instr_by_result, bindings) -> bool:
    if instr.opcode != p.opcode:
        return False
    if p.opcode == "iconst" and p.imm is not None:
        if isinstance(p.imm, str):
            bindings[p.imm] = instr.imm
        elif instr.imm != p.imm:
            return False
    for sub, operand in zip(p.operands, instr.operands):
        if isinstance(sub, PatVar):
            bindings[sub.name] = operand
        else:
            defining = instr_by_result.get(operand)
            if defining is None:  # block parameter, not an instruction
                return False
            if not _match_node(sub, defining, instr_by_result, bindings):
                return False
    return True


# ---------------------------------------------------------------------------
# Control-flow matching and invariance classification


def match_loops(s: ESequence, analyses: Analyses | None = None) -> list[LoopRegion]:
    """All natural loops of the region, outermost first."""
    analyses = analyses or analyze(s)
    return list(analyses.loops)


def classify_invariance(
    loop: LoopRegion, s: ESequence, analyses: Analyses | None = None
) -> LicmSplit:
    """A block is invariant iff its instruction is pure and every operand is
    defined outside the loop or by an invariant block inside it. One pass in
    reverse postorder decides every block: a definition dominates its uses,
    so its block comes first. Both tuples list blocks in ascending id."""
    analyses = analyses or analyze(s)
    f = analyses.function
    def_use = analyses.def_use

    candidates: list[BlockId] = []
    invariant: set[BlockId] = set()
    for bid in analyses.rpo:
        instr = bid in loop.body and f.block(bid).instruction
        if not instr:
            continue
        candidates.append(bid)
        if instr.opcode not in IMPURE_OPCODES and all(
            _invariant_operand(def_use[v][0], loop, invariant) for v in instr.operands
        ):
            invariant.add(bid)

    candidates.sort()
    return LicmSplit(
        loop,
        tuple(b for b in candidates if b in invariant),
        tuple(b for b in candidates if b not in invariant),
    )


def _invariant_operand(site, loop: LoopRegion, invariant: set) -> bool:
    if site.block not in loop.body:
        return True
    return isinstance(site, InstrDef) and site.block in invariant


# ---------------------------------------------------------------------------
# Function surgery shared by the rules


class _Editor:
    """Copy-on-write overlay of a function for building one rewrite result.

    `blocks` starts as the source's own map of immutable `Block`s; every
    write replaces a block through `set_instruction`, `set_terminator`,
    `add_block` or `try_splice`, so the source never changes. `finish()`
    returns the result as a `Function`.

    The overlay keeps every block's predecessors, sorted by block id, as
    `predecessors` lists them. It starts from `f.preds`, the map `f` keeps
    (for an analyzed sequence's function, the one its analyses read); a
    changed list is replaced, never edited in place."""

    def __init__(self, f: Function):
        self._source = f
        self.entry = f.entry
        self.blocks: dict[BlockId, Block] = dict(f._by_id)
        self._preds: dict[BlockId, list[BlockId]] = dict(f.preds)
        self._next_block = max(self.blocks) + 1
        self._next_value: ValueId | None = None

    def fresh_block(self) -> BlockId:
        self._next_block += 1
        return self._next_block - 1

    def fresh_value(self) -> ValueId:
        # Numbered past the source's values, not the edited blocks': LICM
        # detaches the instructions it hoists before it asks for fresh ids.
        if self._next_value is None:
            f = self._source
            defined = [v for b in f.blocks for v in b.params]
            defined += [b.instruction.result for b in f.blocks if b.instruction]
            self._next_value = max(defined, default=-1) + 1
        self._next_value += 1
        return self._next_value - 1

    def preds(self, bid: BlockId) -> list[BlockId]:
        """The predecessors of `bid`; read-only."""
        return self._preds[bid]

    def set_instruction(self, bid: BlockId, instr: Instruction | None) -> None:
        b = self.blocks[bid]
        self.blocks[bid] = Block(bid, b.params, (instr,) if instr else (), b.terminator)

    def set_terminator(self, bid: BlockId, term: Terminator) -> None:
        b = self.blocks[bid]
        old, new = _targets(b.terminator), _targets(term)
        for t in old - new:
            self._preds[t] = [p for p in self._preds[t] if p != bid]
        for t in new - old:
            self._preds[t] = sorted([*self._preds.get(t, ()), bid])
        self.blocks[bid] = Block(bid, b.params, b.instructions, term)

    def add_block(self, block: Block) -> None:
        self.blocks[block.id] = block
        self._preds.setdefault(block.id, [])
        for t in _targets(block.terminator):
            self._preds[t] = sorted([*self._preds.get(t, ()), block.id])

    def try_splice(self, bid: BlockId) -> bool:
        """Remove a parameterless jump-only block, rewiring its predecessors
        to its target. Refuses shapes the IR cannot express (a brif whose
        branches would collapse onto one target with differing args)."""
        b = self.blocks[bid]
        if b.params or not isinstance(b.terminator, Jump):
            return False
        target, args = b.terminator.target, b.terminator.args
        if target == bid:
            return False

        if bid == self.entry and args:
            raise ValueError(f"cannot splice entry block b{bid}: its jump passes arguments")

        updates: dict[BlockId, Terminator] = {}
        for p in self.preds(bid):
            new_term = _redirect(self.blocks[p].terminator, bid, target, lambda _: args)
            if (
                isinstance(new_term, BrIf)
                and new_term.then_target == new_term.else_target
                and new_term.then_args != new_term.else_args
            ):
                return False
            updates[p] = new_term

        for p, new_term in updates.items():
            self.set_terminator(p, new_term)
        if bid == self.entry:
            self.entry = target
        del self.blocks[bid]
        del self._preds[bid]
        self._preds[target] = [p for p in self._preds[target] if p != bid]
        return True

    def finish(self) -> Function:
        entry = self.blocks[self.entry]
        return Function(self._source.name, entry.params, self.entry, tuple(self.blocks.values()))


def _targets(term: Terminator) -> set[BlockId]:
    return {t for t, _ in terminator_targets(term)}


def _redirect(term: Terminator, old: BlockId, new: BlockId, make_args) -> Terminator:
    if isinstance(term, Jump):
        if term.target == old:
            return Jump(new, make_args(term.args))
        return term
    if isinstance(term, BrIf):
        then_target, then_args = term.then_target, term.then_args
        else_target, else_args = term.else_target, term.else_args
        if then_target == old:
            then_target, then_args = new, make_args(then_args)
        if else_target == old:
            else_target, else_args = new, make_args(else_args)
        return BrIf(term.cond, then_target, then_args, else_target, else_args)
    return term


# ---------------------------------------------------------------------------
# LICM


def apply_licm(s: ESequence, analyses: Analyses | None = None) -> list[ESequence]:
    """One hoisted variant per loop with a non-empty invariant set.

    All invariant instructions of a loop move together, in dependency order,
    into a preheader chain placed on the loop-entry path; the loop keeps only
    its loop-dependent blocks. Returns [] when nothing is hoistable.
    """
    analyses = analyses or analyze(s)
    out = []
    for loop in analyses.loops:
        split = classify_invariance(loop, s, analyses)
        if split.invariant_blocks:
            out.append(from_function(_hoist(analyses, loop, split).finish(), checked=False))
    return out


def _hoist(analyses: Analyses, loop: LoopRegion, split: LicmSplit) -> _Editor:
    f = analyses.function
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
        ed.set_terminator(p, _redirect(term, header, chain[0], lambda _: ()))
    else:
        # Multiple entry edges merge through one forwarding block so hoisted
        # results keep dominating their uses inside the loop.
        merge = ed.fresh_block()
        fresh = tuple(ed.fresh_value() for _ in ed.blocks[header].params)
        ed.add_block(Block(merge, fresh, (), Jump(chain[0], ())))
        for p in entry_preds:
            ed.set_terminator(p, _redirect(ed.blocks[p].terminator, header, merge, lambda a: a))
        final_args = fresh

    for i, (bid, instr) in enumerate(zip(chain, hoisted)):
        term = Jump(chain[i + 1], ()) if i + 1 < len(chain) else Jump(header, final_args)
        ed.add_block(Block(bid, (), (instr,), term))

    return ed


# ---------------------------------------------------------------------------
# Constant folding


_FOLDABLE = ("iadd", "isub", "imul", "icmp_slt")


def apply_const_fold(s: ESequence, analyses: Analyses | None = None) -> list[ESequence]:
    """One variant per `op(iconst, iconst)` match, with the matched block
    rewritten to the folded constant and dead constant feeders straightened
    out of the block chain."""
    analyses = analyses or analyze(s)
    return [_fold_at(analyses, opcode, m) for opcode, m in _fold_sites(analyses.function)]


def _fold_sites(f: Function) -> list[tuple[str, dict[str, int]]]:
    """Every `op(iconst, iconst)` site for `op` in `_FOLDABLE`, in one scan:
    ordered by `_FOLDABLE`, then by block order, with the bindings that
    `match_expression` gives for `op(iconst a, iconst b)` rooted at `root`."""
    consts: dict[ValueId, int] = {}
    candidates: list[Instruction] = []
    for b in f.blocks:
        for instr in b.instructions:
            if instr.opcode == "iconst":
                consts[instr.result] = instr.imm
            elif instr.opcode in _FOLDABLE:
                candidates.append(instr)
    sites: dict[str, list[dict[str, int]]] = {op: [] for op in _FOLDABLE}
    for instr in candidates:
        x, y = instr.operands
        if x in consts and y in consts:
            sites[instr.opcode].append({"a": consts[x], "b": consts[y], "root": instr.result})
    return [(op, m) for op in _FOLDABLE for m in sites[op]]


def _fold_at(analyses: Analyses, opcode: str, m: dict[str, int]) -> ESequence:
    ed = _Editor(analyses.function)
    root_bid = analyses.def_use[m["root"]][0].block
    old = ed.blocks[root_bid].instruction
    folded = fold_constants(opcode, m["a"], m["b"])
    ed.set_instruction(root_bid, Instruction("iconst", old.result, (), folded))

    # A feeder read only by the folded instruction is now dead. Splicing one
    # feeder's block out leaves the other feeder's uses as they were.
    for feeder in dict.fromkeys(old.operands):
        site, uses = analyses.def_use[feeder]
        if all(isinstance(u, InstrUse) and u.block == root_bid for u in uses):
            ed.try_splice(site.block)
    return from_function(ed.finish(), checked=False)


# ---------------------------------------------------------------------------
# Negative control


def apply_broken(s: ESequence, analyses: Analyses | None = None) -> list[ESequence]:
    """Unsound on purpose: bumps the first constant it finds. Exists so the
    differential checker has something to catch."""
    for b in s.blocks:
        instr = b.instruction
        if instr and instr.opcode == "iconst":
            ed = _Editor(s.function)
            ed.set_instruction(b.id, Instruction("iconst", instr.result, (), wrap64(instr.imm + 1)))
            return [from_function(ed.finish(), checked=False)]
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
