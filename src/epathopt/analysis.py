"""Classical CFG analyses: back edges and natural loops, built on the CFG
walks a `Function` keeps (`rpo`, `preds`) and on the one dominance form,
the reverse-postorder positions of the immediate dominators that
validation's one solve leaves on it (`idom_positions`), compared by
position; `dominators`, the `{block: idom}` map, for callers that want
one; and `def_use`, the def-use chains, built only when called (no stored
variant keeps them): constant folding calls it for its feeders' uses, and
reads where each value is defined from the function's `defs`.

Only reducible control flow is supported; irreducible graphs raise
IrreducibleError rather than being silently mishandled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    BlockId,
    Function,
    ValueId,
    successors,
    terminator_values,
)


class IrreducibleError(Exception):
    """A retreating edge whose target does not dominate its source."""

    def __init__(self, edge: tuple[BlockId, BlockId]):
        src, dst = edge
        super().__init__(
            f"irreducible control flow: retreating edge b{src} -> b{dst} "
            "does not target a dominator"
        )
        self.edge = edge


@dataclass(frozen=True)
class LoopRegion:
    """A natural loop; back edges sharing a header are merged into one region."""

    header: BlockId
    body: frozenset[BlockId]
    back_edges: frozenset[tuple[BlockId, BlockId]]
    header_params: tuple[ValueId, ...]


# Definition and use sites for def-use chains.


@dataclass(frozen=True)
class ParamDef:
    block: BlockId
    index: int


@dataclass(frozen=True)
class InstrDef:
    block: BlockId


@dataclass(frozen=True)
class InstrUse:
    block: BlockId
    operand: int


@dataclass(frozen=True)
class TermUse:
    block: BlockId
    slot: int


DefSite = ParamDef | InstrDef
UseSite = InstrUse | TermUse


def _idoms(f: Function) -> tuple[int, ...]:
    """`f.idom_positions`, which the one solve of `f`'s validation yields
    (run now if `f` is not checked yet). Raises ValueError listing the
    violations when validation stops before its solve (a duplicate or
    negative block id, an undefined entry, a jump to an undefined block)."""
    if (idoms := f.idom_positions) is None:
        raise ValueError(f"invalid function @{f.name}: " + "; ".join(f.violations))
    return idoms


def dominators(f: Function) -> dict[BlockId, BlockId]:
    """Immediate dominators, read off `f.idom_positions`; the map lists the
    blocks in reverse postorder, and the entry block maps to itself. Raises
    ValueError listing the violations when validation stops before its
    solve. Nothing in saturation calls it: the analyses compare positions."""
    idoms = _idoms(f)
    rpo = f.rpo
    return {bid: rpo[i] for bid, i in zip(rpo, idoms)}


def _dominates(idoms: tuple[int, ...], i: int, j: int) -> bool:
    """Whether the block at reverse-postorder position i dominates the one
    at j. An immediate dominator always comes earlier in reverse postorder,
    so j's dominator chain is climbed only while it is later than i."""
    while j > i:
        j = idoms[j]
    return j == i


def find_back_edges(f: Function) -> set[tuple[BlockId, BlockId]]:
    """Every edge whose target dominates its source: the union of the
    loops' back edges.

    Raises IrreducibleError if some retreating edge is not such a back edge,
    naming the offending edge.
    """
    return {e for loop in Analyses.compute(f).loops for e in loop.back_edges}


def _back_edges(f: Function, idoms: tuple[int, ...]) -> set[tuple[BlockId, BlockId]]:
    """Back edges read off reverse postorder: an edge is retreating when its
    target's position is at most its source's, and every retreating edge of
    a reducible graph targets a dominator of its source."""
    index = {bid: i for i, bid in enumerate(f.rpo)}
    edges = set()
    for i, src in enumerate(f.rpo):
        for dst in successors(f, src):
            if (j := index[dst]) <= i:
                if not _dominates(idoms, j, i):
                    raise IrreducibleError(_dfs_irreducible_edge(f, idoms, index))
                edges.add((src, dst))
    return edges


def _dfs_irreducible_edge(
    f: Function, idoms: tuple[int, ...], index: dict[BlockId, int]
) -> tuple[BlockId, BlockId]:
    """The first retreating edge of a terminator-order DFS that does not
    target a dominator, so error messages name the same edge whatever the
    RPO tie-breaking. Run only once the reverse-postorder DFS has met such
    an edge: then every DFS meets one (Hecht and Ullman), so the search
    always ends with an edge."""
    on_stack = {f.entry}
    visited = {f.entry}
    stack: list[tuple[BlockId, list[BlockId]]] = [(f.entry, successors(f, f.entry))]
    while True:
        bid, pending = stack[-1]
        while pending:
            nxt = pending.pop(0)
            if nxt in on_stack and not _dominates(idoms, index[nxt], index[bid]):
                return bid, nxt
            if nxt not in visited:
                visited.add(nxt)
                on_stack.add(nxt)
                stack.append((nxt, successors(f, nxt)))
                break
        else:
            on_stack.discard(bid)
            stack.pop()


def natural_loop(f: Function, back_edge: tuple[BlockId, BlockId]) -> LoopRegion:
    """The loop whose back edges hold the given edge; all back edges into
    the same header contribute to one merged region. Raises ValueError for
    an edge that is not a back edge."""
    for loop in Analyses.compute(f).loops:
        if back_edge in loop.back_edges:
            return loop
    raise ValueError(f"{back_edge} is not a back edge of @{f.name}")


def _natural_loop(
    f: Function, header: BlockId, back: set[tuple[BlockId, BlockId]]
) -> LoopRegion:
    merged = frozenset(e for e in back if e[1] == header)
    body = {header}
    work = [src for src, _ in merged]
    while work:
        bid = work.pop()
        if bid in body:
            continue
        body.add(bid)
        work.extend(f.preds[bid])
    return LoopRegion(header, frozenset(body), merged, f.block(header).params)


def loop_regions(f: Function) -> list[LoopRegion]:
    """All natural loops, outermost-first (ties broken by header id)."""
    return Analyses.compute(f).loops


def def_use(f: Function) -> dict[ValueId, tuple[DefSite, tuple[UseSite, ...]]]:
    """Complete def-use chains, keyed by value in definition order; each
    value's uses in block order. One scan, block by block in ascending id."""
    defs: dict[ValueId, DefSite] = {}
    uses: dict[ValueId, list[UseSite]] = {}
    for b in sorted(f.blocks, key=lambda blk: blk.id):
        for i, v in enumerate(b.params):
            defs[v] = ParamDef(b.id, i)
        if instr := b.instruction:
            defs[instr.result] = InstrDef(b.id)
            for i, v in enumerate(instr.operands):
                uses.setdefault(v, []).append(InstrUse(b.id, i))
        for slot, v in enumerate(terminator_values(b.terminator)):
            uses.setdefault(v, []).append(TermUse(b.id, slot))
    return {v: (site, tuple(uses.get(v, ()))) for v, site in defs.items()}


@dataclass(frozen=True)
class Analyses:
    """The CFG facts of one function that rewrites and cost evaluation share:
    the function itself and its natural loops.

    Read-only: `ESequence.analyses` caches one bundle per sequence. It holds
    only what it computes; the walks `rpo` and `preds` and the definition
    map `defs` are read off `function`, the back edges are the loops'
    `back_edges`, and the one rule that needs uses, constant folding, calls
    `def_use`.
    """

    function: Function
    loops: list[LoopRegion]

    @classmethod
    def compute(cls, f: Function) -> "Analyses":
        """One pass: back edges checked against the dominator positions `f`'s
        validation keeps, compared as reverse-postorder positions with no
        `{block: idom}` map built, and loops read off the back edges. A
        canonical function inherits those positions and `rpo` from its
        source, so it is neither walked nor solved here, and no def-use chain
        is built. Raises IrreducibleError, or ValueError as `dominators`
        does."""
        back = _back_edges(f, _idoms(f))
        loops = [_natural_loop(f, h, back) for h in sorted({t for _, t in back})]
        loops.sort(key=lambda r: (-len(r.body), r.header))
        return cls(f, loops)
