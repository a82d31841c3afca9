"""Classical CFG analyses: dominators (read off the immediate dominators
that validation's one solve leaves on a `Function`), back edges, natural
loops, and def-use chains, built on the CFG walks a `Function` keeps
(`rpo`, `preds`).

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


def dominators(f: Function) -> dict[BlockId, BlockId]:
    """Immediate dominators, read off `f.idom_positions`, which the one solve
    of `f`'s validation yields (run now if `f` is not checked yet); the map
    lists the blocks in reverse postorder, and the entry block maps to
    itself. Raises ValueError listing the violations when validation stops
    before its solve (a duplicate or negative block id, an undefined entry,
    a jump to an undefined block).
    """
    if (idoms := f.idom_positions) is None:
        raise ValueError(f"invalid function @{f.name}: " + "; ".join(f.violations))
    rpo = f.rpo
    return {bid: rpo[i] for bid, i in zip(rpo, idoms)}


def dominates(idom: dict[BlockId, BlockId], a: BlockId, b: BlockId) -> bool:
    """Whether a dominates b under the given immediate-dominator map."""
    while True:
        if a == b:
            return True
        parent = idom[b]
        if parent == b:
            return False
        b = parent


def find_back_edges(f: Function) -> set[tuple[BlockId, BlockId]]:
    """Every edge whose target dominates its source.

    Raises IrreducibleError if some retreating edge is not such a back edge,
    naming the offending edge.
    """
    return Analyses.compute(f).back_edges


def _back_edges(f: Function, idom: dict[BlockId, BlockId]) -> set[tuple[BlockId, BlockId]]:
    """Back edges read off reverse postorder: an edge is retreating when its
    target's index is at most its source's, and every retreating edge of a
    reducible graph targets a dominator of its source."""
    index = {bid: i for i, bid in enumerate(f.rpo)}
    edges = set()
    for src in f.rpo:
        for dst in successors(f, src):
            if index[dst] <= index[src]:
                if not dominates(idom, dst, src):
                    raise IrreducibleError(_dfs_irreducible_edge(f, idom) or (src, dst))
                edges.add((src, dst))
    return edges


def _dfs_irreducible_edge(
    f: Function, idom: dict[BlockId, BlockId]
) -> tuple[BlockId, BlockId] | None:
    """The first retreating edge of a terminator-order DFS that does not
    target a dominator. Run only once the graph is known to be irreducible,
    so error messages name the same edge whatever the RPO tie-breaking."""
    on_stack = {f.entry}
    visited = {f.entry}
    stack: list[tuple[BlockId, list[BlockId]]] = [(f.entry, successors(f, f.entry))]
    while stack:
        bid, pending = stack[-1]
        while pending:
            nxt = pending.pop(0)
            if nxt in on_stack and not dominates(idom, nxt, bid):
                return bid, nxt
            if nxt not in visited:
                visited.add(nxt)
                on_stack.add(nxt)
                stack.append((nxt, successors(f, nxt)))
                break
        else:
            on_stack.discard(bid)
            stack.pop()
    return None


def natural_loop(f: Function, back_edge: tuple[BlockId, BlockId]) -> LoopRegion:
    """The loop of the given back edge; all back edges into the same header
    contribute to one merged region."""
    analyses = Analyses.compute(f)
    if back_edge not in analyses.back_edges:
        raise ValueError(f"{back_edge} is not a back edge of @{f.name}")
    return next(loop for loop in analyses.loops if loop.header == back_edge[1])


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
        for instr in b.instructions:
            defs[instr.result] = InstrDef(b.id)
            for i, v in enumerate(instr.operands):
                uses.setdefault(v, []).append(InstrUse(b.id, i))
        for slot, v in enumerate(terminator_values(b.terminator)):
            uses.setdefault(v, []).append(TermUse(b.id, slot))
    return {v: (site, tuple(uses.get(v, ()))) for v, site in defs.items()}


@dataclass(frozen=True)
class Analyses:
    """Per-function analysis bundle shared by rewrites and cost evaluation.

    Read-only: `ESequence.analyses` caches one bundle per sequence. `rpo`
    and `preds` are the walks `function` keeps.
    """

    function: Function
    rpo: list[BlockId]
    preds: dict[BlockId, list[BlockId]]
    idom: dict[BlockId, BlockId]
    back_edges: set[tuple[BlockId, BlockId]]
    loops: list[LoopRegion]
    def_use: dict[ValueId, tuple[DefSite, tuple[UseSite, ...]]]

    @classmethod
    def compute(cls, f: Function) -> "Analyses":
        """One pass: dominators read off the positions `f`'s validation keeps
        (called by this module's global name, so a wrapper put there counts
        them), back edges and loops read off them. A canonical function
        inherits those positions and `rpo` from its source, so it is neither
        walked nor solved here. Raises IrreducibleError, or ValueError as
        `dominators` does."""
        idom = dominators(f)
        back = _back_edges(f, idom)
        loops = [_natural_loop(f, h, back) for h in sorted({t for _, t in back})]
        loops.sort(key=lambda r: (-len(r.body), r.header))
        return cls(f, f.rpo, f.preds, idom, back, loops, def_use(f))
