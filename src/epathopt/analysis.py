"""Classical CFG analyses: dominators, back edges, natural loops, and
def-use chains, built on the CFG walks a `Function` keeps (`rpo`, `preds`).
This module re-exports `reverse_postorder`.

Only reducible control flow is supported; irreducible graphs raise
IrreducibleError rather than being silently mishandled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    BlockId,
    Function,
    ValueId,
    reverse_postorder,
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
    """Immediate dominators via fixed-point iteration over reverse postorder
    (Cooper, Harvey and Kennedy), read from the walks `f` keeps.

    The entry block maps to itself.
    """
    rpo, preds = f.rpo, f.preds
    index = {bid: i for i, bid in enumerate(rpo)}
    idom: dict[BlockId, BlockId] = {f.entry: f.entry}

    def intersect(u: BlockId, v: BlockId) -> BlockId:
        while u != v:
            while index[u] > index[v]:
                u = idom[u]
            while index[v] > index[u]:
                v = idom[v]
        return u

    changed = True
    while changed:
        changed = False
        for bid in rpo[1:]:
            candidates = [p for p in preds[bid] if p in idom]
            new = candidates[0]
            for p in candidates[1:]:
                new = intersect(new, p)
            if idom.get(bid) != new:
                idom[bid] = new
                changed = True
    return idom


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
    """Complete def-use chains, keyed by value."""
    defs: dict[ValueId, DefSite] = {}
    uses: dict[ValueId, list[UseSite]] = {}
    for b in sorted(f.blocks, key=lambda blk: blk.id):
        for i, v in enumerate(b.params):
            defs[v] = ParamDef(b.id, i)
            uses.setdefault(v, [])
        for instr in b.instructions:
            defs[instr.result] = InstrDef(b.id)
            uses.setdefault(instr.result, [])
    for b in sorted(f.blocks, key=lambda blk: blk.id):
        for instr in b.instructions:
            for i, v in enumerate(instr.operands):
                uses.setdefault(v, []).append(InstrUse(b.id, i))
        for slot, v in enumerate(terminator_values(b.terminator)):
            uses.setdefault(v, []).append(TermUse(b.id, slot))
    return {v: (defs[v], tuple(uses[v])) for v in defs}


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
        """One pass: dominators over the walks `f` keeps, back edges and
        loops read off them. Raises IrreducibleError."""
        idom = dominators(f)
        back = _back_edges(f, idom)
        loops = [_natural_loop(f, h, back) for h in sorted({t for _, t in back})]
        loops.sort(key=lambda r: (-len(r.body), r.header))
        return cls(f, f.rpo, f.preds, idom, back, loops, def_use(f))
