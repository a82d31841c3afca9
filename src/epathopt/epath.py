"""The monotonic set of equivalent sequences, with provenance edges and the
fixed-point saturation driver.

Sequences are keyed by structural digest and are never removed or mutated;
every rewrite only ever grows the set. Insertion deduplicates by digest and
confirms by comparing canonical texts, which encode the structure one to
one, so hash consing cannot silently conflate distinct sequences. The set
analyzes every sequence before it stores it, which validates the sequence
and checks its reducibility, so it holds only valid, reducible SSA whatever
its callers pass in: `from_function` validates nothing, so the set is the one
trust gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .esequence import ESequence, analyze
from .rewrite import RewriteRule


@dataclass(frozen=True)
class RewriteEdge:
    """Provenance: rule_name turned the source sequence into the target."""

    source: str
    target: str
    rule_name: str


@dataclass
class SaturationReport:
    iterations: int
    inserted: int
    deduplicated: int
    reached_fixed_point: bool
    rule_application_counts: dict[str, int] = field(default_factory=dict)
    predicted: int = 0


class EPath:
    """A growing, deduplicated set of equivalent, checked sequences."""

    def __init__(self, seed: ESequence):
        analyze(seed)
        self._sequences: dict[str, ESequence] = {seed.digest: seed}
        self._edges: dict[RewriteEdge, None] = {}  # insertion-ordered set
        self.seed = seed.digest

    def __len__(self) -> int:
        return len(self._sequences)

    def __contains__(self, digest: str) -> bool:
        return digest in self._sequences

    def sequence(self, digest: str) -> ESequence:
        return self._sequences[digest]

    def digests(self) -> list[str]:
        return sorted(self._sequences)

    @property
    def edges(self) -> tuple[RewriteEdge, ...]:
        return tuple(self._edges)

    def insert(self, s: ESequence, edge: RewriteEdge) -> bool:
        """Add a sequence with its provenance edge.

        Returns True if the sequence was new, False if an equal one, with
        the same params and canonical blocks, was already present (the edge
        is still recorded if itself new). Existing entries are never
        touched; a stored sequence with the same digest that is not equal
        raises RuntimeError. A new sequence is analyzed first: an invalid
        one raises ValueError, an irreducible one IrreducibleError, and the
        path is left unchanged.
        """
        if edge.source not in self._sequences:
            raise ValueError(f"unknown source digest {edge.source}")
        if edge.target != s.digest:
            raise ValueError("edge target does not match sequence digest")
        seed_params = self._sequences[self.seed].params
        if len(s.params) != len(seed_params):
            raise ValueError(
                f"signature mismatch: sequence takes {len(s.params)} params, "
                f"seed takes {len(seed_params)}"
            )

        existing = self._sequences.get(s.digest)
        if existing is not None:
            if existing != s:
                raise RuntimeError(
                    f"digest collision: {s.digest} names two distinct sequences"
                )
            self._edges.setdefault(edge)
            return False

        analyze(s)
        self._sequences[s.digest] = s
        self._edges.setdefault(edge)
        return True

    def variants(self) -> list[ESequence]:
        """All sequences, in ascending digest order."""
        return [self._sequences[d] for d in sorted(self._sequences)]


def new_epath(seed: ESequence) -> EPath:
    return EPath(seed)


def saturate(
    path: EPath,
    rules: list[RewriteRule],
    *,
    max_iterations: int = 64,
    max_sequences: int = 100_000,
) -> SaturationReport:
    """Apply every rule to every sequence until no new sequence appears.

    Each (sequence, rule) pair is processed exactly once: iteration 1 applies
    every rule to every stored sequence, and each later iteration only to the
    frontier of sequences the previous one inserted, digest first, then rule,
    in ascending digest order. A rule is called as `rule.apply(seq)` and
    reads everything through the stored sequence, whose analyses the path
    computed when it stored it. The final set is the rewrite closure and is
    independent of rule order. `rule_application_counts` counts produced
    rewrite results per rule, duplicates included.

    A rule returns `Rewrite`s, each edited and canonicalized only when its
    `sequence` is first read, and `EPath.insert` validates and analyzes only
    a sequence whose digest is new. A rewrite that a commuting square
    predicts is never made: if `a = r1@x(s)` and `b = r2@y(s)` have disjoint
    footprints and `a`'s output at `y` is `T`, then `b`'s output at `x` is
    `T`, a duplicate, and its edge goes to the stored `T`. `predicted` counts
    those; `deduplicated` includes them. Squares close over the previous
    iteration's edges, which are kept for one iteration only, with block maps
    read from each made target's `source_rpo`. `insert` is called once per
    output either way.

    Rules are pure and sequences immutable, so applications over distinct
    sequences could run concurrently with `insert` as the only serialization
    point; this driver is single-threaded but never depends on application
    order.
    """
    if max_iterations <= 0 or max_sequences <= 0:
        raise ValueError("limits must be positive")

    stored = len(path)
    frontier = path.digests()
    counts = {rule.name: 0 for rule in rules}
    deduplicated = predicted = iterations = 0
    into: dict[str, list] = {}  # target -> [(its source's outputs, site)]

    while frontier and iterations < max_iterations:
        iterations += 1
        new: list[str] = []
        parents, into, predictions = into, {}, {}
        pending = set(frontier)
        for digest in frontier:
            pending.discard(digest)
            seq = path.sequence(digest)
            outputs: dict[tuple, tuple] = {}  # site -> (target, block map, footprint)
            for rule in rules:
                for out in rule.apply(seq):
                    counts[rule.name] += 1
                    known = predictions.get((digest, out.site))
                    if known:
                        predicted += 1
                        target, block_map = path.sequence(known[0]), known[1]
                    else:
                        target = out.sequence
                        if target.digest not in path and len(path) >= max_sequences:
                            return SaturationReport(
                                iterations, len(path) - stored, deduplicated, False, counts,
                                predicted,
                            )
                    if path.insert(target, RewriteEdge(digest, target.digest, rule.name)):
                        new.append(target.digest)
                    else:
                        deduplicated += 1
                    if out.site is not None:
                        if not known:
                            # The edit kept the ids of `seq`'s blocks.
                            position = {b: i for i, b in enumerate(target.source_rpo)}
                            block_map = tuple(map(position.get, range(len(seq))))
                        outputs[out.site] = (target.digest, block_map, out.footprint)
                        into.setdefault(target.digest, []).append((outputs, out.site))
                        if digest in parents:
                            _close_squares(
                                path, parents[digest], pending, predictions,
                                out.site, target.digest, block_map,
                            )
        frontier = sorted(new)

    return SaturationReport(
        iterations, len(path) - stored, deduplicated, not frontier, counts, predicted
    )


def _close_squares(path, parents, pending, predictions, site, target, a_to_t) -> None:
    """Predictions from the edge `a -r2@y'-> target`, `site` being `(r2, y')`:
    for each edge `s -r1@x-> a` in `parents` and each output `b = r2@y(s)`
    still `pending` whose footprint is disjoint from `x`'s, with `y` mapped to
    `y'` in `a`, `b`'s output at `x` is `target`. A block map sends each
    block of an edge's source to its id in the target, None if removed."""
    rule, y_in_a = site
    for siblings, x in parents:
        _, s_to_a, x_footprint = siblings[x]
        if y_in_a not in s_to_a:
            continue
        sibling = siblings.get((rule, s_to_a.index(y_in_a)))
        if sibling is None or sibling[0] not in pending:
            continue
        b, s_to_b, y_footprint = sibling
        key = (b, (x[0], s_to_b[x[1]]))
        if key in predictions or key[1][1] is None or not x_footprint.isdisjoint(y_footprint):
            continue
        b_to_t = [None] * len(path.sequence(b))
        for in_b, in_a in zip(s_to_b, s_to_a):
            if in_b is not None and in_a is not None:
                b_to_t[in_b] = a_to_t[in_a]
        predictions[key] = (target, tuple(b_to_t))
