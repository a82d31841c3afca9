"""The monotonic set of equivalent sequences, with provenance edges and the
fixed-point saturation driver.

Sequences are keyed by structural digest and are never removed or mutated;
every rewrite only ever grows the set. Insertion deduplicates by digest and
confirms with a full structural comparison, so hash consing cannot silently
conflate distinct sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .esequence import ESequence, analyze, verify
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


class EPath:
    """A growing, deduplicated set of equivalent sequences."""

    def __init__(self, seed: ESequence):
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

        Returns True if the sequence was new, False if a structurally equal
        one was already present (the edge is still recorded if itself new).
        Existing entries are never touched.
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
    in ascending digest order. The final set is the rewrite closure and is
    independent of rule order. `rule_application_counts` counts produced
    rewrite results per rule, duplicates included.

    Rule outputs are canonicalized without validation; only an output whose
    digest is new is verified (valid SSA, reducible), so each distinct
    sequence is validated and analyzed once. A duplicate is checked by
    `EPath.insert` to be structurally equal to the stored, verified one.

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
    deduplicated = iterations = 0

    while frontier and iterations < max_iterations:
        iterations += 1
        new: list[str] = []
        for digest in frontier:
            seq = path.sequence(digest)
            for rule in rules:
                for out in rule.apply(seq, analyze(seq)):
                    counts[rule.name] += 1
                    if out.digest not in path:
                        if len(path) >= max_sequences:
                            return SaturationReport(
                                iterations, len(path) - stored, deduplicated, False, counts
                            )
                        verify(out)
                    if path.insert(out, RewriteEdge(digest, out.digest, rule.name)):
                        new.append(out.digest)
                    else:
                        deduplicated += 1
        frontier = sorted(new)

    return SaturationReport(
        iterations, len(path) - stored, deduplicated, not frontier, counts
    )
