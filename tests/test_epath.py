import dataclasses
import random

import pytest

from epathopt import (
    Analyses,
    Block,
    BrIf,
    EPath,
    Function,
    Instruction,
    IrreducibleError,
    Jump,
    Ret,
    RewriteEdge,
    RewriteRule,
    analyze,
    from_function,
    new_epath,
    parse_function,
    remap,
    rules_named,
    saturate,
    sort_by_cost,
    to_function,
)
from conftest import CORPUS_DIR, load_corpus
from oracles import brute_closure

RULES = rules_named(["licm", "constfold"])


def seed_of(name):
    return from_function(load_corpus()[name])


def test_new_epath_singleton():
    s = seed_of("identity.ir")
    p = new_epath(s)
    assert len(p) == 1
    assert p.variants() == [s]
    assert p.seed == s.digest


def test_seed_digest_stable_across_runs():
    assert seed_of("sec2_loop.ir").digest == seed_of("sec2_loop.ir").digest


def test_insert_and_duplicate():
    s = seed_of("sec2_loop.ir")
    p = EPath(s)
    (hoisted,) = RULES[0].apply(s, analyze(s))
    edge = RewriteEdge(s.digest, hoisted.digest, "licm")
    assert p.insert(hoisted, edge) is True
    assert len(p) == 2
    assert p.insert(hoisted, edge) is False
    assert len(p) == 2
    assert len(p.edges) == 1


def test_duplicate_insert_records_new_edge():
    s = seed_of("sec2_loop.ir")
    p = EPath(s)
    (hoisted,) = RULES[0].apply(s, analyze(s))
    p.insert(hoisted, RewriteEdge(s.digest, hoisted.digest, "licm"))
    assert p.insert(hoisted, RewriteEdge(hoisted.digest, hoisted.digest, "other")) is False
    assert len(p.edges) == 2


def test_insert_alpha_renamed_copy_is_duplicate():
    f = load_corpus()["sec2_loop.ir"]
    s = from_function(f)
    p = EPath(s)
    rng = random.Random(11)
    perm_v = list(range(40))
    rng.shuffle(perm_v)
    perm_b = list(range(20))
    rng.shuffle(perm_b)
    values = sorted({v for b in f.blocks for v in b.params}
                    | {b.instruction.result for b in f.blocks if b.instruction})
    renamed = remap(f, {v: perm_v[v] for v in values}, {b.id: perm_b[b.id] for b in f.blocks})
    copy = from_function(renamed)
    assert p.insert(copy, RewriteEdge(s.digest, copy.digest, "noop")) is False
    assert len(p) == 1


def test_insert_errors():
    s = seed_of("sec2_loop.ir")
    other = seed_of("straightline_add.ir")  # two params vs one
    p = EPath(s)
    with pytest.raises(ValueError, match="unknown source"):
        p.insert(s, RewriteEdge("0" * 16, s.digest, "r"))
    with pytest.raises(ValueError, match="signature mismatch"):
        p.insert(other, RewriteEdge(s.digest, other.digest, "r"))
    with pytest.raises(ValueError, match="does not match"):
        p.insert(s, RewriteEdge(s.digest, "f" * 16, "r"))


def test_variants_sorted_by_digest():
    p = EPath(seed_of("diamond_consts.ir"))
    saturate(p, RULES)
    digests = [s.digest for s in p.variants()]
    assert digests == sorted(digests)


def test_saturate_no_rules_single_iteration():
    p = EPath(seed_of("identity.ir"))
    report = saturate(p, [])
    assert report.iterations == 1
    assert report.reached_fixed_point is True
    assert report.inserted == 0
    assert len(p) == 1


def test_saturate_sec2_licm_two_variants():
    p = EPath(seed_of("sec2_loop.ir"))
    report = saturate(p, rules_named(["licm"]))
    assert len(p) == 2
    assert report.reached_fixed_point is True
    assert report.inserted == 1
    assert report.rule_application_counts == {"licm": 1}


def test_saturate_report_bookkeeping(corpus):
    for name in corpus:
        p = EPath(seed_of(name))
        report = saturate(p, RULES)
        assert report.inserted + 1 == len(p), name
        assert len(p.variants()) == report.inserted + 1, name


def test_saturate_matches_brute_force_closure(corpus):
    for name in corpus:
        seed = seed_of(name)
        p = EPath(seed)
        saturate(p, RULES)
        assert set(p.digests()) == brute_closure(seed, RULES), name


def test_saturate_order_independent(corpus):
    flipped = rules_named(["constfold", "licm"])
    for name in corpus:
        a = EPath(seed_of(name))
        saturate(a, RULES)
        b = EPath(seed_of(name))
        saturate(b, flipped)
        assert set(a.digests()) == set(b.digests()), name


def test_saturate_twice_inserts_nothing(corpus):
    for name in corpus:
        p = EPath(seed_of(name))
        saturate(p, RULES)
        size = len(p)
        again = saturate(p, RULES)
        assert again.inserted == 0, name
        assert len(p) == size, name
        assert again.reached_fixed_point is True


def test_saturate_monotonic_growth():
    p = EPath(seed_of("loop_invariant_chain.ir"))
    original_insert = EPath.insert
    snapshots = []

    def checked(self, s, edge):
        before = set(self._sequences)
        result = original_insert(self, s, edge)
        after = set(self._sequences)
        assert before <= after
        snapshots.append(len(after))
        return result

    EPath.insert = checked
    try:
        saturate(p, RULES)
    finally:
        EPath.insert = original_insert
    assert snapshots == sorted(snapshots)
    assert len(p) == 5


def test_saturate_iteration_limit():
    p = EPath(seed_of("loop_invariant_chain.ir"))
    report = saturate(p, RULES, max_iterations=1)
    assert report.iterations == 1
    assert report.reached_fixed_point is False
    assert len(p) < 5


def test_saturate_sequence_limit():
    p = EPath(seed_of("loop_invariant_chain.ir"))
    report = saturate(p, RULES, max_sequences=2)
    assert report.reached_fixed_point is False
    assert len(p) == 2


def test_saturate_rejects_bad_limits():
    p = EPath(seed_of("identity.ir"))
    with pytest.raises(ValueError):
        saturate(p, [], max_iterations=0)


def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_each_distinct_sequence_analyzed_once(monkeypatch):
    import epathopt.analysis as analysis
    import epathopt.ir as ir

    calls = {}
    _count_calls(monkeypatch, analysis, "dominators", calls)
    _count_calls(monkeypatch, ir, "predecessors", calls)
    compute = Analyses.__dict__["compute"].__func__

    def counted_compute(cls, f):
        calls["compute"] = calls.get("compute", 0) + 1
        return compute(cls, f)

    monkeypatch.setattr(Analyses, "compute", classmethod(counted_compute))

    p = EPath(seed_of("nested_loops.ir"))
    saturate(p, RULES)
    sort_by_cost(p.variants())
    assert len(p) > 2
    assert calls == {"dominators": len(p), "predecessors": len(p), "compute": len(p)}
    for s in p.variants():
        assert analyze(s).function is s.function is to_function(s)


def _emitting(function):
    """A rule whose only output is `function`, canonicalized as rules do."""
    return RewriteRule("emit", lambda s, analyses: [from_function(function, checked=False)])


def test_saturate_rejects_new_invalid_output():
    # The parser rejects these, so they are built directly.
    # v1 is defined on one arm of the diamond only, then used at the merge.
    undominated = Function("f", (0,), 0, (
        Block(0, (0,), (), BrIf(0, 1, (), 2, ())),
        Block(1, (), (Instruction("iconst", 1, (), 1),), Jump(3, ())),
        Block(2, (), (), Jump(3, ())),
        Block(3, (), (), Ret((1,))),
    ))
    with pytest.raises(ValueError, match="invalid function.*not dominated"):
        saturate(EPath(seed_of("sec2_loop.ir")), [_emitting(undominated)])

    # Renaming cannot map v7; the rule output still fails with the violation.
    undefined = Function("f", (0,), 0, (Block(0, (0,), (), Ret((7,))),))
    with pytest.raises(ValueError, match="invalid function.*v7"):
        saturate(EPath(seed_of("sec2_loop.ir")), [_emitting(undefined)])


def test_saturate_rejects_new_irreducible_output():
    irreducible = parse_function((CORPUS_DIR / "reject" / "irreducible.ir").read_text())
    with pytest.raises(IrreducibleError):
        saturate(EPath(seed_of("sec2_loop.ir")), [_emitting(irreducible)])


def test_duplicate_output_is_not_validated(monkeypatch):
    import epathopt.esequence as esequence

    seed = seed_of("sec2_loop.ir")
    p = EPath(seed)
    calls = {}
    _count_calls(monkeypatch, esequence, "validate", calls)
    report = saturate(p, [_emitting(to_function(seed))])
    assert (report.inserted, report.deduplicated) == (0, 1)
    assert calls == {}
    assert [(e.source, e.target) for e in p.edges] == [(seed.digest, seed.digest)]


@pytest.mark.parametrize("name", ["diamond_consts.ir", "loop_exit_use.ir", "two_loops.ir"])
def test_duplicate_output_is_never_built(monkeypatch, name):
    import epathopt.esequence as esequence

    seed = seed_of(name)
    p = EPath(seed)
    calls = {}
    _count_calls(monkeypatch, esequence, "_build_blocks", calls)
    _count_calls(monkeypatch, esequence, "print_function", calls)
    outputs = []

    def recorded(rule):
        def apply(s, analyses):
            out = rule.apply(s, analyses)
            outputs.extend(out)
            return out

        return RewriteRule(rule.name, apply)

    report = saturate(p, [recorded(rule) for rule in RULES])
    assert report.deduplicated > 0
    # Every new digest is built once, by `verify`; nothing is printed.
    assert calls == {"_build_blocks": report.inserted}
    duplicates = [out for out in outputs if p.sequence(out.digest) is not out]
    assert len(duplicates) == report.deduplicated
    assert all("function" not in vars(out) for out in duplicates)
    for s in p.variants():  # cached: reading blocks again builds nothing
        assert len(s.blocks) > 0
    assert calls == {"_build_blocks": report.inserted}


def test_insert_raises_on_digest_collision():
    a = seed_of("sec2_loop.ir")
    b = seed_of("loop_single_inv.ir")
    assert a != b and len(a.params) == len(b.params)
    p = EPath(a)
    forged = dataclasses.replace(b, digest=a.digest)
    with pytest.raises(RuntimeError, match="digest collision"):
        p.insert(forged, RewriteEdge(a.digest, a.digest, "forged"))
    assert p.variants() == [a]


def _fold_chain(sites):
    """`sites` independent `iadd(iconst, iconst)` folds: 2**sites variants."""
    lines = ["func @chain() {"]
    for i in range(sites):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        lines += [f"b{a}():", f"  v{a} = iconst {i}", f"  jump b{b}()"]
        lines += [f"b{b}():", f"  v{b} = iconst {i + 1}", f"  jump b{c}()"]
        lines += [f"b{c}():", f"  v{c} = iadd v{a}, v{b}", f"  jump b{c + 1}()"]
    lines += [f"b{3 * sites}():", f"  ret v{3 * sites - 1}", "}"]
    return parse_function("\n".join(lines))


def test_saturate_raises_on_digest_collision(monkeypatch):
    import epathopt.esequence as esequence

    f = _fold_chain(6)
    p = EPath(from_function(f))
    saturate(p, RULES)
    assert len(p) == 64

    # With one-byte digests, two of this closure's 64 sequences share one;
    # the new one is looked up, skips validation and must still be refused.
    monkeypatch.setattr(esequence, "DIGEST_BYTES", 1)
    with pytest.raises(RuntimeError, match="digest collision"):
        saturate(EPath(from_function(f)), RULES)
