import gc
import hashlib
import random
import weakref
from functools import partial

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
    find_back_edges,
    from_function,
    new_epath,
    parse_function,
    remap,
    rules_named,
    saturate,
    sort_by_cost,
    to_function,
    validate,
)
from epathopt.rewrite import Rewrite, _Editor
from conftest import CLOSURE_CAP, CORPUS_DIR, GOLDEN_DIR, load_corpus, saturated_path
from generators import fold_function, irreducible_function, random_function
from oracles import audit_saturation, brute_closure

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
    (hoisted,) = [out.sequence for out in RULES[0].apply(s)]
    edge = RewriteEdge(s.digest, hoisted.digest, "licm")
    assert p.insert(hoisted, edge) is True
    assert len(p) == 2
    assert p.insert(hoisted, edge) is False
    assert len(p) == 2
    assert len(p.edges) == 1


def test_duplicate_insert_records_new_edge():
    s = seed_of("sec2_loop.ir")
    p = EPath(s)
    (hoisted,) = [out.sequence for out in RULES[0].apply(s)]
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


def _count_compute(monkeypatch, counter):
    compute = Analyses.__dict__["compute"].__func__

    def counted(cls, f):
        counter["compute"] = counter.get("compute", 0) + 1
        return compute(cls, f)

    monkeypatch.setattr(Analyses, "compute", classmethod(counted))


def _recording(rules, outputs):
    """`rules`, each wrapped to append its outputs to `outputs`."""

    def recorded(rule):
        def apply(s):
            out = rule.apply(s)
            outputs.extend(out)
            return out

        return RewriteRule(rule.name, apply)

    return [recorded(rule) for rule in rules]


def test_each_distinct_sequence_analyzed_once(monkeypatch):
    import epathopt.analysis as analysis
    import epathopt.esequence as esequence
    import epathopt.ir as ir

    calls = {}
    _count_calls(monkeypatch, analysis, "dominators", calls)
    _count_calls(monkeypatch, ir, "predecessors", calls)
    _count_calls(monkeypatch, ir, "reverse_postorder", calls)
    _count_calls(monkeypatch, ir, "must_dataflow", calls)
    # Canonicalization renames each block through the name it imported.
    _count_calls(monkeypatch, ir, "remap_block", calls)
    _count_calls(monkeypatch, esequence, "remap_block", calls)
    _count_compute(monkeypatch, calls)

    f = parse_function((CORPUS_DIR / "nested_loops.ir").read_text())
    p = EPath(from_function(f))
    made = []
    report = saturate(p, _recording(RULES, made))
    made = [out.sequence for out in made if "sequence" in vars(out)]  # the unpredicted ones
    sort_by_cost(p.variants())
    assert len(p) > 2
    outputs = report.inserted + report.deduplicated
    assert len(made) == outputs - report.predicted
    # One rename per block of the seed and of each made output, but one
    # block fewer: `from_function` returns a block an earlier renaming built
    # as it is when every id it names lies below the first block position
    # and the first value number that the renaming changes, which holds for
    # one block of the made outputs here (38 calls for 39 blocks).
    renamed = len(p.sequence(p.seed)) + sum(len(p.sequence(out.digest)) for out in made) - 1
    # One DFS per graph walked: the parsed function and each made output. One
    # solve per graph validated: the parsed function and each new output (a
    # made duplicate is walked for its digest, never validated). A canonical
    # function inherits both from its source. `dominators` is never called:
    # the analyses compare dominator positions without building its map.
    assert report.inserted == len(p) - 1 < len(made)
    expected = {
        "predecessors": len(p),
        "reverse_postorder": 1 + len(made),
        "must_dataflow": 1 + report.inserted,
        "compute": len(p),
        "remap_block": renamed,
    }
    assert calls == expected
    for s in p.variants():
        assert analyze(s).function is s.function is to_function(s)
        assert s.blocks and s.analyses
    assert calls == expected


def _emitting(function):
    """A rule whose only output is `function`, canonicalized as rules do."""
    return RewriteRule("emit", lambda s: [Rewrite(None, (), partial(_Editor, function))])


def test_saturate_rejects_new_invalid_output():
    # The parser rejects these, so they are built directly.
    # v1 is defined on one arm of the diamond only, then used at the merge.
    undominated = Function("f", (0,), 0, (
        Block(0, (0,), None, BrIf(0, 1, (), 2, ())),
        Block(1, (), Instruction("iconst", 1, (), 1), Jump(3, ())),
        Block(2, (), None, Jump(3, ())),
        Block(3, (), None, Ret((1,))),
    ))
    with pytest.raises(ValueError, match="invalid function.*not dominated"):
        saturate(EPath(seed_of("sec2_loop.ir")), [_emitting(undominated)])

    # Renaming cannot map v7; the rule output still fails with the violation.
    undefined = Function("f", (0,), 0, (Block(0, (0,), None, Ret((7,))),))
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
    _count_calls(monkeypatch, esequence, "validate", calls)
    _count_calls(monkeypatch, esequence, "print_function", calls)
    _count_compute(monkeypatch, calls)
    outputs = []
    report = saturate(p, _recording(RULES, outputs))
    assert report.deduplicated > 0
    # Every new digest is validated and analyzed once, by `EPath.insert`;
    # nothing is printed.
    expected = {"validate": report.inserted, "compute": report.inserted}
    assert calls == expected
    made = [out.sequence for out in outputs]
    duplicates = [out for out in made if p.sequence(out.digest) is not out]
    assert len(duplicates) == report.deduplicated
    assert all("function" not in vars(out) for out in duplicates)
    for s in p.variants():  # cached: reading blocks again checks nothing
        assert len(s.blocks) > 0 and s.analyses
    assert calls == expected


def _undominated():
    """v1 is defined on one arm of the diamond only, then used at the merge;
    block ids differ from the canonical ones. The parser rejects it."""
    return Function("f", (0,), 10, (
        Block(10, (0,), None, BrIf(0, 20, (), 30, ())),
        Block(20, (), Instruction("iconst", 1, (), 1), Jump(40, ())),
        Block(30, (), None, Jump(40, ())),
        Block(40, (), None, Ret((1,))),
    ))


UNTRUSTED = [
    pytest.param(_undominated, ValueError, "b40: use of v1 not dominated", id="undominated"),
    pytest.param(
        lambda: irreducible_function(random.Random(3)), IrreducibleError, "irreducible",
        id="irreducible",
    ),
]


def _assert_named_in_own_ids(f, exc):
    """An irreducible edge is named in `f`'s own block ids, as
    `find_back_edges(f)` names it, not in the canonical ones."""
    if isinstance(exc, IrreducibleError):
        with pytest.raises(IrreducibleError) as expected:
            find_back_edges(f)
        assert exc.edge == expected.value.edge


@pytest.mark.parametrize("build, error, message", UNTRUSTED)
def test_epath_refuses_a_bad_seed(build, error, message):
    s = from_function(build())
    with pytest.raises(error, match=message) as raised:
        EPath(s)
    _assert_named_in_own_ids(build(), raised.value)
    with pytest.raises(error, match=message) as raised:
        new_epath(s)
    _assert_named_in_own_ids(build(), raised.value)


@pytest.mark.parametrize("build, error, message", UNTRUSTED)
def test_insert_refuses_a_bad_sequence_and_changes_nothing(build, error, message):
    p = EPath(seed_of("sec2_loop.ir"))
    saturate(p, RULES)
    before = (len(p), p.digests(), p.edges)
    s = from_function(build())
    assert len(s.params) == len(p.sequence(p.seed).params)
    with pytest.raises(error, match=message) as raised:
        p.insert(s, RewriteEdge(p.seed, s.digest, "untrusted"))
    _assert_named_in_own_ids(build(), raised.value)
    assert (len(p), p.digests(), p.edges) == before
    assert s.digest not in p


def test_an_invalid_rule_output_fails_when_its_function_is_read():
    # Named in the ids of the working copy the rule finished, not the
    # canonical ones (its b40 is canonical b3).
    out = from_function(_undominated())
    for _ in range(2):  # a failed build is not kept
        with pytest.raises(ValueError, match=r"invalid function @f: b40: use of v1 not dominated"):
            out.function


def test_an_invalid_sequence_reads_its_canonical_form_unchecked():
    # Blocks, length, text and digest need no valid source: only `function`
    # checks it, and `EPath` reads that for everything it stores.
    s = from_function(_undominated())
    assert len(s) == len(s.blocks) == 4 and [b.id for b in s.blocks] == [0, 1, 2, 3]
    assert s.text.startswith("func @s(v0) {\nb0(v0):\n  brif v0, b1(), b2()")
    assert s.digest == hashlib.blake2b(s.text.encode(), digest_size=8).hexdigest()
    assert "function" not in vars(s)
    with pytest.raises(ValueError, match="b40: use of v1 not dominated"):
        EPath(s)
    p = EPath(seed_of("sec2_loop.ir"))
    before = (len(p), p.digests(), p.edges)
    with pytest.raises(ValueError, match="b40: use of v1 not dominated"):
        p.insert(s, RewriteEdge(p.seed, s.digest, "untrusted"))
    assert (len(p), p.digests(), p.edges) == before


def _stored_is_analyzed(s):
    assert "analyses" in vars(s)
    assert validate(s.function) == []


def test_every_stored_sequence_is_valid_and_analyzed():
    # Sequences go in unchecked and through `insert` directly, with no check
    # by the caller: the path itself must have checked each one it stores.
    functions = list(load_corpus().values())
    functions += [random_function(random.Random(seed)) for seed in range(200)]
    for f in functions:
        p = EPath(from_function(f))
        _stored_is_analyzed(p.sequence(p.seed))
        work = [p.seed]
        while work:
            digest = work.pop()
            seq = p.sequence(digest)
            for rule in RULES:
                for made in (out.sequence for out in rule.apply(seq)):
                    if p.insert(made, RewriteEdge(digest, made.digest, rule.name)):
                        _stored_is_analyzed(made)
                        work.append(made.digest)


def test_insert_raises_on_digest_collision(monkeypatch):
    import epathopt.esequence as esequence

    # With one-byte digests, one of these one-constant functions shares the
    # seed's digest but not its text.
    monkeypatch.setattr(esequence, "DIGEST_BYTES", 1)
    a = seed_of("sec2_loop.ir")
    constants = (f"func @f(v0) {{\nb0(v0):\n  v1 = iconst {k}\n  ret v1\n}}" for k in range(1000))
    candidates = (from_function(parse_function(text)) for text in constants)
    forged = next(b for b in candidates if b.digest == a.digest)
    assert a != forged and len(a.params) == len(forged.params)
    p = EPath(a)
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


# ---------------------------------------------------------------------------
# Commuting squares: `saturate` against the flat oracle


def _golden_functions():
    """The goldens that hold one function's text."""
    out = []
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        text = path.read_text()
        if text.startswith("func "):
            out.append(parse_function(text))
    return out


def _audit(functions, runs):
    """Audits each function under each `(rules, limits)` run; returns the
    predicted outputs and the built duplicates, summed."""
    predicted = built = 0
    for f in functions:
        for rules, limits in runs:
            problems, report = audit_saturation(from_function(f), rules, **limits)
            assert problems == [], (f.name, limits, problems)
            predicted += report.predicted
            built += report.deduplicated - report.predicted
    return predicted, built


def test_saturate_equals_the_flat_oracle():
    functions = list(load_corpus().values()) + _golden_functions()
    functions += [random_function(random.Random(seed)) for seed in range(200)]
    assert len(functions) >= 225
    runs = [
        (rules, limits)
        for rules in (RULES, rules_named(["constfold", "licm"]))
        for limits in ({}, {"max_iterations": 2}, {"max_sequences": 5})
    ]
    predicted, _ = _audit(functions, runs)
    assert predicted > 0


def test_saturate_equals_the_flat_oracle_on_fold_sites():
    # `random_function` seldom builds `op(iconst, iconst)`; these functions
    # plant several such sites, some sharing a constant, in diamonds and
    # loops. The 200 seeds give 1120 predicted outputs and 699 built
    # duplicates.
    functions = [fold_function(random.Random(seed)) for seed in range(200)]
    runs = [(RULES, {}), (rules_named(["constfold", "licm"]), {"max_iterations": 2})]
    predicted, built = _audit(functions, runs)
    assert predicted >= 550 and built >= 350, (predicted, built)


@pytest.mark.parametrize("workload", ["folds", "loops", "fuzz"])
def test_saturate_equals_the_flat_oracle_on_the_benchmark_inputs(perfbench_workloads, workload):
    for seed in (1, 2):
        cases = perfbench_workloads.generate(workload, seed)
        for case in cases:
            seq = from_function(parse_function(case.text))
            problems, report = audit_saturation(seq, RULES, max_sequences=CLOSURE_CAP)
            assert problems == [], (workload, seed, case.name, problems)
            assert report.reached_fixed_point, (workload, seed, case.name)
            if workload != "fuzz":
                # Every duplicate has a commuting square that predicts it.
                assert report.predicted == report.deduplicated > 0


def _block_count_rule(footprint):
    """Sets each constant to the function's block count; `footprint(f, b)` is
    the footprint it declares for block `b` of `f`."""

    def apply(s):
        f = s.function
        out = []
        for b in f.blocks:
            if b.instruction and b.instruction.opcode == "iconst":
                counted = Instruction("iconst", b.instruction.result, (), len(f.blocks))
                blocks = tuple(
                    Block(x.id, x.params, counted, x.terminator) if x is b else x
                    for x in f.blocks
                )
                edited = Function("s", f.params, f.entry, blocks)
                out.append(Rewrite(("count", b.id), footprint(f, b), partial(_Editor, edited)))
        return out

    return RewriteRule("count", apply)


def test_a_footprint_that_leaves_out_a_read_block_fails_the_audit():
    # Declaring only the constant's own block leaves out every block the
    # count reads; a fold elsewhere removes blocks, so the prediction is wrong.
    seed = from_function(_fold_chain(2))
    leaky = _block_count_rule(lambda f, b: {b.id})
    problems, report = audit_saturation(seed, [leaky, *RULES])
    assert report.predicted > 0
    assert any("output of" in p for p in problems), problems

    # Declared honestly, the same rewrite takes part in no square.
    honest = _block_count_rule(lambda f, b: {x.id for x in f.blocks})
    problems, _ = audit_saturation(seed, [honest, *RULES])
    assert problems == []


def test_outputs_without_a_site_are_never_predicted():
    f = _fold_chain(3)
    untracked = [
        RewriteRule(rule.name, lambda s, rule=rule: [
            Rewrite(None, (), out.edit) for out in rule.apply(s)
        ])
        for rule in RULES
    ]
    problems, report = audit_saturation(from_function(f), untracked)
    assert problems == []
    assert report.predicted == 0 and report.deduplicated > 0
    assert not hasattr(from_function(f), "site")


def test_a_stored_sequence_keeps_only_its_canonical_form(saturated):
    # A rewrite's site, footprint and edit stay on the `Rewrite`. A stored
    # sequence keeps its canonical form and its source's reverse postorder,
    # and lets its source go once its function is read.
    fold_inputs = []
    for (generator, _), (f, p) in saturated.items():
        for s in p.variants():
            assert s.function.blocks and s.analyses
            assert vars(s).keys() == {
                "params", "blocks", "digest", "source_rpo", "_source", "function", "analyses",
            }
            assert s._source is None
        if generator == "fold_function" and len(fold_inputs) < 20:
            fold_inputs.append(f)
    # Only the rewrites that no commuting square predicts are made.
    predicted = 0
    for f in fold_inputs:
        outputs = []
        report = saturate(EPath(from_function(f)), _recording(RULES, outputs))
        assert sum("sequence" not in vars(out) for out in outputs) == report.predicted
        predicted += report.predicted
    assert predicted > 0


def test_disjoint_footprints_meet_at_one_target(saturated, perfbench_workloads):
    # Two outputs of one sequence with disjoint footprints commute: the
    # saturated path has an edge from each to one common target.
    groups = ([], [])  # the fold-site functions form the second group
    for (generator, _), (f, p) in saturated.items():
        groups[generator == "fold_function"].append((f, p))
    extra = [_fold_chain(4)] + [
        parse_function(perfbench_workloads.generate(workload, 1)[0].text)
        for workload in ("folds", "loops")
    ]
    groups[0].extend((f, saturated_path(f)) for f in extra)
    # The 200 fold-site functions give 999 such pairs.
    squares = [0, 0]
    for group, paths in enumerate(groups):
        for f, p in paths:
            targets = {}
            for e in p.edges:
                targets.setdefault(e.source, set()).add(e.target)
            for s in p.variants():
                outs = [out for rule in RULES for out in rule.apply(s)]
                for i, a in enumerate(outs):
                    for b in outs[i + 1:]:
                        if a.footprint.isdisjoint(b.footprint) and a.sequence != b.sequence:
                            squares[group] += 1
                            ta, tb = a.sequence.digest, b.sequence.digest
                            assert targets[ta] & targets[tb], (f.name, a.site)
    assert squares[0] > 100 and squares[1] >= 500, squares


def _count_renders(monkeypatch):
    import epathopt.ir as ir

    calls = []
    render = ir.render_block

    def counted(block):
        calls.append(block)
        return render(block)

    monkeypatch.setattr(ir, "render_block", counted)
    return calls


def test_each_block_is_built_and_printed_once_per_path(monkeypatch):
    # A block that an edit leaves alone is shared: the variants of a path
    # hold far fewer `Block` objects than blocks, and each object is
    # printed once. Made duplicates are printed too, so they are counted.
    renders = _count_renders(monkeypatch)
    inputs = list(load_corpus().values())
    inputs += [fold_function(random.Random(seed)) for seed in range(60)]
    objects = blocks = 0
    for f in inputs:
        outputs = []
        p = EPath(from_function(f))
        saturate(p, _recording(RULES, outputs))
        stored = {id(b) for s in p.variants() for b in s.blocks}
        made = {id(b) for out in outputs if "sequence" in vars(out) for b in out.sequence.blocks}
        assert len(renders) <= len(stored | made), f.name
        renders.clear()
        objects += len(stored)
        blocks += sum(len(s) for s in p.variants())
    assert objects < 0.7 * blocks, (objects, blocks)


@pytest.mark.parametrize("workload, limit", [("folds", 3500), ("loops", 2000)])
def test_benchmark_inputs_print_each_stored_block_once(
    monkeypatch, perfbench_workloads, workload, limit
):
    # No output of these inputs is a made duplicate, so every print is of a
    # block some stored variant holds.
    renders = _count_renders(monkeypatch)
    objects = blocks = 0
    for case in perfbench_workloads.generate(workload, 1):
        p = saturated_path(parse_function(case.text))
        objects += len({id(b) for s in p.variants() for b in s.blocks})
        blocks += sum(len(s) for s in p.variants())
    assert len(renders) <= objects < 0.3 * blocks and len(renders) < limit


@pytest.mark.parametrize("workload", ["folds", "loops", "fuzz"])
def test_benchmark_inputs_print_each_made_sequence_once(monkeypatch, perfbench_workloads, workload):
    # Each made sequence's text is printed once, for its digest. A predicted
    # output is inserted as the stored sequence itself, and a made duplicate
    # is compared with the stored one by its blocks, so the duplicate check
    # prints no text. Only `fuzz` makes duplicates.
    import epathopt.esequence as esequence
    import epathopt.ir as ir
    import epathopt.rewrite as rewrite

    made, printed = [], []
    render, canonicalize = ir.render_function, esequence.from_function
    # Made before counting starts: `fuzz` prints its generated functions.
    texts = [case.text for case in perfbench_workloads.generate(workload, 1)]

    def counted_render(*args):
        printed.append(args)
        return render(*args)

    def counted_from_function(f):
        made.append(f)
        return canonicalize(f)

    for module in (ir, esequence):
        monkeypatch.setattr(module, "render_function", counted_render)
    monkeypatch.setattr(rewrite, "from_function", counted_from_function)
    predicted = duplicates_made = 0
    for text in texts:
        report = saturate(EPath(counted_from_function(parse_function(text))), RULES)
        assert report.reached_fixed_point
        predicted += report.predicted
        duplicates_made += report.deduplicated - report.predicted
    assert len(printed) == len(made) and predicted > 0
    assert (duplicates_made > 0) == (workload == "fuzz"), duplicates_made


def test_a_dropped_path_frees_its_seeds_blocks_without_the_collector():
    # Kept renamings point only from a block to the blocks built from it, so
    # reference counting alone frees a path once it is dropped.
    gc.collect()
    gc.disable()
    try:
        seed = from_function(load_corpus()["nested_loops.ir"])
        p = EPath(seed)
        saturate(p, RULES)
        kept = [b for b in seed.blocks if b._renamings]
        assert kept and len(p) > 2
        refs = [weakref.ref(b) for b in seed.blocks]
        del seed, p, kept
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
