import random
from functools import cached_property

import pytest

from epathopt import (
    Analyses,
    Block,
    EPath,
    ExprPattern,
    Function,
    IrreducibleError,
    Jump,
    PatOp,
    PatVar,
    RULES,
    Ret,
    RewriteRule,
    analyze,
    apply_const_fold,
    apply_licm,
    classify_invariance,
    def_use,
    fold_constants,
    from_function,
    interpret,
    match_expression,
    match_loops,
    parse_function,
    print_function,
    remap,
    rules_named,
    saturate,
    to_function,
)
from epathopt.ir import predecessors, render_block, render_function
from epathopt.rewrite import _CONSTFOLD, _Editor, _hoist, _match_patterns, apply_broken
from conftest import (
    argument_vectors,
    assert_all_equivalent,
    closure,
    golden,
    load_corpus,
    saturated_path,
)
from generators import random_function
from oracles import brute_matches, fixpoint_invariance

ADD_CONSTS = ExprPattern(
    "root", PatOp("iadd", (PatOp("iconst", imm="a"), PatOp("iconst", imm="b")))
)


def seq_of(name):
    return from_function(load_corpus()[name])


# ---------------------------------------------------------------------------
# Expression matching


def test_match_no_embed_in_loop():
    # the loop's add reads a block parameter, not a constant
    assert match_expression(ADD_CONSTS, seq_of("sec2_loop.ir")) == []


def test_match_bare_const_pattern():
    pat = ExprPattern("r", PatOp("iconst", imm="a"))
    matches = match_expression(pat, seq_of("sec2_loop.ir"))
    assert [m["a"] for m in matches] == [42, 1]
    assert all("r" in m for m in matches)


def test_match_straight_line_add():
    (m,) = match_expression(ADD_CONSTS, seq_of("straightline_consts.ir"))
    assert m["a"] == 2 and m["b"] == 3


def test_match_literal_immediate():
    pat = ExprPattern("r", PatOp("iconst", imm=42))
    assert len(match_expression(pat, seq_of("sec2_loop.ir"))) == 1
    pat99 = ExprPattern("r", PatOp("iconst", imm=99))
    assert match_expression(pat99, seq_of("sec2_loop.ir")) == []


def test_match_var_operand():
    pat = ExprPattern("r", PatOp("imul", (PatVar("x"), PatVar("y"))))
    (m,) = match_expression(pat, seq_of("straightline_chain.ir"))
    assert m["x"] != m["y"]


def test_pattern_rejects_nonlinear_bindings():
    with pytest.raises(ValueError, match="linear"):
        ExprPattern("r", PatOp("iadd", (PatVar("x"), PatVar("x"))))
    with pytest.raises(ValueError, match="arity"):
        ExprPattern("r", PatOp("iadd", (PatVar("x"),)))
    with pytest.raises(ValueError, match="immediate"):
        ExprPattern("r", PatOp("iadd", (PatVar("x"), PatVar("y")), imm=3))


@pytest.mark.parametrize(
    "pattern",
    [
        ExprPattern("r", PatOp("iconst", imm="a")),
        ADD_CONSTS,
        ExprPattern("r", PatOp("imul", (PatOp("iconst", imm="a"), PatVar("x")))),
        ExprPattern("r", PatOp("imul", (PatVar("x"), PatOp("iconst", imm="a")))),
        ExprPattern("r", PatOp("icmp_slt", (PatVar("x"), PatVar("y")))),
        ExprPattern(
            "r",
            PatOp("icmp_slt", (PatOp("iadd", (PatVar("x"), PatVar("y"))), PatVar("z"))),
        ),
    ],
)
def test_match_completeness_small_sequences(pattern, corpus):
    for name, f in corpus.items():
        if len(f.blocks) > 8:
            continue
        s = from_function(f)
        assert match_expression(pattern, s) == brute_matches(pattern, s), name

    # Matching needs no reducibility: a valid function whose b3 enters the
    # b4-b5 cycle twice matches every pattern, and is never analyzed.
    s = from_function(parse_function(IRREDUCIBLE_MATCHES))
    matches = match_expression(pattern, s)
    assert matches and matches == brute_matches(pattern, s)
    assert "analyses" not in vars(s)
    with pytest.raises(IrreducibleError):
        analyze(s)


IRREDUCIBLE_MATCHES = """func @irr(v0) {
b0(v0):
  v1 = iconst 2
  jump b1()
b1():
  v2 = iconst 3
  jump b2()
b2():
  v3 = iadd v1, v2
  jump b3()
b3():
  v4 = imul v1, v0
  brif v0, b4(), b5()
b4():
  v5 = imul v4, v2
  brif v5, b5(), b6()
b5():
  v6 = icmp_slt v3, v0
  brif v6, b4(), b6()
b6():
  ret v4
}"""


# ---------------------------------------------------------------------------
# Loop matching and invariance


def test_match_loops_acyclic_is_empty():
    assert match_loops(seq_of("diamond.ir")) == []


def test_match_loops_sec2():
    (loop,) = match_loops(seq_of("sec2_loop.ir"))
    assert len(loop.body) == 4


def test_match_loops_nested_outermost_first():
    outer, inner = match_loops(seq_of("nested_loops.ir"))
    assert inner.body < outer.body


def test_classify_sec2_hoists_both_constants():
    s = seq_of("sec2_loop.ir")
    analyses = analyze(s)
    (loop,) = analyses.loops
    split = classify_invariance(loop, s, analyses)
    f = analyses.function
    inv_ops = sorted(
        (f.block(b).instruction.opcode, f.block(b).instruction.imm)
        for b in split.invariant_blocks
    )
    assert inv_ops == [("iconst", 1), ("iconst", 42)]
    var_ops = [f.block(b).instruction.opcode for b in split.variant_blocks]
    assert var_ops == ["iadd"]


def test_classify_sideeffect_never_invariant():
    s = seq_of("loop_sideeffect_only.ir")
    analyses = analyze(s)
    (loop,) = analyses.loops
    split = classify_invariance(loop, s, analyses)
    assert split.invariant_blocks == ()
    assert len(split.variant_blocks) == 1


def test_classify_fixpoint_propagates_through_chain():
    s = seq_of("loop_invariant_chain.ir")
    analyses = analyze(s)
    (loop,) = analyses.loops
    split = classify_invariance(loop, s, analyses)
    f = analyses.function
    inv_ops = sorted(f.block(b).instruction.opcode for b in split.invariant_blocks)
    assert inv_ops == ["iconst", "imul"]


def test_classify_split_partitions_instruction_blocks(corpus):
    for name in corpus:
        s = seq_of(name)
        analyses = analyze(s)
        for loop in analyses.loops:
            split = classify_invariance(loop, s, analyses)
            instr_blocks = {
                b for b in loop.body if analyses.function.block(b).instruction
            }
            assert set(split.invariant_blocks) | set(split.variant_blocks) == instr_blocks
            assert not set(split.invariant_blocks) & set(split.variant_blocks)


def _chain_loop(rng, length):
    """A loop whose body is a chain of `length` instruction blocks, each
    reading the parameter v0, the loop-carried v1 or an earlier result."""
    lines = ["func @chain(v0) {", "b0(v0):", "  jump b1(v0)", "b1(v1):", "  jump b2()"]
    for i in range(length):
        bid, result, readable = i + 2, i + 2, [0, 0, 1, *range(2, i + 2)]
        op = rng.choice(["iconst", "iadd", "imul", "iadd", "sideeffect"])
        if op == "iconst":
            instr = f"iconst {rng.randrange(-9, 10)}"
        elif op == "sideeffect":
            instr = f"sideeffect v{rng.choice(readable)}"
        else:
            instr = f"{op} v{rng.choice(readable)}, v{rng.choice(readable)}"
        lines += [f"b{bid}():", f"  v{result} = {instr}", f"  jump b{bid + 1}()"]
    exit_bid, last = length + 2, length + 1
    lines += [f"b{exit_bid}():", f"  brif v{last}, b1(v{last}), b{exit_bid + 1}()"]
    lines += [f"b{exit_bid + 1}():", "  ret v1", "}"]
    return parse_function("\n".join(lines))


def test_classify_invariance_matches_fixed_point_reference():
    # Each variant is classified as canonicalized (ids in reverse postorder)
    # and with its block ids shuffled, where id order is not a topological
    # order of the invariant chains.
    rng = random.Random(0x11C3)
    functions = list(load_corpus().values())
    functions += [random_function(rng, max_blocks=12, name=f"r{i}") for i in range(200)]
    functions += [_chain_loop(rng, rng.randint(2, 6)) for _ in range(100)]
    loops = chains = 0
    for f in functions:
        for s in closure(f):
            g = s.function
            ids = [b.id for b in g.blocks]
            values = [v for b in g.blocks for v in b.params]
            values += [b.instruction.result for b in g.blocks if b.instruction]
            shuffled = remap(g, {v: v for v in values}, dict(zip(ids, rng.sample(ids, len(ids)))))
            for h in (g, shuffled):
                analyses = Analyses.compute(h)
                for loop in analyses.loops:
                    expected = fixpoint_invariance(loop, h)
                    instr_blocks = [b for b in sorted(loop.body) if h.block(b).instruction]
                    split = classify_invariance(loop, s, analyses)
                    assert split.invariant_blocks == tuple(b for b in instr_blocks if b in expected)
                    assert split.variant_blocks == tuple(b for b in instr_blocks if b not in expected)
                    loops += 1
                    chains += any(
                        def_use(h)[v][0].block in expected
                        for b in expected
                        for v in h.block(b).instruction.operands
                    )
    assert loops >= 500 and chains >= 20, (loops, chains)


# ---------------------------------------------------------------------------
# LICM


def test_licm_sec2_produces_golden_variant():
    s = seq_of("sec2_loop.ir")
    (variant,) = apply_licm(s)
    assert print_function(to_function(variant, "sec2")) == golden("sec2_loop_licm.txt")


def test_licm_no_invariants_yields_nothing():
    assert apply_licm(seq_of("loop_no_inv.ir")) == []
    assert apply_licm(seq_of("diamond.ir")) == []


def test_licm_fixed_point_on_own_output():
    s = seq_of("sec2_loop.ir")
    (variant,) = apply_licm(s)
    assert apply_licm(variant) == []


def test_licm_never_returns_input(corpus):
    for name in corpus:
        s = seq_of(name)
        for out in apply_licm(s):
            assert out != s, name


def _effect_depths(s):
    analyses = analyze(s)
    depths = []
    for b in s.blocks:
        if b.instruction and b.instruction.opcode == "sideeffect":
            depths.append(sum(1 for l in analyses.loops if b.id in l.body))
    return sorted(depths)


def test_licm_never_moves_side_effects(corpus):
    for name in corpus:
        s = seq_of(name)
        before = _effect_depths(s)
        for out in apply_licm(s):
            assert _effect_depths(out) == before, name


def test_licm_outputs_interpreter_equivalent(corpus):
    for name, f in corpus.items():
        s = from_function(f)
        outs = apply_licm(s)
        assert_all_equivalent([s, *outs], f.name, len(f.params))


# ---------------------------------------------------------------------------
# Constant folding


def test_fold_straight_line_to_single_block():
    (variant,) = apply_const_fold(seq_of("straightline_consts.ir"))
    assert print_function(to_function(variant, "consts")) == golden(
        "straightline_consts_fold.txt"
    )


def test_fold_sec2_no_match():
    assert apply_const_fold(seq_of("sec2_loop.ir")) == []


def test_fold_zero_annihilator():
    (variant,) = apply_const_fold(seq_of("fold_zero_mul.ir"))
    consts = [
        b.instruction.imm
        for b in variant.blocks
        if b.instruction and b.instruction.opcode == "iconst"
    ]
    assert 0 in consts
    assert 77 not in consts  # dead feeder straightened away


def test_fold_keeps_live_feeders():
    s = seq_of("diamond_consts.ir")
    outs = apply_const_fold(s)
    assert len(outs) == 2
    assert_all_equivalent([s, *outs], "dconst", 1)


def test_fold_splices_a_feeder_used_twice_once():
    # v1 feeds both operands of the fold and nothing else, so its block goes,
    # and only once.
    s = from_function(parse_function(
        "func @f() {\nb0():\n  jump b1()\nb1():\n  v1 = iconst 3\n  jump b2()\n"
        "b2():\n  v2 = iadd v1, v1\n  ret v2\n}"
    ))
    (variant,) = apply_const_fold(s)
    assert interpret(to_function(variant), [], 10).values == (6,)
    assert len(variant) == len(s) - 1
    assert [b.instruction.imm for b in variant.blocks if b.instruction] == [6]


def test_fold_icmp_yields_flag():
    (variant,) = apply_const_fold(seq_of("fold_icmp.ir"))
    (const_block,) = [b for b in variant.blocks if b.instruction]
    assert const_block.instruction.imm == 1


def test_fold_outputs_interpreter_equivalent(corpus):
    for name, f in corpus.items():
        s = from_function(f)
        outs = apply_const_fold(s)
        assert_all_equivalent([s, *outs], f.name, len(f.params))


def test_fold_matches_interpreter_fuzz():
    rng = random.Random(0xF01D)
    for _ in range(1000):
        op = rng.choice(["iadd", "isub", "imul", "icmp_slt"])
        a = rng.randrange(-(1 << 63), 1 << 63)
        b = rng.randrange(-(1 << 63), 1 << 63)
        text = (
            f"func @f() {{\nb0():\n  v0 = iconst {a}\n  jump b1()\n"
            f"b1():\n  v1 = iconst {b}\n  jump b2()\n"
            f"b2():\n  v2 = {op} v0, v1\n  ret v2\n}}"
        )
        result = interpret(parse_function(text), [], 10)
        assert result.values == (fold_constants(op, a, b),), (op, a, b)


# ---------------------------------------------------------------------------
# Negative control


def test_broken_rule_changes_semantics():
    s = seq_of("straightline_consts.ir")
    (variant,) = RULES["broken"].apply(s)
    original = interpret(to_function(s), [], 100)
    mutated = interpret(to_function(variant), [], 100)
    assert original != mutated


def test_rules_named_rejects_unknown():
    with pytest.raises(ValueError, match="unknown rules"):
        rules_named(["licm", "nope"])


def test_rules_on_random_functions_stay_valid_and_equivalent():
    rng = random.Random(0xFADE)
    rules = rules_named(["licm", "constfold"])
    checked = 0
    for i in range(80):
        f = random_function(rng, max_blocks=10, name=f"g{i}")
        s = from_function(f)
        for rule in rules:
            outs = rule.apply(s)
            if not outs:
                continue
            checked += len(outs)
            functions = [to_function(x, f.name) for x in [s, *outs]]
            for vector in argument_vectors(len(f.params), count=4):
                results = [interpret(g, vector, 1500) for g in functions]
                assert all(r == results[0] for r in results), (i, vector)
    assert checked > 0


def test_splicing_entry_that_passes_arguments_raises():
    # An argument-passing entry jump cannot become the entry; the refusal is
    # an explicit error, so it survives `python -O`.
    f = Function("f", (), 0, (
        Block(0, (), (), Jump(1, (5,))),
        Block(1, (5,), (), Ret((5,))),
    ))
    with pytest.raises(ValueError, match="cannot splice entry block b0"):
        _Editor(f).try_splice(0)


def test_splice_refuses_a_block_that_jumps_to_itself():
    f = Function("f", (), 0, (
        Block(0, (), (), Jump(1, ())),
        Block(1, (), (), Jump(1, ())),
    ))
    ed = _Editor(f)
    assert ed.try_splice(1) is False
    assert ed.finish() == f


def test_broken_rule_has_nothing_to_bump_without_a_constant():
    s = from_function(parse_function("func @id(v0) {\nb0(v0):\n  ret v0\n}"))
    assert apply_broken(s) == []


def test_working_copy_canonicalizes_like_its_finished_function():
    f = load_corpus()["sec2_loop.ir"]
    ed = _Editor(f)
    assert from_function(ed.finish()) == from_function(ed.finish())

    # An invalid working copy is reported with the violations of its
    # finished function.
    ed.set_terminator(f.entry, Ret((99,)))
    with pytest.raises(ValueError, match="use of undefined value v99"):
        from_function(ed.finish())


def test_licm_merge_block_values_are_fresh_past_hoisted_results():
    # The hoisted `iconst` holds the function's largest value id and is
    # detached before the merge block of the two entry edges asks for fresh
    # parameters, which must still not reuse its id.
    f = parse_function(
        "func @f(v0) {\nb0(v0):\n  brif v0, b1(), b2()\nb1():\n  jump b3(v0)\n"
        "b2():\n  jump b3(v0)\nb3(v1):\n  brif v1, b5(), b4()\nb4():\n  ret v1\n"
        "b5():\n  v2 = iconst 7\n  jump b3(v2)\n}"
    )
    s = from_function(f)
    (hoisted,) = [b.instruction for b in s.blocks if b.instruction]
    assert hoisted.result > max(v for b in s.blocks for v in b.params)
    variants = closure(f)
    assert len(variants) > 1
    assert_all_equivalent(variants, "f", 1)


def _assert_preds_current(ed):
    finished = ed.finish()
    expected = predecessors(finished)
    for b in finished.blocks:
        assert ed.preds(b.id) == expected[b.id], (b.id, print_function(finished))


def _snapshot(f):
    """A deep copy of `f`'s predecessor map, which `_Editor.preds` reads but
    must never write into, and `f`'s blocks as looked up by id, which no edit
    may replace."""
    return {bid: list(ps) for bid, ps in f.preds.items()}, [f.block(b.id) for b in f.blocks]


def test_editor_predecessors_stay_current_through_splices_and_hoists():
    rng = random.Random(0x9E5)
    spliced = hoisted = 0
    for i in range(300):
        f = random_function(rng, max_blocks=12, name=f"g{i}")
        s = from_function(f)
        analyses = analyze(s)
        # The working copy starts from the source's blocks and derives its
        # predecessors from the source's map: `preds` never writes into that
        # map, and no edit changes the source's blocks.
        sources = (f, analyses.function)
        before = [_snapshot(g) for g in sources]
        # Rules start from the canonical function's cached map.
        ed = _Editor(analyses.function) if i % 2 else _Editor(f)
        _assert_preds_current(ed)
        for bid in rng.sample(sorted(ed.blocks), k=len(ed.blocks)):
            try:
                spliced += ed.try_splice(bid)
            except ValueError:
                continue
            _assert_preds_current(ed)
            assert [_snapshot(g) for g in sources] == before

        for loop in analyses.loops:
            split = classify_invariance(loop, s, analyses)
            if split.invariant_blocks:
                _assert_preds_current(_hoist(analyses.function, loop, split))
                assert [_snapshot(g) for g in sources] == before
                hoisted += 1
    assert spliced >= 300 and hoisted >= 30, (spliced, hoisted)


# Two patterns rooted at one opcode and one rooted at `iconst`: the constfold
# table has one pattern per root, so it never puts two on one dispatch list.
SHARED_ROOTS = (
    ADD_CONSTS,
    ExprPattern("root", PatOp("iadd", (PatVar("x"), PatOp("iconst", imm="a")))),
    ExprPattern("root", PatOp("iconst", imm="a")),
)


def test_match_patterns_equal_brute_matches_per_pattern():
    rng = random.Random(0xF01D)
    functions = list(load_corpus().values())
    functions += [random_function(rng, max_blocks=12) for _ in range(200)]
    found = {table: [0] * len(table) for table in (_CONSTFOLD, SHARED_ROOTS)}
    for f in functions:
        for s in closure(f):
            for table, counts in found.items():
                for i, (pat, matches) in enumerate(zip(table, _match_patterns(table, s.function))):
                    assert matches == brute_matches(pat, s), (pat, print_function(to_function(s)))
                    counts[i] += len(matches)
    assert sum(found[_CONSTFOLD]) >= 100, found
    assert min(found[SHARED_ROOTS]) >= 30, found


# ---------------------------------------------------------------------------
# Sites and footprints


def _edited_functions(monkeypatch):
    """Every function a rule's working copy finishes, in the order the
    outputs are built."""
    import epathopt.rewrite as rewrite

    edited = []
    original = rewrite.from_function

    def recorded(f):
        edited.append(f)
        return original(f)

    monkeypatch.setattr(rewrite, "from_function", recorded)
    return edited


def test_outputs_are_built_on_first_read(monkeypatch):
    edited = _edited_functions(monkeypatch)
    s = from_function(load_corpus()["diamond_consts.ir"])
    outs = apply_const_fold(s)
    assert len(outs) == 2 and edited == []
    digest = outs[1].digest
    assert len(edited) == 1
    assert outs[1].text and outs[1].digest == digest and len(edited) == 1
    assert outs[0].text and len(edited) == 2


def test_output_sites_name_the_rewritten_block(corpus):
    for f in corpus.values():
        for s in closure(f):
            analyses = analyze(s)
            hoisting = [
                loop for loop in analyses.loops
                if classify_invariance(loop, s, analyses).invariant_blocks
            ]
            assert [out.site for out in apply_licm(s)] == [
                ("licm", loop.header) for loop in hoisting
            ]
            sites = [out.site for out in apply_const_fold(s)]
            roots = [
                def_use(analyses.function)[m["root"]][0].block
                for ms in _match_patterns(_CONSTFOLD, analyses.function)
                for m in ms
            ]
            assert sites == [("constfold", root) for root in roots]
            assert all(out.site is None for out in apply_broken(s))


def test_footprint_holds_every_block_the_rewrite_changes(monkeypatch, saturated):
    # Compared in the working copy, which keeps the source's block and value
    # ids: a source block that is gone, or renders differently, was written,
    # and each such block must lie in the footprint.
    sequences = [s for _, path in saturated.values() for s in path.variants()]
    edited = _edited_functions(monkeypatch)
    # The editor that finishes the working copy records the blocks it wrote:
    # each changed block must be in `written`, and `written`, restricted to
    # source ids, must lie in the footprint too.
    editors = []
    finish = _Editor.finish

    def finished(ed):
        editors.append(ed)
        return finish(ed)

    monkeypatch.setattr(_Editor, "finish", finished)
    changed = 0
    for s in sequences:
        source = s.function
        for rule in rules_named(["licm", "constfold"]):
            for out in rule.apply(s):
                edited.clear()
                editors.clear()
                out.digest
                (working,) = edited
                (ed,) = editors
                assert out.site[1] in out.footprint
                for b in source.blocks:
                    if not working.has_block(b.id) or (
                        render_block(working.block(b.id)) != render_block(b)
                    ):
                        changed += 1
                        assert b.id in out.footprint, (out.site, b.id, sorted(out.footprint))
                        assert b.id in ed.written, (out.site, b.id, sorted(ed.written))
                written = {bid for bid in ed.written if source.has_block(bid)}
                assert written <= out.footprint, (out.site, sorted(written - out.footprint))
    assert changed > 50


def test_def_sites_are_built_only_for_the_folds_that_match(monkeypatch):
    # `def_use` looks its site classes up by name when it runs, so counting
    # subclasses put in their place see every definition site it builds.
    import epathopt.analysis as analysis

    built = []
    for name in ("ParamDef", "InstrDef"):
        base = getattr(analysis, name)

        def __init__(self, *args, base=base):
            built.append(type(self))
            base.__init__(self, *args)

        monkeypatch.setattr(analysis, name, type(name, (base,), {"__init__": __init__}))

    # One chain per definition of the function of each constfold call that
    # returns outputs, and none for the calls that return nothing.
    expected = []
    constfold = RULES["constfold"].apply

    def counted(s):
        outs = constfold(s)
        if outs:
            f = s.function
            expected.extend(v for b in f.blocks for v in (*b.params, *b.instructions))
        return outs

    monkeypatch.setitem(RULES, "constfold", RewriteRule("constfold", counted))
    looping = [f for f in load_corpus().values() if Analyses.compute(f).loops]
    for f in looping:
        path = EPath(from_function(f))
        saturate(path, rules_named(["licm"]))
        assert built == [], f.name
    folded = 0
    for f in looping:
        before = len(expected)
        closure(f)
        assert len(built) == len(expected), f.name
        folded += len(expected) > before
    assert folded >= 2


# ---------------------------------------------------------------------------
# The definition map


def _defined(f):
    return [v for b in f.blocks for v in (*b.params, *(i.result for i in b.instructions))]


def _sparse_parsed_functions():
    """The corpus and 50 random functions, each renamed to sparse, shuffled
    block and value ids, printed with its blocks after the entry in
    shuffled order, and parsed back."""
    rng = random.Random(0xDEF5)
    functions = list(load_corpus().values())
    functions += [random_function(rng, max_blocks=12) for _ in range(50)]
    parsed = []
    for f in functions:
        values, blocks = _defined(f), [b.id for b in f.blocks]
        g = remap(
            f,
            dict(zip(values, rng.sample(range(5 * len(values)), len(values)))),
            dict(zip(blocks, rng.sample(range(5 * len(blocks)), len(blocks)))),
        )
        rest = [b for b in g.blocks if b.id != g.entry]
        order = [g.block(g.entry), *rng.sample(rest, len(rest))]
        parsed.append(parse_function(render_function(g.name, g.params, order)))
    return parsed


def test_defs_name_the_block_def_use_names(saturated):
    functions = [f for f, _ in saturated.values()]
    functions += [s.function for _, path in saturated.values() for s in path.variants()]
    sparse = _sparse_parsed_functions()
    assert sum(_defined(f) != sorted(_defined(f)) for f in sparse) >= 40
    assert sum([b.id for b in f.blocks] != sorted(b.id for b in f.blocks) for f in sparse) >= 40
    for f in functions + sparse:
        assert f.defs == {v: site.block for v, (site, _) in def_use(f).items()}, f.name


def test_fresh_values_start_one_past_the_largest_value_id():
    for f in _sparse_parsed_functions():
        ed = _Editor(f)
        top = max(_defined(f), default=-1)
        assert [ed.fresh_value(), ed.fresh_value()] == [top + 1, top + 2], f.name


def test_each_stored_variant_builds_its_definition_map_at_most_once(
    monkeypatch, perfbench_workloads
):
    # The cached property calls its `func` on each build, so counting there
    # keeps the caching under test.
    built = []
    defs = Function.__dict__["defs"]
    assert isinstance(defs, cached_property)
    scan = defs.func

    def counted(f):
        built.append(f)
        return scan(f)

    monkeypatch.setattr(defs, "func", counted)
    inputs = list(load_corpus().values())
    inputs += [
        parse_function(case.text)
        for workload in ("folds", "loops")
        for case in perfbench_workloads.generate(workload, 1)
    ]
    total = 0
    for f in inputs:
        built.clear()
        path = saturated_path(f)
        stored = {id(s.function) for s in path.variants()}
        ids = [id(g) for g in built]
        assert len(set(ids)) == len(ids) and set(ids) <= stored, f.name
        total += len(ids)
    assert total >= 640, total
