import random
from dataclasses import replace

import pytest

from epathopt import (
    Block,
    BrIf,
    EPath,
    Function,
    Instruction,
    IrreducibleError,
    Jump,
    Ret,
    analyze,
    canonical_hash,
    dominators,
    find_back_edges,
    from_function,
    parse_function,
    print_function,
    remap,
    reverse_postorder,
    rules_named,
    saturate,
    to_dot,
    to_function,
    validate,
)
from epathopt.ir import remap_block
from conftest import corpus_paths, golden, load_corpus
from generators import irreducible_function, mutate, random_function
from oracles import (
    brute_dominator_sets,
    brute_irreducible_edge,
    idom_to_sets,
    reference_must_dataflow,
)


def _alpha_rename(f, rng):
    """Random bijective renaming of all value and block ids."""
    values = sorted({v for b in f.blocks for v in b.params}
                    | {b.instruction.result for b in f.blocks if b.instruction})
    blocks = sorted(b.id for b in f.blocks)
    shuffled_v = list(range(len(values) * 3))
    rng.shuffle(shuffled_v)
    shuffled_b = list(range(len(blocks) * 3))
    rng.shuffle(shuffled_b)
    vmap = dict(zip(values, shuffled_v))
    bmap = dict(zip(blocks, shuffled_b))
    return remap(f, vmap, bmap)


def test_identity_single_block_sequence():
    f = parse_function("func @id(v0) {\nb0(v0):\n  ret v0\n}")
    s = from_function(f)
    assert len(s) == 1
    assert len(s.digest) == 16
    assert int(s.digest, 16) >= 0


def test_canonical_ids_are_dense():
    f = load_corpus()["sec2_loop.ir"]
    s = from_function(f)
    assert [b.id for b in s.blocks] == list(range(len(s.blocks)))
    defined = [v for b in s.blocks for v in b.params]
    defined += [b.instruction.result for b in s.blocks if b.instruction]
    assert sorted(defined) == list(range(len(defined)))


def test_alpha_renamed_functions_canonicalize_equal():
    rng = random.Random(5)
    for path in corpus_paths():
        f = parse_function(path.read_text())
        s = from_function(f)
        for _ in range(3):
            g = _alpha_rename(f, rng)
            assert validate(g) == [], path.name
            t = from_function(g)
            assert t == s, path.name
            assert t.digest == s.digest, path.name


def test_roundtrip_through_function():
    for path in corpus_paths():
        s = from_function(parse_function(path.read_text()))
        assert from_function(to_function(s)) == s, path.name


def test_to_function_validates_and_preserves_block_count():
    s = from_function(load_corpus()["diamond.ir"])
    f = to_function(s, "diamond")
    assert validate(f) == []
    assert len(f.blocks) == len(s.blocks)


def test_sec2_hoisted_variant_prints_to_golden():
    f = load_corpus()["sec2_loop.ir"]
    path = EPath(from_function(f))
    saturate(path, rules_named(["licm"]))
    seed = path.sequence(path.seed)
    (hoisted,) = [s for s in path.variants() if s != seed]
    assert print_function(to_function(hoisted, "sec2")) == golden("sec2_loop_licm.txt")


def test_digest_deterministic():
    f = load_corpus()["sec2_loop.ir"]
    s = from_function(f)
    assert canonical_hash(s) == s.digest
    assert from_function(f).digest == s.digest
    # pinned: digests must be stable across processes and runs
    assert s.digest == canonical_hash(from_function(parse_function(golden("sec2_loop.txt"))))


def test_sec2_original_and_hoisted_digests_differ():
    original = from_function(parse_function(golden("sec2_loop.txt")))
    hoisted = from_function(parse_function(golden("sec2_loop_licm.txt")))
    assert original.digest != hoisted.digest
    assert original != hoisted


def test_from_function_rejects_invalid():
    f = parse_function("func @id(v0) {\nb0(v0):\n  ret v0\n}")
    broken = remap(f, {0: 0}, {0: 0}, name="id")
    object.__setattr__(broken, "entry", 9)
    with pytest.raises((ValueError, KeyError)):
        from_function(broken)


def test_analyze_rejects_an_irreducible_sequence():
    # `from_function` only canonicalizes; the sequence's analyses reject it.
    f = parse_function((corpus_paths()[0].parent / "reject" / "irreducible.ir").read_text())
    s = from_function(f)
    assert "function" not in vars(s)
    with pytest.raises(IrreducibleError):
        analyze(s)


def _branch_chain(rng, n):
    """A valid function of n blocks with shuffled ids: each block branches on
    the entry's parameter to the next, the last returns it."""
    ids = rng.sample(range(3 * n), n)
    blocks = [
        Block(bid, (0,) if i == 0 else (), (), BrIf(0, nxt, (), nxt, ()))
        for i, (bid, nxt) in enumerate(zip(ids, ids[1:]))
    ]
    blocks.append(Block(ids[-1], (), (), Ret((0,))))
    return Function("g", (0,), ids[0], tuple(blocks))


def test_irreducible_edge_is_named_in_the_functions_own_ids():
    rng = random.Random(0x1BB)
    reject = corpus_paths()[0].parent / "reject" / "irreducible.ir"
    irreducible = parse_function(reject.read_text())
    graphs = [irreducible] + [_alpha_rename(irreducible, rng) for _ in range(10)]
    # Seeded mutants: branch chains with rerouted edges, kept when valid and
    # irreducible.
    while len(graphs) < 50:
        f = _branch_chain(rng, rng.randint(3, 8))
        for _ in range(rng.randint(1, 3)):
            f = mutate(rng, f, "reroute_edge")
        if validate(f):
            continue
        try:
            find_back_edges(f)
        except IrreducibleError:
            graphs.append(f)
    graphs += [irreducible_function(rng) for _ in range(50)]
    for f in graphs:
        with pytest.raises(IrreducibleError) as expected:
            find_back_edges(f)
        s = from_function(f)
        assert "function" not in vars(s)
        with pytest.raises(IrreducibleError) as raised:
            analyze(s)
        assert raised.value.edge == expected.value.edge, print_function(f)
        assert str(raised.value) == str(expected.value)


def test_digest_no_collisions_across_corpus_closures():
    by_digest = {}
    rules = rules_named(["licm", "constfold"])
    for path in corpus_paths():
        p = EPath(from_function(parse_function(path.read_text())))
        saturate(p, rules)
        for s in p.variants():
            if s.digest in by_digest:
                assert by_digest[s.digest] == s
            by_digest[s.digest] = s
    sequences = list(by_digest.values())
    for i, a in enumerate(sequences):
        for b in sequences[i + 1 :]:
            assert a != b


def test_dot_emission():
    s = from_function(load_corpus()["diamond.ir"])
    dot = to_dot(s, "diamond")
    assert dot.startswith('digraph "diamond" {')
    assert dot.count("->") == 4
    assert '[label="then"]' in dot and '[label="else"]' in dot
    assert to_dot(s, "diamond") == dot


def _closure_and_outputs(f, rules):
    """Every variant of `f`'s closure, then every rule output built from
    them, duplicates included."""
    p = EPath(from_function(f))
    saturate(p, rules)
    variants = p.variants()
    outputs = [out.sequence for s in variants for rule in rules for out in rule.apply(s)]
    return variants + outputs


def test_text_and_digest_match_the_printed_oracle():
    rules = rules_named(["licm", "constfold"])
    functions = [parse_function(path.read_text()) for path in corpus_paths()]
    rng = random.Random(41)
    functions += [random_function(rng, max_blocks=12) for _ in range(200)]
    checked = 0
    for f in functions:
        for s in _closure_and_outputs(f, rules):
            assert s.text == print_function(to_function(s)), f.name
            assert s.digest == canonical_hash(s), f.name
            checked += 1
    assert checked > len(functions)

    for path in corpus_paths():
        f = parse_function(path.read_text())
        s = from_function(f)
        g = from_function(_alpha_rename(f, rng))
        assert g == s and hash(g) == hash(s) and g.text == s.text, path.name


def _solved_dominators(f):
    """Immediate dominators of `f` from its own walk and a standalone solve
    with one bit per block, by the reference solver."""
    rpo = reverse_postorder(f)
    strict = reference_must_dataflow(f, {bid: 1 << i for i, bid in enumerate(rpo)})
    return {bid: rpo[strict[bid].bit_length() - 1] if bid != f.entry else bid for bid in rpo}


def test_canonical_function_inherits_the_sources_walk_and_dominators(saturated):
    # A canonical function is never walked or solved: it takes `0..n-1` as
    # its reverse postorder and its source's dominator positions. Both must be
    # what a fresh function built from its blocks gets by itself.
    checked = brute_checked = 0
    for f, path in saturated.values():
        for s in path.variants():
            kept = s.function
            fresh = Function("s", s.params, 0, s.blocks)
            assert kept.rpo == reverse_postorder(fresh) == list(range(len(s))), f.name
            assert dominators(kept) == _solved_dominators(fresh), f.name
            if len(s) <= 8:
                assert idom_to_sets(kept) == brute_dominator_sets(kept), f.name
                brute_checked += 1
            checked += 1
    assert checked > len(saturated) and brute_checked > 100


def test_parsed_irreducible_function_names_its_own_edge():
    rng = random.Random(0x1E1)
    for i in range(100):
        f = parse_function(print_function(irreducible_function(rng, name=f"irr{i}")))
        expected = brute_irreducible_edge(f)
        assert expected is not None
        s = from_function(f)
        assert "function" not in vars(s)
        with pytest.raises(IrreducibleError) as raised:
            analyze(s)
        assert raised.value.edge == expected, print_function(f)


def _memo_free(f):
    """`f` with each block rebuilt by `dataclasses.replace`: equal blocks
    that keep no text and no renamings."""
    return Function(f.name, f.params, f.entry, tuple(replace(b) for b in f.blocks))


def _assert_same_canonical_form(f, why):
    s, fresh = from_function(f), from_function(_memo_free(f))
    assert s.blocks == fresh.blocks, why
    assert (s.text, s.digest) == (fresh.text, fresh.digest), why
    assert s.text == print_function(to_function(s)), why
    return s


def test_kept_renamings_and_texts_equal_a_fresh_canonicalization(saturated):
    # Every stored block, and every block a rule output shares with its
    # source, is renamed through its kept renamings and printed from its
    # kept text; a copy that keeps neither must canonicalize the same.
    rules = rules_named(["licm", "constfold"])
    outputs = recalled = 0
    for f, path in saturated.values():
        stored = {id(b) for s in path.variants() for b in s.blocks}
        for s in path.variants():
            _assert_same_canonical_form(s.function, f.name)
            for rule in rules:
                for out in rule.apply(s):
                    g = out.edit().finish()
                    t = _assert_same_canonical_form(g, (f.name, out.site))
                    recalled += sum(id(b) in stored and b not in g.blocks for b in t.blocks)
                    outputs += 1
    # Many output blocks are renamings recalled from a stored block's memo.
    assert outputs > len(saturated) and recalled > outputs


def test_a_canonical_block_renamed_three_ways():
    f = parse_function(
        "func @f(v0) {\nb0(v0):\n  v1 = iadd v0, v0\n  jump b1(v1)\n"
        "b1(v2):\n  v3 = imul v2, v0\n  ret v3\n}"
    )
    block = from_function(f).blocks[1]
    assert block == Block(1, (2,), (Instruction("imul", 3, (2, 0)),), Ret((3,)))
    # Two different maps give two different blocks, each equal to what a
    # block without kept renamings gives, and a repeated map the same block.
    shifted = ({0: 0, 2: 5, 3: 6}, {1: 4})
    swapped = ({0: 2, 2: 0, 3: 1}, {1: 1})
    a, b = remap_block(block, *shifted), remap_block(block, *swapped)
    assert a == remap_block(replace(block), *shifted)
    assert a == Block(4, (5,), (Instruction("imul", 6, (5, 0)),), Ret((6,)))
    assert b == remap_block(replace(block), *swapped)
    assert b == Block(1, (0,), (Instruction("imul", 1, (0, 2)),), Ret((1,)))
    assert remap_block(block, *shifted) is a and remap_block(block, *swapped) is b
    # A map that sends every id to itself gives the block itself.
    assert remap_block(block, {v: v for v in range(4)}, {1: 1}) is block
    # A map that lacks a value still fails canonicalization: nothing in `g`
    # defines v0, which the canonical block reads.
    lacking = Function("g", (7,), 0, (Block(0, (7,), (), Jump(1, (7,))), block))
    with pytest.raises(ValueError, match="invalid function @g"):
        from_function(lacking)
    assert remap_block(block, *shifted) is a
