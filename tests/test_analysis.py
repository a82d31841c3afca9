import random

import pytest

from epathopt import (
    Analyses,
    Block,
    Function,
    InstrDef,
    InstrUse,
    IrreducibleError,
    Jump,
    ParamDef,
    Ret,
    TermUse,
    def_use,
    dominators,
    find_back_edges,
    loop_regions,
    natural_loop,
    parse_function,
    print_function,
    reverse_postorder,
    terminator_targets,
)
from conftest import CORPUS_LOOPS, corpus_paths, load_corpus
from generators import MUTATIONS, mutate, random_function
from oracles import brute_dominator_sets, idom_to_sets

DIAMOND = """
func @diamond(v0) {
b0(v0):
  v1 = iconst 10
  brif v0, b1(), b2()
b1():
  v2 = iadd v0, v1
  jump b3(v2)
b2():
  v3 = isub v0, v1
  jump b3(v3)
b3(v4):
  ret v4
}
"""

STRAIGHT = """
func @line(v0) {
b0(v0):
  jump b1()
b1():
  jump b2()
b2():
  ret v0
}
"""

IRREDUCIBLE = (corpus_paths()[0].parent / "reject" / "irreducible.ir").read_text()

# Irreducible: b3 and b4 are both loop entries. One pass over the reverse
# postorder [0, 1, 2, 3, 5, 4, 6, 7] leaves b2 as b3's immediate dominator;
# the edge b6 -> b3, seen last, shows it is b0.
SECOND_PASS = """
func @second_pass(v0) {
b0(v0):
  brif v0, b1(), b2()
b1():
  jump b4()
b2():
  jump b3()
b3():
  jump b5()
b4():
  jump b5()
b5():
  brif v0, b4(), b6()
b6():
  brif v0, b3(), b7()
b7():
  ret v0
}
"""


def test_rpo_single_block():
    f = parse_function("func @id(v0) {\nb0(v0):\n  ret v0\n}")
    assert reverse_postorder(f) == [0]


def test_rpo_sec2_chain_order():
    f = load_corpus()["sec2_loop.ir"]
    assert reverse_postorder(f) == [0, 1, 2, 3, 4]


def test_rpo_diamond_then_before_else():
    f = parse_function(DIAMOND)
    assert reverse_postorder(f) == [0, 1, 2, 3]


def test_rpo_is_permutation_and_deterministic(corpus):
    for name, f in corpus.items():
        rpo = reverse_postorder(f)
        assert sorted(rpo) == sorted(b.id for b in f.blocks), name
        assert rpo[0] == f.entry, name
        assert rpo == reverse_postorder(f), name


def test_idom_straight_line():
    f = parse_function(STRAIGHT)
    idom = dominators(f)
    assert idom[1] == 0 and idom[2] == 1 and idom[0] == 0


def test_idom_diamond():
    f = parse_function(DIAMOND)
    idom = dominators(f)
    assert idom[3] == 0 and idom[1] == 0 and idom[2] == 0


def test_dominators_match_brute_force_on_corpus(corpus):
    for name, f in corpus.items():
        if len(f.blocks) > 8:
            continue
        assert idom_to_sets(f) == brute_dominator_sets(f), name


def test_dominators_match_brute_force_random():
    rng = random.Random(99)
    for _ in range(40):
        f = random_function(rng, max_blocks=8)
        assert idom_to_sets(f) == brute_dominator_sets(f)


def _reachable(f):
    seen, stack = {f.entry}, [f.entry]
    while stack:
        for target, _ in terminator_targets(f.block(stack.pop()).terminator):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def test_dominators_match_brute_force_on_mutated_graphs():
    # Mutants reach shapes the generator never builds: irreducible loops,
    # reachable blocks with unreachable predecessors, more than 8 blocks.
    rng = random.Random(0xD0D0)
    graphs = [parse_function(IRREDUCIBLE), parse_function(SECOND_PASS)]
    for _ in range(1500):
        f = random_function(rng, max_blocks=12)
        for _ in range(rng.randint(1, 2)):
            f = mutate(rng, f, rng.choice(MUTATIONS))
        graphs.append(f)
    seen = {"irreducible": 0, "unreachable_pred": 0, "over_8_blocks": 0}
    for f in graphs:
        reachable = _reachable(f)
        brute = brute_dominator_sets(f)
        assert idom_to_sets(f) == {b: brute[b] for b in reachable}, print_function(f)
        try:
            find_back_edges(f)
        except IrreducibleError:
            seen["irreducible"] += 1
        seen["unreachable_pred"] += any(
            t in reachable for b in f.blocks if b.id not in reachable
            for t, _ in terminator_targets(b.terminator)
        )
        seen["over_8_blocks"] += len(f.blocks) > 8
    assert seen["irreducible"] >= 8, seen
    assert min(seen["unreachable_pred"], seen["over_8_blocks"]) >= 100, seen


# Functions whose validation stops before its solve, so no dominators exist.
UNSOLVED = {
    "duplicate block id b1": Function("f", (), 0, (
        Block(0, (), (), Jump(1, ())),
        Block(1, (), (), Ret(())),
        Block(1, (), (), Jump(0, ())),
    )),
    "entry b5 not defined": Function("f", (), 5, (Block(0, (), (), Ret(())),)),
    "jump to undefined block b7": Function("f", (), 0, (
        Block(0, (), (), Jump(1, ())),
        Block(1, (), (), Jump(7, ())),
    )),
}


@pytest.mark.parametrize("case", sorted(UNSOLVED))
def test_dominators_of_an_unsolved_function_raise_its_violations(case):
    f = UNSOLVED[case]
    assert any(case in v for v in f.violations)
    message = "invalid function @f: " + "; ".join(f.violations)
    for analysis in (dominators, Analyses.compute):
        with pytest.raises(ValueError) as raised:
            analysis(f)
        assert str(raised.value) == message


def test_back_edges_acyclic_diamond():
    assert find_back_edges(parse_function(DIAMOND)) == set()


def test_back_edges_sec2():
    f = load_corpus()["sec2_loop.ir"]
    assert find_back_edges(f) == {(4, 1)}


def test_back_edges_irreducible_two_entry_loop():
    f = parse_function(IRREDUCIBLE)
    with pytest.raises(IrreducibleError) as exc:
        find_back_edges(f)
    src, dst = exc.value.edge
    assert {src, dst} == {1, 2}


def test_natural_loop_sec2():
    f = load_corpus()["sec2_loop.ir"]
    loop = natural_loop(f, (4, 1))
    assert loop.header == 1
    assert loop.body == frozenset({1, 2, 3, 4})
    assert loop.header_params == f.block(1).params


def test_natural_loop_self_loop():
    f = load_corpus()["self_loop.ir"]
    (edge,) = find_back_edges(f)
    loop = natural_loop(f, edge)
    assert loop.body == frozenset({1})


def test_natural_loop_rejects_non_back_edge():
    f = load_corpus()["sec2_loop.ir"]
    with pytest.raises(ValueError):
        natural_loop(f, (0, 1))


def test_natural_loop_merges_back_edges():
    f = load_corpus()["multi_backedge.ir"]
    edges = find_back_edges(f)
    assert len(edges) == 2
    regions = {natural_loop(f, e) for e in edges}
    assert len(regions) == 1
    (region,) = regions
    assert region.back_edges == frozenset(edges)


def test_nested_loop_containment():
    f = load_corpus()["nested_loops.ir"]
    outer, inner = loop_regions(f)
    assert inner.body < outer.body


def test_loop_regions_match_hand_annotations(corpus):
    for name, f in corpus.items():
        shapes = [(len(l.body), len(l.back_edges)) for l in loop_regions(f)]
        assert shapes == CORPUS_LOOPS[name], name


def test_loop_headers_dominate_bodies(corpus):
    for name, f in corpus.items():
        idom = idom_to_sets(f)
        for loop in loop_regions(f):
            for bid in loop.body:
                assert loop.header in idom[bid], (name, loop.header, bid)


def test_def_use_identity():
    f = parse_function("func @id(v0) {\nb0(v0):\n  ret v0\n}")
    chains = def_use(f)
    site, uses = chains[0]
    assert site == ParamDef(0, 0)
    assert uses == (TermUse(0, 0),)


def test_def_use_sec2_back_jump_only():
    f = load_corpus()["sec2_loop.ir"]
    chains = def_use(f)
    site, uses = chains[4]  # the incremented counter
    assert site == InstrDef(4)
    assert uses == (TermUse(4, 0),)


def test_def_use_instruction_operands():
    f = parse_function(DIAMOND)
    chains = def_use(f)
    _, uses = chains[1]  # the constant feeds both branch blocks
    assert InstrUse(1, 1) in uses and InstrUse(2, 1) in uses


def test_def_use_fuzz_uses_dominated():
    rng = random.Random(31)
    for _ in range(30):
        f = random_function(rng, max_blocks=8)
        dom = idom_to_sets(f)
        chains = def_use(f)
        for value, (site, uses) in chains.items():
            for use in uses:
                assert site.block in dom[use.block], (value, site, use)


def test_analyses_bundle(corpus):
    for f in corpus.values():
        a = Analyses.compute(f)
        assert a.function.rpo[0] == f.entry
        assert len(a.loops) == len(CORPUS_LOOPS[next(n for n, g in corpus.items() if g is f)])
