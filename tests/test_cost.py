import random
from functools import cmp_to_key
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from epathopt import (
    CostPoly,
    CostTable,
    EPath,
    Ordering,
    compare,
    cost_of,
    default_cost_table,
    extract,
    from_function,
    load_cost_table,
    parse_function,
    print_function,
    rules_named,
    saturate,
    sort_by_cost,
    to_function,
)
from epathopt import cost
from conftest import closure, load_corpus
from generators import fold_function, random_function
from oracles import per_block_cost

RULES = rules_named(["licm", "constfold"])

coeff_lists = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=4)


def saturated(name):
    p = EPath(from_function(load_corpus()[name]))
    saturate(p, RULES)
    return p


def test_poly_normalization_and_render():
    assert CostPoly((0, 3, 0)).coefficients == (0, 3)
    assert CostPoly((0, 3)).render() == "3N^1"
    assert CostPoly((2, 1)).render() == "1N^1 + 2"
    assert CostPoly((0,)).render() == "0"
    assert CostPoly((5,)).render() == "5"
    assert CostPoly((0, 0, 7)).render() == "7N^2"
    with pytest.raises(ValueError):
        CostPoly((1, -2))
    with pytest.raises(ValueError):
        CostPoly(())


def test_compare_examples():
    assert compare(CostPoly((0, 3)), CostPoly((2, 1))) is Ordering.GREATER
    assert CostPoly((0, 3)).evaluate(10) == 30
    assert CostPoly((2, 1)).evaluate(10) == 12
    assert compare(CostPoly((0, 2)), CostPoly((0, 2))) is Ordering.EQUAL
    assert compare(CostPoly((0, 0, 1)), CostPoly((0, 1000))) is Ordering.GREATER


@given(coeff_lists, coeff_lists)
def test_compare_antisymmetric(a, b):
    pa, pb = CostPoly(tuple(a)), CostPoly(tuple(b))
    forward, backward = compare(pa, pb), compare(pb, pa)
    if forward is Ordering.EQUAL:
        assert backward is Ordering.EQUAL
        assert pa == pb
    else:
        assert backward.value == -forward.value


@given(coeff_lists, coeff_lists)
def test_compare_agrees_with_sort_by_cost(a, b):
    pa, pb = CostPoly(tuple(a)), CostPoly(tuple(b))
    # Stand-ins for two sequences with these costs. `a`'s text sorts after
    # `b`'s, so on a tie `b` goes first and `a` goes first exactly when its
    # cost is lower.
    seq_a, seq_b = SimpleNamespace(text="a"), SimpleNamespace(text="")
    costs = {id(seq_a): pa, id(seq_b): pb}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cost, "cost_of", lambda s, table: costs[id(s)])
        a_first = sort_by_cost([seq_b, seq_a])[0] is seq_a
    assert a_first == (compare(pa, pb) is Ordering.LESS)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_compare_transitive(a, b, c):
    pa, pb, pc = (CostPoly(tuple(x)) for x in (a, b, c))
    if compare(pa, pb) is not Ordering.GREATER and compare(pb, pc) is not Ordering.GREATER:
        assert compare(pa, pc) is not Ordering.GREATER


@given(coeff_lists, coeff_lists)
def test_compare_agrees_with_eventual_evaluation(a, b):
    pa, pb = CostPoly(tuple(a)), CostPoly(tuple(b))
    n0 = 1 + max(sum(pa.coefficients), sum(pb.coefficients))
    order = compare(pa, pb)
    for n in (n0, n0 + 1, 2 * n0 + 17):
        ea, eb = pa.evaluate(n), pb.evaluate(n)
        if order is Ordering.LESS:
            assert ea < eb
        elif order is Ordering.GREATER:
            assert ea > eb
        else:
            assert ea == eb


def test_cost_sec2_golden():
    s = from_function(load_corpus()["sec2_loop.ir"])
    assert cost_of(s) == CostPoly((0, 3))
    assert cost_of(s).render() == "3N^1"


def test_cost_sec2_hoisted_golden():
    (hoisted,) = [
        s for s in saturated("sec2_loop.ir").variants()
        if cost_of(s) != CostPoly((0, 3))
    ]
    assert cost_of(hoisted) == CostPoly((2, 1))
    assert cost_of(hoisted).render() == "1N^1 + 2"


def test_cost_empty_function_is_zero():
    s = from_function(load_corpus()["empty_ret.ir"])
    assert cost_of(s) == CostPoly((0,))


def test_cost_nested_loop_degree():
    s = from_function(load_corpus()["nested_loops.ir"])
    assert cost_of(s).degree == 2


def test_cost_of_matches_per_block_depths():
    # Every stored variant, under the default table and a weighted one with
    # a terminator cost.
    weighted = CostTable({"iconst": 2, "imul": 5, "sideeffect": 3}, 1)
    functions = list(load_corpus().values())
    functions += [random_function(random.Random(seed)) for seed in range(200)]
    functions += [fold_function(random.Random(seed)) for seed in range(200)]
    degrees = set()
    for f in functions:
        for s in closure(f):
            for table in (None, weighted):
                assert cost_of(s, table) == per_block_cost(s, table), print_function(f)
            degrees.add(cost_of(s).degree)
    assert degrees >= {0, 1, 2}


def test_cost_table_validation():
    with pytest.raises(ValueError, match="unknown opcodes"):
        CostTable({"bogus": 1})
    with pytest.raises(ValueError, match="nonnegative"):
        CostTable({"iadd": -1})


def test_load_cost_table():
    table = load_cost_table("; weights\nimul = 4\niconst = 0\nterminator = 2\n")
    assert table.opcode_cost("imul") == 4
    assert table.opcode_cost("iconst") == 0
    assert table.opcode_cost("iadd") == 1  # default retained
    assert table.terminator_cost == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("widget = 1", "unknown opcode"),
        ("iadd = x", "bad integer"),
        ("iadd 3", "expected"),
        ("iadd = 1\niadd = 2", "duplicate"),
        ("terminator = 1\nterminator = 2", "duplicate"),
        # The IR's integer syntax: no digit separators, no "+" sign.
        ("iadd = 1_0", r"^line 1: bad integer '1_0'$"),
        ("imul = 2\niadd = +3", r"^line 2: bad integer '\+3'$"),
        ("iadd = \u0661\u0660", "^line 1: bad integer '\u0661\u0660'$"),
        # As between the IR's tokens, only spaces and tabs separate them.
        ("iadd =\u00a05", r"^line 1: bad integer '\\xa05'$"),
        ("iadd = 5\u3000", r"^line 1: bad integer '5\\u3000'$"),
        ("imul = 2\n\u3000iadd = 5", r"^line 2: unknown opcode '\\u3000iadd'$"),
        # A negative cost is located like every other error.
        ("imul = 2\niadd = -3", "^line 2: costs must be nonnegative$"),
        ("terminator = -1", "^line 1: costs must be nonnegative$"),
    ],
)
def test_load_cost_table_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_cost_table(text)


def test_spaces_and_tabs_separate_cost_tokens():
    assert load_cost_table("\t iadd\t=  5 \t").opcode_cost("iadd") == 5


def test_load_cost_table_counts_lines_like_the_ir():
    # A form feed neither ends a line nor makes one non-blank.
    with pytest.raises(ValueError, match="^line 3: unknown opcode 'bogus'$"):
        load_cost_table("imul = 4\n\x0c\nbogus = 1")
    with pytest.raises(ValueError, match="^line 3: bad integer 'x'$"):
        load_cost_table("imul = 4\r\n; comment\r\niadd = x\r\n")
    table = load_cost_table("imul = 4\r; comment\riconst = 0  ; free\r")
    assert (table.opcode_cost("imul"), table.opcode_cost("iconst")) == (4, 0)


def test_extract_singleton_is_seed():
    p = EPath(from_function(load_corpus()["identity.ir"]))
    assert extract(p) == p.sequence(p.seed)


def test_extract_sec2_picks_hoisted():
    p = saturated("sec2_loop.ir")
    best = extract(p)
    assert cost_of(best) == CostPoly((2, 1))


def test_extract_scale_invariant():
    p = saturated("sec2_loop.ir")
    baseline = extract(p).digest
    for k in (2, 5, 17):
        table = CostTable(
            {op: k * c for op, c in default_cost_table().opcode_costs.items()},
            k * default_cost_table().terminator_cost,
        )
        assert extract(p, table).digest == baseline


def test_extract_matches_brute_force_argmin(corpus):
    table = default_cost_table()
    for name in corpus:
        p = saturated(name)
        best = extract(p, table)
        for other in p.variants():
            assert compare(cost_of(best, table), cost_of(other, table)) is not Ordering.GREATER, name


def test_extract_tie_break_by_printed_form():
    # Two equal-cost variants: folding either branch of the diamond first.
    p = saturated("diamond_consts.ir")
    by_cost = {}
    for s in p.variants():
        by_cost.setdefault(cost_of(s), []).append(s)
    tied = next(group for group in by_cost.values() if len(group) > 1)
    ordered = sort_by_cost(tied)
    texts = [print_function(to_function(s)) for s in ordered]
    assert texts == sorted(texts)


def test_sort_by_cost_is_ascending():
    p = saturated("loop_invariant_chain.ir")
    ordered = sort_by_cost(p.variants())
    costs = [cost_of(s) for s in ordered]
    for a, b in zip(costs, costs[1:]):
        assert compare(a, b) is not Ordering.GREATER


def test_sort_by_cost_matches_compare_then_text(corpus):
    # The order `compare` defines, ties broken by printed form.
    def cmp(a, b):
        order = compare(cost_of(a), cost_of(b))
        if order is not Ordering.EQUAL:
            return order.value
        ta, tb = (print_function(to_function(s)) for s in (a, b))
        return (ta > tb) - (ta < tb)

    for name in corpus:
        variants = saturated(name).variants()
        assert sort_by_cost(variants) == sorted(variants, key=cmp_to_key(cmp)), name
