import random
import sys
import types
from pathlib import Path

import pytest

from epathopt import (
    EPath,
    ESequence,
    Function,
    from_function,
    interpret,
    parse_function,
    rules_named,
    saturate,
    to_function,
)
from generators import fold_function, random_function

CORPUS_DIR = Path(__file__).parent / "corpus"
GOLDEN_DIR = Path(__file__).parent / "goldens"
WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

ORACLE_SEED = 0xE9A7
ORACLE_VECTORS = 16
ORACLE_FUEL = 10_000

# Hand-annotated natural loops per corpus file: outermost-first
# (body size, number of back edges).
CORPUS_LOOPS = {
    "identity.ir": [],
    "empty_ret.ir": [],
    "straightline_add.ir": [],
    "straightline_chain.ir": [],
    "straightline_consts.ir": [],
    "diamond.ir": [],
    "diamond_consts.ir": [],
    "fold_zero_mul.ir": [],
    "fold_icmp.ir": [],
    "sec2_loop.ir": [(4, 1)],
    "sec2_loop_bounded.ir": [(5, 1)],
    "loop_single_inv.ir": [(2, 1)],
    "loop_no_inv.ir": [(2, 1)],
    "loop_sideeffect.ir": [(4, 1)],
    "loop_sideeffect_only.ir": [(1, 1)],
    "loop_conditional_body.ir": [(7, 1)],
    "nested_loops.ir": [(7, 1), (3, 1)],
    "self_loop.ir": [(1, 1)],
    "multi_backedge.ir": [(6, 2)],
    "loop_invariant_chain.ir": [(4, 1)],
    "loop_invariant_brif.ir": [(3, 1)],
    "loop_invariant_merge.ir": [(6, 1)],
    "loop_exit_use.ir": [(4, 1)],
    "two_loops.ir": [(3, 1), (3, 1)],
    "merge_header_loop.ir": [(3, 1)],
}


def corpus_paths() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.ir"))


def load_corpus() -> dict[str, Function]:
    return {p.name: parse_function(p.read_text()) for p in corpus_paths()}


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text().rstrip("\n")


def argument_vectors(n_params: int, count: int = ORACLE_VECTORS) -> list[list[int]]:
    rng = random.Random(ORACLE_SEED)
    return [[rng.randrange(-100, 101) for _ in range(n_params)] for _ in range(count)]


# Sequence cap for `saturated_path`: four times the largest closure a caller
# builds (256 variants, on the seed-1 `folds` input), so a rule that makes a
# closure grow fails fast instead of exhausting memory.
CLOSURE_CAP = 1024


def saturated_path(f: Function) -> EPath:
    """`f`'s e-path, saturated under the default rules; asserts that it
    reaches its fixed point within `CLOSURE_CAP` sequences."""
    p = EPath(from_function(f))
    report = saturate(p, rules_named(["licm", "constfold"]), max_sequences=CLOSURE_CAP)
    assert report.reached_fixed_point, f"@{f.name}: no fixed point within {CLOSURE_CAP} sequences"
    return p


def closure(f: Function) -> list[ESequence]:
    """Every variant of `f`'s saturated e-path under the default rules."""
    return saturated_path(f).variants()


def assert_all_equivalent(sequences, name: str, n_params: int):
    """Interpreter oracle: every sequence agrees on values and effect lists
    for the fixed-seed argument vectors."""
    functions = [to_function(s, name) for s in sequences]
    for vector in argument_vectors(n_params):
        results = [interpret(g, vector, ORACLE_FUEL) for g in functions]
        assert all(r == results[0] for r in results), (name, vector, results)


@pytest.fixture(scope="session")
def corpus() -> dict[str, Function]:
    functions = load_corpus()
    assert len(functions) >= 20
    assert set(CORPUS_LOOPS) == set(functions)
    return functions


@pytest.fixture(scope="session")
def saturated() -> dict[tuple[str, object], tuple[Function, EPath]]:
    """Each shared input with its `saturated_path`, built once per session and
    keyed by generator and seed, in this order: the corpus, keyed
    `("corpus", file name)`, then `random_function(Random(seed))` and
    `fold_function(Random(seed))` for each seed below 200, keyed
    `("random_function", seed)` and `("fold_function", seed)`. Read-only."""
    inputs = {("corpus", name): f for name, f in load_corpus().items()}
    for generator in (random_function, fold_function):
        for seed in range(200):
            inputs[generator.__name__, seed] = generator(random.Random(seed))
    return {key: (f, saturated_path(f)) for key, f in inputs.items()}


@pytest.fixture
def perfbench_workloads(monkeypatch) -> types.ModuleType:
    """The benchmark's input generators, executed from source so nothing is
    written next to them."""
    module = types.ModuleType("perfbench_workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for its dataclass
    exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    return module
