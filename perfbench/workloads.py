"""Seeded input generators for the benchmark workloads.

Every workload is a list of `Case`s: one function in the IR text format, the
argument vector `epath-opt check` runs it on, and the vectors the benchmark
itself uses to compare the extracted variant against the seed. The same
`(workload, seed)` pair always yields the same text.

* ``folds``: straight-line code with K_FOLD independent `op(iconst, iconst)`
  sites, each feeding an accumulator on the parameter. Constant folding
  applies at every site independently, so saturation stores 2^K_FOLD variants
  and three quarters of the rule outputs are duplicates. No loops: LICM and
  loop analysis match nothing.
* ``loops``: K_LOOP sequential counted loops, each with three invariant
  `iconst`s that are combined only with loop-carried values. LICM hoists each
  loop independently (2^K_LOOP variants); constant folding matches nothing.
* ``fuzz``: FUZZ_FUNCTIONS functions from the test suite's structured random
  generator (diamonds, nested loops, side effects, both rules). Few variants
  per function, so per-function fixed costs dominate; some never terminate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

K_FOLD = 8
FOLD_FUNCTIONS = 2
K_LOOP = 6
LOOP_FUNCTIONS = 2
# Per-function cost is heavy-tailed (p50 ~2 ms, p99 ~18 ms, some running out
# of fuel), so the workload's total varies from seed to seed. Resampling
# measured per-function times put the quartile spread of the total over ten
# seeds at 0.11-0.13 of its median for 200 functions; ten runs with 1000
# gave 0.05-0.06 for `opt_s` and `check_s`.
FUZZ_FUNCTIONS = 1000
FUZZ_MAX_BLOCKS = 12

# Arguments stay small so every `loops` seed terminates well inside CHECK_FUEL.
ARG_RANGE = (-5, 5)
VERIFY_VECTORS = 3

WORKLOADS = ("folds", "loops", "fuzz")


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    check_args: tuple[int, ...]
    verify_args: tuple[tuple[int, ...], ...]


class _Writer:
    """Emits one block per instruction, chained by jumps, in the IR text form."""

    def __init__(self, name: str, params: int):
        self.lines = [f"func @{name}({', '.join(f'v{i}' for i in range(params))}) {{"]
        self.next_value = params
        self.next_block = 0
        self.params = tuple(range(params))

    def value(self) -> int:
        self.next_value += 1
        return self.next_value - 1

    def block(self) -> int:
        self.next_block += 1
        return self.next_block - 1

    def emit(self, bid: int, params, instr: str | None, term: str):
        self.lines.append(f"b{bid}({', '.join(f'v{v}' for v in params)}):")
        if instr:
            self.lines.append(f"  {instr}")
        self.lines.append(f"  {term}")

    def chain(self, bid: int, params, instrs: list[str]) -> int:
        """Emit one block per instruction starting at `bid`; returns the id of
        the (not yet emitted) block the chain jumps to."""
        for instr in instrs:
            nxt = self.block()
            self.emit(bid, params, instr, f"jump b{nxt}()")
            bid, params = nxt, ()
        return bid

    def text(self) -> str:
        return "\n".join(self.lines + ["}"]) + "\n"


def _fold_function(rng: random.Random, name: str) -> str:
    w = _Writer(name, 1)
    acc = 0
    instrs = []
    for _ in range(K_FOLD):
        a, b, site, new_acc = (w.value() for _ in range(4))
        op = rng.choice(["iadd", "isub", "imul", "icmp_slt"])
        acc_op = rng.choice(["iadd", "isub", "imul"])
        instrs += [
            f"v{a} = iconst {rng.randrange(-100, 101)}",
            f"v{b} = iconst {rng.randrange(-100, 101)}",
            f"v{site} = {op} v{a}, v{b}",
            f"v{new_acc} = {acc_op} v{acc}, v{site}",
        ]
        acc = new_acc
    last = w.chain(w.block(), w.params, instrs)
    w.emit(last, (), None, f"ret v{acc}")
    return w.text()


def _loop_function(rng: random.Random, name: str) -> str:
    """Each loop counts from the parameter up to a seeded bound while
    summing the counter times a seeded factor into a carried total."""
    w = _Writer(name, 1)
    start = 0
    entry = w.block()
    zero = w.value()
    header = w.block()
    w.emit(entry, w.params, f"v{zero} = iconst 0", f"jump b{header}(v{start}, v{zero})")
    for _ in range(K_LOOP):
        i, s = w.value(), w.value()
        step, bound, factor, scaled, s2, i2, cond = (w.value() for _ in range(7))
        body_end = w.chain(
            header,
            (i, s),
            [
                f"v{step} = iconst {rng.randrange(1, 4)}",
                f"v{bound} = iconst {rng.randrange(2, 9)}",
                f"v{factor} = iconst {rng.randrange(-9, 10)}",
                f"v{scaled} = imul v{i}, v{factor}",
                f"v{s2} = iadd v{s}, v{scaled}",
                f"v{i2} = iadd v{i}, v{step}",
                f"v{cond} = icmp_slt v{i2}, v{bound}",
            ],
        )
        exit_block, next_header = w.block(), w.block()
        w.emit(
            body_end,
            (),
            None,
            f"brif v{cond}, b{header}(v{i2}, v{s2}), b{exit_block}()",
        )
        w.emit(exit_block, (), None, f"jump b{next_header}(v{start}, v{s2})")
        header = next_header
    i, s = w.value(), w.value()
    w.emit(header, (i, s), None, f"ret v{s}")
    return w.text()


def _fuzz_texts(rng: random.Random) -> list[str]:
    # Imported here: the generator lives in the test suite and imports
    # epathopt itself, so it is only importable once the source is on the path.
    from generators import random_function

    from epathopt.ir import print_function

    return [
        print_function(random_function(rng, max_blocks=FUZZ_MAX_BLOCKS, name=f"fz{i}"))
        for i in range(FUZZ_FUNCTIONS)
    ]


def _arity(text: str) -> int:
    header = text.split("(", 1)[1].split(")", 1)[0].strip()
    return len(header.split(",")) if header else 0


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "folds":
        texts = [_fold_function(rng, f"fold{i}") for i in range(FOLD_FUNCTIONS)]
    elif workload == "loops":
        texts = [_loop_function(rng, f"loop{i}") for i in range(LOOP_FUNCTIONS)]
    elif workload == "fuzz":
        texts = _fuzz_texts(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    cases = []
    for text in texts:
        n = _arity(text)

        def vector():
            return tuple(rng.randint(*ARG_RANGE) for _ in range(n))

        name = text.split("@", 1)[1].split("(", 1)[0]
        cases.append(
            Case(name, text, vector(), tuple(vector() for _ in range(VERIFY_VECTORS)))
        )
    return cases
