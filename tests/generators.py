"""Random structured-program generator for fuzz tests.

Programs are built from a nesting grammar (straight-line chains, diamonds,
loops), which keeps every generated function valid SSA with reducible control
flow by construction.
"""

import random
from dataclasses import replace

from epathopt import Block, BrIf, Function, Instruction, Jump, Ret, terminator_targets

_PURE_BINOPS = ["iadd", "isub", "imul", "icmp_slt"]


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks = []
        self.next_value = 0
        self.next_block = 0

    def fresh_value(self):
        self.next_value += 1
        return self.next_value - 1

    def reserve_block(self):
        self.next_block += 1
        return self.next_block - 1

    def emit(self, bid, params, instr, term):
        self.blocks.append(Block(bid, tuple(params), (instr,) if instr else (), term))


def _random_instr(builder, scope):
    rng = builder.rng
    result = builder.fresh_value()
    if not scope or rng.random() < 0.3:
        return Instruction("iconst", result, (), rng.randrange(-50, 51)), result
    if rng.random() < 0.15:
        return Instruction("sideeffect", result, (rng.choice(scope),)), result
    op = rng.choice(_PURE_BINOPS)
    return Instruction(op, result, (rng.choice(scope), rng.choice(scope))), result


def _gen_region(builder, entry_bid, exit_bid, exit_args, scope, budget, depth):
    """Emit blocks for one region starting at entry_bid and ending with a
    jump to exit_bid; returns the remaining block budget."""
    rng = builder.rng
    current = entry_bid
    current_params = ()
    while budget > 0:
        budget -= 1
        choice = rng.random()
        if depth < 2 and choice < 0.2 and budget >= 4 and scope:
            # diamond: brif into two sub-regions that remerge
            then_bid = builder.reserve_block()
            else_bid = builder.reserve_block()
            merge_bid = builder.reserve_block()
            builder.emit(
                current,
                current_params,
                None,
                BrIf(rng.choice(scope), then_bid, (), else_bid, ()),
            )
            half = budget // 2
            budget = _gen_region(builder, then_bid, merge_bid, (), list(scope), half, depth + 1)
            budget = _gen_region(builder, else_bid, merge_bid, (), list(scope), budget, depth + 1)
            current, current_params = merge_bid, ()
        elif depth < 2 and choice < 0.4 and budget >= 3 and scope:
            # loop: header carries one value, a body block decides to repeat
            header = builder.reserve_block()
            body = builder.reserve_block()
            after = builder.reserve_block()
            carried = builder.fresh_value()
            builder.emit(current, current_params, None, Jump(header, (rng.choice(scope),)))
            instr, result = _random_instr(builder, scope + [carried])
            builder.emit(header, (carried,), instr, Jump(body, ()))
            cond = rng.choice([carried, result])
            builder.emit(body, (), None, BrIf(cond, header, (result,), after, ()))
            budget -= 3
            current, current_params = after, ()
        else:
            instr, result = _random_instr(builder, scope)
            nxt = builder.reserve_block()
            builder.emit(current, current_params, instr, Jump(nxt, ()))
            scope = scope + [result]
            current, current_params = nxt, ()
    builder.emit(current, current_params, None, Jump(exit_bid, exit_args))
    return 0


def random_function(rng: random.Random, max_blocks: int = 8, name: str = "fuzz") -> Function:
    builder = _Builder(rng)
    n_params = rng.randrange(0, 3)
    params = tuple(builder.fresh_value() for _ in range(n_params))
    entry = builder.reserve_block()
    exit_bid = builder.reserve_block()
    budget = max(0, rng.randrange(1, max_blocks) - 2)

    # entry holds the parameters; the exit block returns something in scope
    body_entry = builder.reserve_block()
    builder.emit(entry, params, None, Jump(body_entry, ()))
    _gen_region(builder, body_entry, exit_bid, (), list(params), budget, 0)
    ret_args = (rng.choice(params),) if params and rng.random() < 0.8 else ()
    builder.emit(exit_bid, (), None, Ret(ret_args))

    blocks = tuple(sorted(builder.blocks, key=lambda b: b.id))
    return Function(name, params, entry, blocks)


MUTATIONS = ("drop_definition", "copy_instruction", "delete_block", "reroute_edge")


def _target_fields(term):
    """Names of the terminator's successor-block fields."""
    if isinstance(term, Jump):
        return ["target"]
    if isinstance(term, BrIf):
        return ["then_target", "else_target"]
    return []


def mutate(rng: random.Random, f: Function, kind: str) -> Function:
    """`f` broken by one mutation of the given kind (see MUTATIONS), or `f`
    itself when it offers no site for it. Block ids stay unique and every
    jump target stays defined, so `validate` always gets as far as checking
    reachability and uses."""
    blocks = {b.id: b for b in f.blocks}
    non_entry = [bid for bid in blocks if bid != f.entry]
    with_instr = [bid for bid, b in blocks.items() if b.instructions]

    if kind == "drop_definition":
        sites = [(bid, "instr") for bid in with_instr]
        sites += [(bid, "param") for bid in non_entry if blocks[bid].params]
        if not sites:
            return f
        bid, what = rng.choice(sites)
        b = blocks[bid]
        if what == "instr":
            blocks[bid] = replace(b, instructions=())
        else:
            params = list(b.params)
            params.pop(rng.randrange(len(params)))
            blocks[bid] = replace(b, params=tuple(params))
    elif kind == "copy_instruction":
        if not with_instr or len(blocks) < 2:
            return f
        src = rng.choice(with_instr)
        dst = rng.choice([bid for bid in blocks if bid != src])
        copied = blocks[dst].instructions + blocks[src].instructions
        blocks[dst] = replace(blocks[dst], instructions=copied)
    elif kind == "delete_block":
        if not non_entry:
            return f
        gone = blocks.pop(rng.choice(non_entry))
        succ = [t for t, _ in terminator_targets(gone.terminator) if t != gone.id]
        into = succ[0] if succ else rng.choice(sorted(blocks))
        for bid, b in blocks.items():
            term = b.terminator
            moved = {k: into for k in _target_fields(term) if getattr(term, k) == gone.id}
            blocks[bid] = replace(b, terminator=replace(term, **moved))
    elif kind == "reroute_edge":
        branching = [bid for bid, b in blocks.items() if _target_fields(b.terminator)]
        if not branching:
            return f
        b = blocks[rng.choice(branching)]
        edge = rng.choice(_target_fields(b.terminator))
        term = replace(b.terminator, **{edge: rng.choice(sorted(blocks))})
        blocks[b.id] = replace(b, terminator=term)
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return Function(f.name, f.params, f.entry, tuple(sorted(blocks.values(), key=lambda b: b.id)))
