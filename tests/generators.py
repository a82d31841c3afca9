"""Random program generators for fuzz tests.

`random_function` builds programs from a nesting grammar (straight-line
chains, diamonds, loops), which keeps every generated function valid SSA with
reducible control flow by construction. `fold_function` builds valid,
reducible functions around constant-fold sites, which `random_function`
seldom makes. `irreducible_function` builds valid functions whose control
flow is irreducible by construction.
"""

import random
from dataclasses import replace

from epathopt import Block, BrIf, Function, Instruction, Jump, Ret, remap, terminator_targets

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
        self.blocks.append(Block(bid, tuple(params), instr, term))


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


def _then(builder, bid, params, instr):
    """Emit block `bid` holding `instr` and jumping to a new block, which is
    returned."""
    nxt = builder.reserve_block()
    builder.emit(bid, params, instr, Jump(nxt, ()))
    return nxt


def _fold_region(builder, bid, params, acc, foldable, sites, depth):
    """Emit `sites` constant-fold sites from block `bid`, in straight-line
    code, in the arms of diamonds and in loop bodies; returns the last block,
    its params and the accumulator, and the caller emits that block.

    Each site is `op(x, y)`: an operand is a new constant block or one of
    `foldable`, the constants and site results in scope, so some sites share
    one constant block and some fold only once an earlier site has folded.
    Each site's result is added into the accumulator `acc`, which diamonds
    merge and loops carry, so every site stays live."""
    rng = builder.rng
    foldable = list(foldable)
    while sites > 0:
        n = rng.randrange(1, sites + 1)
        shape = rng.random() if depth < 1 else 1.0
        if shape < 0.25:
            then_bid, else_bid, merge = (builder.reserve_block() for _ in range(3))
            builder.emit(bid, params, None, BrIf(acc, then_bid, (), else_bid, ()))
            then_sites = rng.randrange(0, n + 1)
            for arm, arm_sites in ((then_bid, then_sites), (else_bid, n - then_sites)):
                last, last_params, arm_acc = _fold_region(
                    builder, arm, (), acc, foldable, arm_sites, depth + 1
                )
                builder.emit(last, last_params, None, Jump(merge, (arm_acc,)))
            acc = builder.fresh_value()
            bid, params = merge, (acc,)
            sites -= n
        elif shape < 0.5:
            header, after = builder.reserve_block(), builder.reserve_block()
            builder.emit(bid, params, None, Jump(header, (acc,)))
            carried = builder.fresh_value()
            last, last_params, body_acc = _fold_region(
                builder, header, (carried,), carried, foldable, n, depth + 1
            )
            term = BrIf(body_acc, header, (body_acc,), after, (body_acc,))
            builder.emit(last, last_params, None, term)
            acc = builder.fresh_value()
            bid, params = after, (acc,)
            sites -= n
        else:
            operands = []
            for _ in range(2):
                if foldable and rng.random() < 0.35:
                    operands.append(rng.choice(foldable))
                    continue
                const = builder.fresh_value()
                imm = rng.randrange(-20, 21)
                bid, params = _then(builder, bid, params, Instruction("iconst", const, (), imm)), ()
                foldable.append(const)
                operands.append(const)
            result = builder.fresh_value()
            root = Instruction(rng.choice(_PURE_BINOPS), result, tuple(operands))
            bid, params = _then(builder, bid, params, root), ()
            foldable.append(result)
            total = builder.fresh_value()
            bid = _then(builder, bid, params, Instruction("iadd", total, (acc, result)))
            acc = total
            sites -= 1
    return bid, params, acc


def fold_function(rng: random.Random, name: str = "folds") -> Function:
    """A valid, reducible function of one parameter with 2 or 3 constant-fold
    sites (see `_fold_region`), placed in straight-line code, diamonds and
    loops; it returns the accumulated site results."""
    builder = _Builder(rng)
    param = builder.fresh_value()
    entry = builder.reserve_block()
    last, last_params, acc = _fold_region(
        builder, entry, (param,), param, [], rng.randrange(2, 4), 0
    )
    builder.emit(last, last_params, None, Ret((acc,)))
    return Function(name, (param,), entry, tuple(sorted(builder.blocks, key=lambda b: b.id)))


def _straight_line(builder, bid, params, scope):
    """Emit a random chain of one-instruction blocks from `bid`, adding each
    result to `scope`; returns the chain's last block and its params, which
    the caller emits."""
    for _ in range(builder.rng.randrange(0, 4)):
        instr, result = _random_instr(builder, scope)
        nxt = builder.reserve_block()
        builder.emit(bid, params, instr, Jump(nxt, ()))
        scope.append(result)
        bid, params = nxt, ()
    return bid, params


def irreducible_function(rng: random.Random, name: str = "irr") -> Function:
    """A valid function with irreducible control flow: straight-line code
    from the entry ends in a brif into two blocks, each of which branches to
    the other and to an exit followed by straight-line code. Neither block
    dominates the other, so the cycle between them has two entries. Block ids
    are shuffled, but the entry's is the lowest, so the printed text parses
    back to the function."""
    builder = _Builder(rng)
    params = tuple(builder.fresh_value() for _ in range(rng.randrange(1, 3)))
    entry, first, second, exit_bid = (builder.reserve_block() for _ in range(4))
    scope = list(params)
    bid, bid_params = _straight_line(builder, entry, params, scope)
    pick = rng.choice
    term = BrIf(pick(scope), first, (pick(scope),), second, (pick(scope),))
    builder.emit(bid, bid_params, None, term)
    for bid, other in ((first, second), (second, first)):
        param = builder.fresh_value()
        instr, result = _random_instr(builder, scope + [param])
        local = scope + [param, result]
        term = BrIf(pick(local), other, (pick(local),), exit_bid, (pick(local),))
        builder.emit(bid, (param,), instr, term)
    exit_param = builder.fresh_value()
    scope.append(exit_param)
    bid, bid_params = _straight_line(builder, exit_bid, (exit_param,), scope)
    builder.emit(bid, bid_params, None, Ret((pick(scope),)))

    lowest, *ids = sorted(rng.sample(range(3 * builder.next_block), builder.next_block))
    rng.shuffle(ids)
    f = remap(
        Function(name, params, entry, tuple(builder.blocks)),
        {v: v for v in range(builder.next_value)},
        dict(enumerate([lowest, *ids])),
    )
    return Function(name, params, f.entry, tuple(sorted(f.blocks, key=lambda b: b.id)))


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
    with_instr = [bid for bid, b in blocks.items() if b.instruction]

    if kind == "drop_definition":
        sites = [(bid, "instr") for bid in with_instr]
        sites += [(bid, "param") for bid in non_entry if blocks[bid].params]
        if not sites:
            return f
        bid, what = rng.choice(sites)
        b = blocks[bid]
        if what == "instr":
            blocks[bid] = replace(b, instruction=None)
        else:
            params = list(b.params)
            params.pop(rng.randrange(len(params)))
            blocks[bid] = replace(b, params=tuple(params))
    elif kind == "copy_instruction":
        if not with_instr or len(blocks) < 2:
            return f
        src = rng.choice(with_instr)
        dst = rng.choice([bid for bid in blocks if bid != src])
        # Replaces dst's own instruction, if any; the copied result is then
        # defined twice.
        blocks[dst] = replace(blocks[dst], instruction=blocks[src].instruction)
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
