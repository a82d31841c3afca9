"""Independent brute-force oracles shared by the unit and acceptance tests.

Each reimplements a property from first principles (graph disconnection,
exhaustive enumeration) rather than reusing the library's algorithms.
"""

import itertools

from epathopt import (
    FuelExhausted,
    Jump,
    PatOp,
    PatVar,
    Ret,
    Returned,
    analyze,
    dominators,
    terminator_targets,
    terminator_values,
    wrap64,
)


def _edges(f):
    out = []
    for b in f.blocks:
        for target, _ in terminator_targets(b.terminator):
            out.append((b.id, target))
    return out


def brute_dominator_sets(f):
    """b dominates c iff removing b disconnects c from entry (plus b dom b)."""
    ids = [b.id for b in f.blocks]
    edges = _edges(f)

    def reachable_without(removed):
        seen = set()
        if f.entry == removed:
            return seen
        stack = [f.entry]
        seen.add(f.entry)
        while stack:
            cur = stack.pop()
            for s, t in edges:
                if s == cur and t != removed and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    dom = {c: {c} for c in ids}
    for b in ids:
        for c in set(ids) - reachable_without(b):
            dom[c].add(b)
    return dom


def idom_to_sets(f):
    """Dominator sets derived from the immediate-dominator chain."""
    idom = dominators(f)
    sets = {}
    for b in idom:
        chain = {b}
        cur = b
        while idom[cur] != cur:
            cur = idom[cur]
            chain.add(cur)
        sets[b] = chain
    return sets


def _pattern_op_nodes(node, path=()):
    out = [(node, path)]
    for i, sub in enumerate(node.operands):
        if isinstance(sub, PatOp):
            out.extend(_pattern_op_nodes(sub, path + (i,)))
    return out


def brute_matches(pat, s):
    """Enumerate every assignment of pattern nodes to instructions and keep
    the consistent ones; independent of the recursive matcher."""
    blocks = [b for b in s.blocks if b.instruction]
    instrs = [b.instruction for b in blocks]
    position = {b.instruction.result: i for i, b in enumerate(blocks)}
    nodes = _pattern_op_nodes(pat.tree)

    found = []
    for assignment in itertools.product(instrs, repeat=len(nodes)):
        lookup = dict(zip((path for _, path in nodes), assignment))
        ok = True
        bindings = {}
        for (node, path), instr in zip(nodes, assignment):
            if instr.opcode != node.opcode:
                ok = False
                break
            if node.opcode == "iconst" and node.imm is not None:
                if isinstance(node.imm, str):
                    bindings[node.imm] = instr.imm
                elif instr.imm != node.imm:
                    ok = False
                    break
            for i, sub in enumerate(node.operands):
                if isinstance(sub, PatVar):
                    bindings[sub.name] = instr.operands[i]
                elif instr.operands[i] != lookup[path + (i,)].result:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            bindings[pat.root] = assignment[0].result
            found.append(bindings)
    found.sort(key=lambda m: position[m[pat.root]])
    return found


def brute_closure(seed, rules):
    """Exhaustive rewrite closure without any worklist bookkeeping."""
    seen = {seed.digest: seed}
    changed = True
    while changed:
        changed = False
        for s in list(seen.values()):
            for rule in rules:
                for out in rule.apply(s, analyze(s)):
                    if out.digest not in seen:
                        seen[out.digest] = out
                        changed = True
    return set(seen)


def fixpoint_invariance(loop, f):
    """The blocks of `loop` whose instruction LICM may hoist: the least set
    closed under "pure, and every operand is a parameter or result defined
    outside the loop or the result of a block in the set", found by sweeping
    the blocks in id order until a sweep adds nothing."""
    defined_in = {}
    for b in f.blocks:
        for v in b.params:
            defined_in[v] = (b.id, False)
        for instr in b.instructions:
            defined_in[instr.result] = (b.id, True)

    def invariant_operand(v, found):
        block, by_instruction = defined_in[v]
        return block not in loop.body or (by_instruction and block in found)

    found = set()
    changed = True
    while changed:
        changed = False
        for b in sorted(f.blocks, key=lambda blk: blk.id):
            instr = b.instruction
            if b.id not in loop.body or b.id in found or not instr or instr.opcode == "sideeffect":
                continue
            if all(invariant_operand(v, found) for v in instr.operands):
                found.add(b.id)
                changed = True
    return found


def brute_validate(f):
    """What `validate` must say about reachability and uses, by graph search.

    Returns (flagged uses as (block, value, undefined) triples, unreachable
    block ids, whether some block jumps to the entry). A use of v in block B
    is legal when v is defined earlier in B; otherwise when v is defined
    somewhere and removing every block that defines v leaves no path from
    the entry into B. Assumes every jump target is defined.
    """
    edges = _edges(f)

    def search(removed):
        if f.entry in removed:
            return set()
        seen = {f.entry}
        stack = [f.entry]
        while stack:
            cur = stack.pop()
            for s, t in edges:
                if s == cur and t not in removed and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    defining = {}
    for b in f.blocks:
        for v in (*b.params, *(i.result for i in b.instructions)):
            defining.setdefault(v, set()).add(b.id)

    def connected_avoiding_defs(bid, v):
        if bid == f.entry:
            return True
        seen = search(defining[v])
        return any(s in seen for s, t in edges if t == bid)

    reachable = search(set())
    flagged = set()
    for b in f.blocks:
        if b.id not in reachable:
            continue
        local = set(b.params)
        uses = []
        for instr in b.instructions:
            uses.extend((v, set(local)) for v in instr.operands)
            local.add(instr.result)
        uses.extend((v, local) for v in terminator_values(b.terminator))
        for v, earlier in uses:
            if v in earlier:
                continue
            if v not in defining or connected_avoiding_defs(b.id, v):
                flagged.add((b.id, v, v not in defining))
    unreachable = {b.id for b in f.blocks} - reachable
    return flagged, unreachable, any(t == f.entry for _, t in edges)


def brute_interpret(f, args, fuel):
    """`interpret` as a plain walk: no state is tracked, so a run that never
    returns stops only when its fuel runs out."""
    if len(args) != len(f.params):
        raise ValueError(f"@{f.name} takes {len(f.params)} arguments, got {len(args)}")
    if fuel <= 0:
        raise ValueError("fuel must be positive")

    env = {}
    effects = []
    current = f.entry
    incoming = tuple(wrap64(a) for a in args)
    while True:
        if fuel == 0:
            return FuelExhausted()
        fuel -= 1
        block = f.block(current)
        env.update(zip(block.params, incoming))
        for instr in block.instructions:
            env[instr.result] = _brute_step(instr, env, effects)
        term = block.terminator
        if isinstance(term, Ret):
            return Returned(tuple(env[v] for v in term.args), tuple(effects))
        if isinstance(term, Jump):
            current, arg_ids = term.target, term.args
        else:
            if env[term.cond] != 0:
                current, arg_ids = term.then_target, term.then_args
            else:
                current, arg_ids = term.else_target, term.else_args
        incoming = tuple(env[v] for v in arg_ids)


def _brute_step(instr, env, effects):
    op = instr.opcode
    if op == "iconst":
        return wrap64(instr.imm)
    if op == "sideeffect":
        value = env[instr.operands[0]]
        effects.append(("eff", value))
        return value
    a, b = (env[v] for v in instr.operands)
    if op == "iadd":
        return wrap64(a + b)
    if op == "isub":
        return wrap64(a - b)
    if op == "imul":
        return wrap64(a * b)
    if op == "icmp_slt":
        return 1 if a < b else 0
    raise ValueError(f"unknown opcode {op!r}")
