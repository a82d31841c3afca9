"""Independent brute-force oracles shared by the unit and acceptance tests.

Each reimplements a property from first principles (graph disconnection,
exhaustive enumeration) rather than reusing the library's algorithms.
"""

import dataclasses
import itertools
import math

from epathopt import (
    CostPoly,
    EPath,
    FuelExhausted,
    Jump,
    PatOp,
    PatVar,
    Ret,
    Returned,
    RewriteEdge,
    RewriteRule,
    SaturationReport,
    analyze,
    default_cost_table,
    dominators,
    saturate,
    terminator_targets,
    terminator_values,
    wrap64,
)
from epathopt.ir import edges_conflict, must_dataflow, render_value


def defined_by(b):
    """The values block `b` defines: its params, then its instruction's result."""
    return (*b.params, b.instruction.result) if b.instruction else b.params


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


def reference_must_dataflow(f, gen):
    """`ir.must_dataflow` without its round test: the same greatest fixpoint
    over `f.rpo`, each block pushing to its successors, but any change to an
    input starts another full round, so even an acyclic graph takes two
    rounds."""
    into = {f.entry: 0}
    changed = True
    while changed:
        changed = False
        for bid in f.rpo:
            out = into[bid] | gen[bid]
            for succ, _ in terminator_targets(f.block(bid).terminator):
                old = into.get(succ)
                new = out if old is None else old & out
                if new != old:
                    into[succ] = new
                    changed = True
    return into


def brute_irreducible_edge(f):
    """The edge an `IrreducibleError` on `f` must name: the first edge of a
    terminator-order DFS that reaches a block on the DFS stack that does not
    dominate its source, by `brute_dominator_sets`; None for a reducible
    `f`."""
    dom = brute_dominator_sets(f)

    def succs(bid):
        return [t for t, _ in terminator_targets(f.block(bid).terminator)]

    on_stack, visited = {f.entry}, {f.entry}
    stack = [(f.entry, succs(f.entry))]
    while stack:
        bid, pending = stack[-1]
        if not pending:
            on_stack.discard(bid)
            stack.pop()
            continue
        nxt = pending.pop(0)
        if nxt in on_stack and nxt not in dom[bid]:
            return bid, nxt
        if nxt not in visited:
            visited.add(nxt)
            on_stack.add(nxt)
            stack.append((nxt, succs(nxt)))
    return None


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
                for out in rule.apply(s):
                    if out.sequence.digest not in seen:
                        seen[out.sequence.digest] = out.sequence
                        changed = True
    return set(seen)


def flat_saturate(path, rules, *, max_iterations=64, max_sequences=100_000):
    """`saturate` without commuting squares: every rule output is built and
    looked up by its digest. The same frontier walk, so the same insert calls
    in the same order, and a report with `predicted == 0`."""
    if max_iterations <= 0 or max_sequences <= 0:
        raise ValueError("limits must be positive")

    stored = len(path)
    frontier = path.digests()
    counts = {rule.name: 0 for rule in rules}
    deduplicated = iterations = 0

    while frontier and iterations < max_iterations:
        iterations += 1
        new = []
        for digest in frontier:
            seq = path.sequence(digest)
            for rule in rules:
                for out in rule.apply(seq):
                    counts[rule.name] += 1
                    target = out.sequence
                    if target.digest not in path:
                        if len(path) >= max_sequences:
                            return SaturationReport(
                                iterations, len(path) - stored, deduplicated, False, counts
                            )
                    if path.insert(target, RewriteEdge(digest, target.digest, rule.name)):
                        new.append(target.digest)
                    else:
                        deduplicated += 1
        frontier = sorted(new)

    return SaturationReport(iterations, len(path) - stored, deduplicated, not frontier, counts)


class RecordingEPath(EPath):
    """An `EPath` that lists its insert calls as `(source, target, rule)`."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def insert(self, s, edge):
        self.calls.append((edge.source, edge.target, edge.rule_name))
        return super().insert(s, edge)


def audit_saturation(seed, rules, **limits):
    """The ways `saturate` departs from `flat_saturate` on `seed`; empty when
    they agree. The insert calls, in order, the variants, the edges and every
    report field but `predicted` must be equal, and every output `saturate`
    did not build is built here: its digest must be the target it was
    inserted under. Returns `(problems, report)`."""
    flat = RecordingEPath(seed)
    expected = flat_saturate(flat, rules, **limits)

    outputs = []

    def recorded(rule):
        def apply(s):
            out = rule.apply(s)
            outputs.extend(out)
            return out

        return RewriteRule(rule.name, apply)

    path = RecordingEPath(seed)
    report = saturate(path, [recorded(rule) for rule in rules], **limits)
    problems = []
    if dataclasses.replace(report, predicted=0) != expected:
        problems.append(f"report {report} != {expected}")
    if path.calls != flat.calls:
        problems.append("insert calls differ")
    if path.digests() != flat.digests() or path.edges != flat.edges:
        problems.append("variants or edges differ")
    for out, (source, target, rule) in zip(outputs, path.calls):
        if out.sequence.digest != target:
            problems.append(f"{rule} output of {source} is {out.sequence.digest}, not {target}")
    # Stopping at `max_sequences` may leave the last output counted but not
    # inserted.
    counted = sum(report.rule_application_counts.values())
    capped = not report.reached_fixed_point and len(path) >= limits.get("max_sequences", math.inf)
    uninserted = counted - len(path.calls)
    if len(path.calls) != report.inserted + report.deduplicated or uninserted not in (0, capped):
        problems.append(f"{counted} outputs, {len(path.calls)} insert calls, {report}")
    return problems, report


def fixpoint_invariance(loop, f):
    """The blocks of `loop` whose instruction LICM may hoist: the least set
    closed under "pure, and every operand is a parameter or result defined
    outside the loop or the result of a block in the set", found by sweeping
    the blocks in id order until a sweep adds nothing."""
    defined_in = {}
    for b in f.blocks:
        for v in b.params:
            defined_in[v] = (b.id, False)
        if instr := b.instruction:
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


def per_block_cost(s, table=None):
    """`cost_of` by the per-block formula: each block's depth counts the
    loops whose body holds it, and its cost lands at that power of N."""
    table = table or default_cost_table()
    loops = analyze(s).loops
    coefficients = {}
    for b in s.blocks:
        depth = sum(1 for loop in loops if b.id in loop.body)
        cost = table.terminator_cost
        if b.instruction:
            cost += table.opcode_cost(b.instruction.opcode)
        coefficients[depth] = coefficients.get(depth, 0) + cost
    return CostPoly(tuple(coefficients.get(k, 0) for k in range(max(coefficients, default=0) + 1)))


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
        for v in defined_by(b):
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
        if instr := b.instruction:
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


def reference_find_violations(f):
    """`ir._find_violations` as it was written before it became one walk: the
    reference its messages, their order and its `idom_positions` must equal.
    It scans the block ids, then counts definitions over `f.blocks`, checks
    the edges of the blocks sorted by id, reads reachability off `f.rpo`,
    and solves once with a bit per value and, above them, a bit per block."""
    violations = []
    by_id = {b.id: b for b in f.blocks}

    ids = [b.id for b in f.blocks]
    twice = {i for i in ids if ids.count(i) > 1} if len(by_id) < len(ids) else ()
    violations += [f"duplicate block id b{bid}" for bid in sorted(twice)]
    if min(ids, default=0) < 0:
        violations.append("negative block id")
    if not violations and f.entry not in by_id:
        violations.append(f"entry b{f.entry} not defined")
    if violations:
        return violations, None

    if f.params != by_id[f.entry].params:
        violations.append("function params differ from entry block params")

    defs = {}
    for b in f.blocks:
        for v in b.params:
            defs[v] = defs.get(v, 0) + 1
        if instr := b.instruction:
            defs[instr.result] = defs.get(instr.result, 0) + 1
    for v in sorted(v for v, n in defs.items() if n > 1):
        violations.append(f"{render_value(v)}: defined more than once")
    if min(defs, default=0) < 0:
        violations.append("negative value id")

    targets_ok = True
    entry_has_preds = False
    blocks = sorted(f.blocks, key=lambda blk: blk.id)
    for b in blocks:
        for target, args in terminator_targets(b.terminator):
            if target not in by_id:
                violations.append(f"b{b.id}: jump to undefined block b{target}")
                targets_ok = False
                continue
            entry_has_preds |= target == f.entry
            if len(args) != len(by_id[target].params):
                violations.append(
                    f"b{b.id}: terminator arity: b{target} expects "
                    f"{len(by_id[target].params)} args, got {len(args)}"
                )
        if edges_conflict(b.terminator):
            violations.append(f"b{b.id}: brif targets equal but args differ")

    if not targets_ok:
        return violations, None

    reachable = set(f.rpo)
    if entry_has_preds:
        violations.append(f"entry block b{f.entry} has predecessors")
    for bid in sorted(set(ids) - reachable):
        violations.append(f"b{bid}: unreachable")

    bit = {v: 1 << i for i, v in enumerate(defs)}
    gen = {}
    for i, bid in enumerate(f.rpo, len(defs)):
        b = by_id[bid]
        mask = 1 << i
        for v in b.params:
            mask |= bit[v]
        if instr := b.instruction:
            mask |= bit[instr.result]
        gen[bid] = mask
    avail_in = must_dataflow(f, gen)

    def use_violation(b, v):
        if v not in bit:
            return f"b{b.id}: use of undefined value {render_value(v)}"
        return f"b{b.id}: use of {render_value(v)} not dominated by its definition"

    for b in blocks:
        if (scope := avail_in.get(b.id)) is None:
            continue
        for v in b.params:
            scope |= bit[v]
        if instr := b.instruction:
            for v in instr.operands:
                if not scope & bit.get(v, 0):
                    violations.append(use_violation(b, v))
            scope |= bit[instr.result]
        for v in terminator_values(b.terminator):
            if not scope & bit.get(v, 0):
                violations.append(use_violation(b, v))

    return violations, tuple([max(avail_in[bid].bit_length() - len(defs) - 1, 0) for bid in f.rpo])


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
        if instr := block.instruction:
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
