"""Restricted ANF control-flow IR: types, text format, validation, interpreter.

Every basic block holds at most one instruction plus a parameterized
terminator: `Block.instruction` is one `Instruction` or None, and the
grammar below admits no second instruction line. An `Instruction` is
well-formed by its type as well (a known opcode, its operand count, an
in-range immediate on `iconst` alone), so validation checks only the
graph. Values are in SSA form realized with block parameters instead of
phi nodes. The textual grammar:

    file      := func+
    func      := "func" "@" ident "(" valuelist? ")" "{" block+ "}"
    block     := blockref "(" valuelist? ")" ":" instr? term
    instr     := value "=" opcode operandlist
    opcode    := "iconst" int | "iadd" | "isub" | "imul" | "icmp_slt"
               | "sideeffect"
    term      := "jump" blockarg | "brif" value "," blockarg "," blockarg
               | "ret" valuelist?
    blockarg  := blockref "(" valuelist? ")"
    value     := "v" nat        blockref := "b" nat        int := "-"? nat
    valuelist := value ("," value)*                    operandlist := valuelist?
    nat       := ("0" | "1" | ... | "9")+
    ident     := (a character `str.isalnum` accepts | "_")+

An `ident` is what `_LineScanner.word` reads, so Unicode letters and digits
count. The function header (through its "{"), each block label (through its
":"), each instruction, each terminator and the closing "}" take a line of
their own. Lines end at "\\n", "\\r\\n" or "\\r" and nowhere else: a form
feed, vertical tab or Unicode line separator is an ordinary character. A
comment runs from ";" to the end of its line. A line that holds nothing but
whitespace (as `str.strip` counts it) before any comment is blank and
skipped; within a line, tokens are separated by spaces and tabs only, and a
keyword needs one before a following value or block ("jumpb1" reads as one
word). Cost tables are read by the same line rules (`logical_lines`).
Integers are 64-bit two's-complement with wrapping arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

ValueId = int
BlockId = int

OPCODE_ARITY = {
    "iconst": 0,
    "iadd": 2,
    "isub": 2,
    "imul": 2,
    "icmp_slt": 2,
    "sideeffect": 1,
}

# The only impure opcode; everything else may be re-executed or duplicated
# freely.
IMPURE_OPCODES = frozenset({"sideeffect"})

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
# The most digits, past leading zeros, an integer in a text input may have:
# `int()` converts this many under any setting of Python's digit limit.
_MAX_DIGITS = 640


def wrap64(x: int) -> int:
    """Reduce x into signed 64-bit two's-complement range."""
    return ((x - I64_MIN) & ((1 << 64) - 1)) + I64_MIN


@dataclass(frozen=True)
class Instruction:
    """A single operation, well-formed by construction: a known opcode with
    as many operands as `OPCODE_ARITY` gives it, and `imm`, a 64-bit
    integer, set exactly for `iconst`. Any other shape raises ValueError
    when built, so no reader of an instruction checks its shape."""

    opcode: str
    result: ValueId
    operands: tuple[ValueId, ...] = ()
    imm: int | None = None

    def __post_init__(self):
        arity = OPCODE_ARITY.get(self.opcode)
        if arity is None:
            raise ValueError(f"unknown opcode {self.opcode!r}")
        if len(self.operands) != arity:
            raise ValueError(f"{self.opcode} expects {arity} operands, got {len(self.operands)}")
        if self.opcode != "iconst":
            if self.imm is not None:
                raise ValueError(f"{self.opcode} carries an immediate")
        elif self.imm is None:
            raise ValueError("iconst without immediate")
        elif not I64_MIN <= self.imm <= I64_MAX:
            raise ValueError("iconst immediate out of 64-bit range")


@dataclass(frozen=True)
class Jump:
    target: BlockId
    args: tuple[ValueId, ...] = ()


@dataclass(frozen=True)
class BrIf:
    cond: ValueId
    then_target: BlockId
    then_args: tuple[ValueId, ...]
    else_target: BlockId
    else_args: tuple[ValueId, ...]


@dataclass(frozen=True)
class Ret:
    args: tuple[ValueId, ...] = ()


Terminator = Jump | BrIf | Ret


@dataclass(frozen=True)
class Block:
    """A basic block: its params, at most one `instruction` (None if it has
    none) and its terminator. The ANF restriction is this type: no block can
    hold a second instruction.

    A block is immutable, so it may keep what is derived from it: its text,
    once `render_function` has printed it, and, if `remap_block` built it,
    the blocks its renamings built. Neither is a field, so equality,
    hashing, repr and `dataclasses.replace` ignore them.
    """

    id: BlockId
    params: tuple[ValueId, ...]
    instruction: Instruction | None
    terminator: Terminator

    _text = None  # "\n".join(render_block(self)), set on first print
    _renamings = None  # on blocks `remap_block` built: () until it keeps a renaming


@dataclass(frozen=True)
class Function:
    """A control-flow graph; `params` mirrors the entry block's params. It
    keeps, each built on first read, the facts every layer shares: its
    validation verdict, its reverse postorder, its predecessor lists and
    its definition map."""

    name: str
    params: tuple[ValueId, ...]
    entry: BlockId
    blocks: tuple[Block, ...]
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {b.id: b for b in self.blocks})

    def block(self, bid: BlockId) -> Block:
        return self._by_id[bid]

    def has_block(self, bid: BlockId) -> bool:
        return bid in self._by_id

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """What `validate` reports, checked on first use and kept with the
        `idom_positions` its solve yields. The blocks must not change
        afterwards."""
        found, self.__dict__["idom_positions"] = _find_violations(self)
        return tuple(found)

    @cached_property
    def idom_positions(self) -> tuple[int, ...] | None:
        """Each reached block's immediate dominator as a position in `rpo`,
        indexed by the block's own position; the entry, at position 0, is
        given itself. Validation's one solve yields each block's strict
        dominators as a mask with bit i for `rpo[i]`, a chain whose highest
        bit is the immediate dominator; only that bit is kept, so a stored
        function holds n small ints rather than n masks of up to n bits.
        None when validation stops before its solve. Read-only."""
        self.violations  # the first check keeps them
        return self.__dict__["idom_positions"]

    @cached_property
    def rpo(self) -> list[BlockId]:
        """`reverse_postorder`, walked on first use and kept; read-only: the
        one DFS that validation, canonicalization and analysis share. A
        canonical function is handed `0..n-1` by `ESequence.function`."""
        return reverse_postorder(self)

    @cached_property
    def preds(self) -> dict[BlockId, list[BlockId]]:
        """`predecessors`, walked on first use and kept; read-only."""
        return predecessors(self)

    @cached_property
    def defs(self) -> dict[ValueId, BlockId]:
        """The block that defines each value, by a block parameter or an
        instruction result: one scan of the blocks on first use, kept and
        read-only. In SSA each value has one definition, so this is the one
        value-to-definition map the rules read."""
        defs = {v: b.id for b in self.blocks for v in b.params}
        defs.update({b.instruction.result: b.id for b in self.blocks if b.instruction})
        return defs


@dataclass(frozen=True)
class Returned:
    values: tuple[int, ...]
    effects: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FuelExhausted:
    pass


InterpResult = Returned | FuelExhausted


def terminator_targets(term: Terminator) -> list[tuple[BlockId, tuple[ValueId, ...]]]:
    """Successor edges in canonical order (brif: then before else)."""
    if isinstance(term, Jump):
        return [(term.target, term.args)]
    if isinstance(term, BrIf):
        return [(term.then_target, term.then_args), (term.else_target, term.else_args)]
    return []


def terminator_values(term: Terminator) -> list[ValueId]:
    """Every value the terminator reads, in a fixed order."""
    if isinstance(term, Jump):
        return list(term.args)
    if isinstance(term, BrIf):
        return [term.cond, *term.then_args, *term.else_args]
    return list(term.args)


def retarget(term: Terminator, edge, value=None) -> Terminator:
    """`term` with each edge `(target, args)` replaced by `edge(target, args)`
    and, given `value`, its brif condition and `ret` values renamed by it: the
    one edge rewriter, which renaming and the rules' edits share."""
    kind = type(term)
    if kind is Jump:
        return Jump(*edge(term.target, term.args))
    if kind is BrIf:
        cond = term.cond if value is None else value(term.cond)
        then_edge = edge(term.then_target, term.then_args)
        return BrIf(cond, *then_edge, *edge(term.else_target, term.else_args))
    return term if value is None else Ret(tuple(map(value, term.args)))


def edges_conflict(term: Terminator) -> bool:
    """Whether `term` breaks the brif-collapse rule: a brif may not reach one
    block with two different argument lists."""
    if type(term) is not BrIf:
        return False
    return term.then_target == term.else_target and term.then_args != term.else_args


def successors(f: Function, bid: BlockId) -> list[BlockId]:
    """The targets of `terminator_targets`, without their arguments."""
    term = f._by_id[bid].terminator
    if type(term) is Jump:
        return [term.target]
    if type(term) is BrIf:
        return [term.then_target, term.else_target]
    return []


def predecessors(f: Function) -> dict[BlockId, list[BlockId]]:
    """Predecessor lists in deterministic (block, edge) order."""
    preds: dict[BlockId, list[BlockId]] = {b.id: [] for b in f.blocks}
    for b in sorted(f.blocks, key=lambda blk: blk.id):
        for target, _ in terminator_targets(b.terminator):
            if b.id not in preds[target]:
                preds[target].append(b.id)
    return preds


def must_dataflow(f: Function, gen: dict[BlockId, int]) -> dict[BlockId, int]:
    """Kildall's all-paths dataflow over int bitmasks: for each reachable
    block, the greatest fixpoint of `in(entry) = 0`, `in(b)` = AND of
    `in(p) | gen[p]` over b's reachable predecessors p. Each round walks
    `f.rpo`, each block pushing to its successors (no predecessor map); a
    block not pushed to yet stands for the full set, and every block but the
    entry is pushed to by an earlier one before it is read. Another round
    runs only when a block already read in this one gets a new input, which
    only a retreating edge can give: an acyclic graph is solved in one round.
    Validation runs it once per function, for its value bits and block bits
    together."""
    into = {f.entry: 0}
    position = {bid: i for i, bid in enumerate(f.rpo)}
    changed = True
    while changed:
        changed = False
        for i, bid in enumerate(f.rpo):
            out = into[bid] | gen[bid]
            for succ in successors(f, bid):
                old = into.get(succ)
                new = out if old is None else old & out
                if new != old:
                    into[succ] = new
                    changed |= position[succ] <= i
    return into


def reverse_postorder(f: Function) -> list[BlockId]:
    """Entry-first order of the blocks reachable from the entry; successor
    ties follow terminator order (jump target; brif then-target before
    else-target)."""
    order: list[BlockId] = []
    visited = {f.entry}
    # DFS explores successors in reverse (pop from the end) so the final
    # reversed postorder lists them in terminator order.
    stack: list[tuple[BlockId, list[BlockId]]] = [(f.entry, successors(f, f.entry))]
    while stack:
        bid, pending = stack[-1]
        while pending:
            nxt = pending.pop()
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, successors(f, nxt)))
                break
        else:
            order.append(bid)
            stack.pop()
    order.reverse()
    return order


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Parsing


def logical_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line that is not blank before any ";", as (its number, its text
    before the ";"). Lines end only at "\\n", "\\r\\n" and "\\r"."""
    physical = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, raw in enumerate(physical, start=1):
        line = raw.partition(";")[0]
        if line.strip():
            yield number, line


def parse_integer(text: str) -> int:
    """`text` as the grammar's `int`, the integer syntax of every text input, of
    at most `_MAX_DIGITS` digits past its leading zeros; else ValueError."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"bad integer {text!r}")
    if len(digits := digits.lstrip("0")) > _MAX_DIGITS:
        raise ValueError(f"integer has {len(digits)} digits, more than {_MAX_DIGITS}")
    return int(digits or "0") * (-1 if text[0] == "-" else 1)


class _LineScanner:
    """Cursor over one logical line, tracking columns for diagnostics."""

    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        self.text = text
        self.pos = 0
        self.end = len(text)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line_no, self.pos + 1)

    def skip_ws(self):
        while self.pos < self.end and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        """The next non-blank character, or "" at the end of the line."""
        self.skip_ws()
        return self.text[self.pos : self.pos + 1]

    def expect_end(self):
        if self.peek():
            raise self.error(f"trailing input: {self.text[self.pos:]!r}")

    def take(self, literal: str):
        if not self.try_take(literal):
            raise self.error(f"expected {literal!r}")

    def try_take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < self.end and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected identifier")
        return self.text[start : self.pos]

    def digits(self) -> str:
        start = self.pos
        while self.pos < self.end and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        return self.text[start : self.pos]

    def immediate(self) -> int:
        sign = "-" if self.try_take("-") else ""
        if not (digits := self.digits()):
            raise self.error("expected integer")
        try:
            if I64_MIN <= (imm := parse_integer(sign + digits)) <= I64_MAX:
                return imm
        except ValueError:  # more digits than `parse_integer` takes
            pass
        raise self.error("iconst immediate out of 64-bit range")

    def indexed(self, prefix: str, what: str) -> int:
        self.skip_ws()
        start = self.pos
        if self.text.startswith(prefix, start):
            self.pos += len(prefix)
            if digits := self.digits():
                try:
                    return parse_integer(digits)
                except ValueError as exc:
                    raise ParseError(f"{what} too long: {exc}", self.line_no, start + 1) from None
        self.pos = start
        raise self.error(f"expected {what}")

    def value(self) -> ValueId:
        return self.indexed("v", "value (vN)")

    def valuelist(self) -> tuple[ValueId, ...]:
        if self.peek() in "),":  # "" at the end of the line is in every string
            return ()
        vals = [self.value()]
        while self.try_take(","):
            vals.append(self.value())
        return tuple(vals)

    def paren_valuelist(self) -> tuple[ValueId, ...]:
        self.take("(")
        vals = self.valuelist()
        self.take(")")
        return vals

    def blockarg(self) -> tuple[BlockId, tuple[ValueId, ...]]:
        return self.indexed("b", "block (bN)"), self.paren_valuelist()


def _parse_instruction(line: _LineScanner) -> Instruction:
    result = line.value()
    line.take("=")
    opcode = line.word()
    arity = OPCODE_ARITY.get(opcode)
    if arity is None:
        raise line.error(f"unknown opcode {opcode!r}")
    imm, operands = None, ()
    if opcode == "iconst":
        imm = line.immediate()
    else:
        operands = line.valuelist()
    line.expect_end()
    if len(operands) != arity:
        raise line.error(f"{opcode} expects {arity} operands, got {len(operands)}")
    return Instruction(opcode, result, operands, imm)


def _parse_terminator(line: _LineScanner) -> Terminator:
    kind = line.word()
    if kind == "jump":
        term = Jump(*line.blockarg())
    elif kind == "brif":
        cond = line.value()
        line.take(",")
        then_target, then_args = line.blockarg()
        line.take(",")
        term = BrIf(cond, then_target, then_args, *line.blockarg())
    elif kind == "ret":
        term = Ret(line.valuelist())
    else:
        raise line.error(f"expected terminator, got {kind!r}")
    line.expect_end()
    return term


# One pattern per line shape, matched against a whole logical line. Each
# accepts only spellings `_LineScanner` reads the same way: ASCII digits (at
# most `_MAX_DIGITS`), spaces and tabs between tokens, a space or tab after
# each keyword (the scanner reads "jumpb1" as one word) and ASCII function
# names. Any other line, such as "v0 = iconst-5", goes to the scanner.
_NUM = rf"[0-9]{{1,{_MAX_DIGITS}}}"
_VALUES = rf"((?:[ \t]*v{_NUM}(?:[ \t]*,[ \t]*v{_NUM})*)?)"
_BLOCKARG = rf"b({_NUM})[ \t]*\({_VALUES}[ \t]*\)"
_HEADER = re.compile(
    rf"[ \t]*func[ \t]*@[ \t]*([A-Za-z0-9_]+)[ \t]*\({_VALUES}[ \t]*\)[ \t]*\{{[ \t]*"
)
_LABEL = re.compile(rf"[ \t]*{_BLOCKARG}[ \t]*:[ \t]*")
_CLOSE = re.compile(r"[ \t]*\}[ \t]*")
_ICONST = re.compile(rf"[ \t]*v({_NUM})[ \t]*=[ \t]*iconst[ \t]+(-?{_NUM})[ \t]*")
_BINARY = re.compile(
    rf"[ \t]*v({_NUM})[ \t]*=[ \t]*(iadd|isub|imul|icmp_slt)"
    rf"[ \t]+v({_NUM})[ \t]*,[ \t]*v({_NUM})[ \t]*"
)
_SIDEEFFECT = re.compile(rf"[ \t]*v({_NUM})[ \t]*=[ \t]*sideeffect[ \t]+v({_NUM})[ \t]*")
_JUMP = re.compile(rf"[ \t]*jump[ \t]+{_BLOCKARG}[ \t]*")
_BRIF = re.compile(
    rf"[ \t]*brif[ \t]+v({_NUM})[ \t]*,[ \t]*{_BLOCKARG}[ \t]*,[ \t]*{_BLOCKARG}[ \t]*"
)
_RET = re.compile(rf"[ \t]*ret((?:[ \t]+v{_NUM}(?:[ \t]*,[ \t]*v{_NUM})*)?)[ \t]*")


def _ids(values: str) -> tuple[ValueId, ...]:
    """The value ids in a list that `_VALUES` or `_RET` matched."""
    return tuple(map(int, values.replace("v", "").split(","))) if values else ()


def _parse_header(line_no: int, line: str) -> tuple[str, tuple[ValueId, ...]]:
    """A function's name and params."""
    if m := _HEADER.fullmatch(line):
        return m[1], _ids(m[2])
    header = _LineScanner(line_no, line)
    header.take("func")
    header.take("@")
    name = header.word()
    params = header.paren_valuelist()
    header.take("{")
    header.expect_end()
    return name, params


def _parse_label(line_no: int, line: str) -> tuple[BlockId, tuple[ValueId, ...]] | None:
    """A block's id and params, or None for the "}" that closes the function."""
    if m := _LABEL.fullmatch(line):
        return int(m[1]), _ids(m[2])
    if _CLOSE.fullmatch(line):
        return None
    label = _LineScanner(line_no, line)
    if label.try_take("}"):
        label.expect_end()
        return None
    blockarg = label.blockarg()
    label.take(":")
    label.expect_end()
    return blockarg


def _parse_statement(line_no: int, line: str, first: bool) -> Instruction | Terminator:
    """The terminator on a block's line or, on its `first` line only, an
    instruction; the shapes are tried most common first."""
    if m := _JUMP.fullmatch(line):
        return Jump(int(m[1]), _ids(m[2]))
    if first:
        if m := _BINARY.fullmatch(line):
            return Instruction(m[2], int(m[1]), (int(m[3]), int(m[4])))
        if (m := _ICONST.fullmatch(line)) and I64_MIN <= (imm := int(m[2])) <= I64_MAX:
            return Instruction("iconst", int(m[1]), (), imm)
        if m := _SIDEEFFECT.fullmatch(line):
            return Instruction("sideeffect", int(m[1]), (int(m[2]),))
    if m := _RET.fullmatch(line):
        return Ret(_ids(m[1]))
    if m := _BRIF.fullmatch(line):
        return BrIf(int(m[1]), int(m[2]), _ids(m[3]), int(m[4]), _ids(m[5]))
    scanner = _LineScanner(line_no, line)
    if first and scanner.peek() == "v":
        return _parse_instruction(scanner)
    return _parse_terminator(scanner)


def parse_file(text: str) -> list[Function]:
    """Parse every function in the text, in order. Each line is matched whole
    against the patterns of the shapes that may stand there; a line that none
    accepts is read by `_LineScanner`, which parses the spellings the
    patterns leave out and raises every `ParseError` but those on whole
    functions."""
    lines = logical_lines(text)
    line_no = 0

    def next_line(expectation: str) -> tuple[int, str]:
        # `line_no` is the number of the line taken last, here or by the
        # loop over headers.
        nonlocal line_no
        for line_no, line in lines:
            return line_no, line
        raise ParseError(f"unexpected end of input, expected {expectation}", line_no)

    functions: dict[str, Function] = {}
    for line_no, line in lines:
        header_no = line_no
        name, params = _parse_header(line_no, line)

        blocks: list[Block] = []
        label_lines: list[int] = []
        while label := _parse_label(*next_line("block or '}'")):
            label_lines.append(line_no)
            instr, statement = None, _parse_statement(*next_line("instruction or terminator"), True)
            if type(statement) is Instruction:
                instr, statement = statement, _parse_statement(*next_line("terminator"), False)
            blocks.append(Block(*label, instr, statement))
        if not blocks:
            raise ParseError("function has no blocks", header_no)

        f = Function(name, params, blocks[0].id, tuple(blocks))
        if violations := validate(f):
            # Located at the header of the block the first violation names.
            block_lines = {render_blockref(b.id): n for b, n in zip(blocks, label_lines)}
            at = block_lines.get(violations[0].partition(":")[0], header_no)
            raise ParseError(f"invalid function @{name}: " + "; ".join(violations), at)
        if name in functions:
            raise ParseError(f"duplicate function name @{name}", header_no)
        functions[name] = f
    if not functions:
        raise ParseError("no functions found", 1)
    return list(functions.values())


def parse_function(text: str) -> Function:
    """Parse text containing exactly one function."""
    functions = parse_file(text)
    if len(functions) != 1:
        raise ParseError(f"expected exactly one function, found {len(functions)}", 1)
    return functions[0]


# ---------------------------------------------------------------------------
# Printing


def render_value(v: ValueId) -> str:
    return f"v{v}"


def render_blockref(bid: BlockId) -> str:
    return f"b{bid}"


def render_block(block: Block) -> list[str]:
    """The lines of `block` in the text format: its header, then its
    statements indented by two spaces."""
    value_name, block_name = render_value, render_blockref
    lines = [f"{block_name(block.id)}({', '.join(map(value_name, block.params))}):"]
    if instr := block.instruction:
        if instr.opcode == "iconst":
            lines.append(f"  {value_name(instr.result)} = iconst {instr.imm}")
        else:
            operands = ", ".join(map(value_name, instr.operands))
            lines.append(f"  {value_name(instr.result)} = {instr.opcode} {operands}")
    term = block.terminator
    if isinstance(term, Jump):
        lines.append(f"  jump {block_name(term.target)}({', '.join(map(value_name, term.args))})")
    elif isinstance(term, BrIf):
        lines.append(
            f"  brif {value_name(term.cond)}, "
            f"{block_name(term.then_target)}({', '.join(map(value_name, term.then_args))}), "
            f"{block_name(term.else_target)}({', '.join(map(value_name, term.else_args))})"
        )
    elif term.args:
        lines.append(f"  ret {', '.join(map(value_name, term.args))}")
    else:
        lines.append("  ret")
    return lines


def render_function(name: str, params, blocks) -> str:
    """The text format of one function: `blocks` holds its `Block`s in the
    order they are written. The text is `render_parts` joined by newlines."""
    return "\n".join(render_parts(name, params, blocks))


def render_parts(name: str, params, blocks) -> list[str]:
    """The parts of `render_function`'s text: the header line, each block's
    text and the closing "}". A block's lines come from `render_block` on
    its first print and are kept on the block as one text, so a block that
    many functions share is rendered once.

    Compared as lists, the parts of two functions order exactly as their
    joined texts do, so they sort functions by text without joining it: a
    block text ends with its terminator line, so it is never a prefix of
    another followed by a newline, and "}" sorts after the "b" that begins
    every block text."""
    parts = [f"func @{name}({', '.join(map(render_value, params))}) {{"]
    for block in blocks:
        text = block._text
        if text is None:
            text = "\n".join(render_block(block))
            object.__setattr__(block, "_text", text)
        parts.append(text)
    parts.append("}")
    return parts


def print_function(f: Function) -> str:
    """Canonical text: blocks in ascending id, two-space indented statements."""
    return render_function(f.name, f.params, sorted(f.blocks, key=lambda b: b.id))


# ---------------------------------------------------------------------------
# Validation


def validate(f: Function) -> list[str]:
    """Return every violated IR invariant, one found inside a block prefixed
    with its name ("bN: "); an empty list means valid. The invariants are
    the graph's: block and value ids, the entry's params, single
    definitions, edges and their argument counts, reachability and
    dominance of every use. No shape rule is among them: `Block` holds one
    instruction or none, and `Instruction` refuses a malformed shape when
    built, both by their types. A function is checked once: later calls
    return a copy of its kept verdict, `f.violations`."""
    return list(f.violations)


def _find_violations(f: Function) -> tuple[list[str], tuple[int, ...] | None]:
    """The check behind `validate`, and the dominators it finds on the way
    (`Function.idom_positions`): reachability from `f.rpo`, then one
    `must_dataflow` solve whose gen masks hold a bit per value and, above
    them, a bit per block, so it yields available values and dominators
    together. A reached block's input then holds its strict dominators in
    its block bits; the entry's is among them for every block but the entry,
    so the input's highest bit is the immediate dominator's. It builds no
    predecessor map (edges into the entry are noted in its scan of the
    terminators), so a function that is validated but never analyzed keeps
    only its reverse postorder and the dominator positions. A duplicate or
    negative block id, an undefined entry or a jump to an undefined block
    stops the check before the walk, and no positions are returned."""
    violations: list[str] = []
    by_id = f._by_id

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

    # Definition sites: block params and instruction results.
    defs: dict[ValueId, int] = {}
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

    # Reachability and predecessor structure.
    reachable = set(f.rpo)
    if entry_has_preds:
        violations.append(f"entry block b{f.entry} has predecessors")
    for bid in sorted(set(ids) - reachable):
        violations.append(f"b{bid}: unreachable")

    # One solve: a use is legal iff its value is defined on every path from
    # entry (equivalent to dominance under single definitions). Bit j stands
    # for the j-th value of `defs`, bit len(defs) + i for the block f.rpo[i].
    bit = {v: 1 << i for i, v in enumerate(defs)}
    gen: dict[BlockId, int] = {}
    for i, bid in enumerate(f.rpo, len(defs)):
        b = by_id[bid]
        mask = 1 << i
        for v in b.params:
            mask |= bit[v]
        if instr := b.instruction:
            mask |= bit[instr.result]
        gen[bid] = mask
    avail_in = must_dataflow(f, gen)

    for b in blocks:
        if (scope := avail_in.get(b.id)) is None:
            continue  # unreachable
        for v in b.params:
            scope |= bit[v]
        if instr := b.instruction:
            for v in instr.operands:
                if not scope & bit.get(v, 0):
                    violations.append(_use_violation(b, v, bit))
            scope |= bit[instr.result]
        for v in terminator_values(b.terminator):
            if not scope & bit.get(v, 0):
                violations.append(_use_violation(b, v, bit))

    return violations, tuple([max(avail_in[bid].bit_length() - len(defs) - 1, 0) for bid in f.rpo])


def _use_violation(b: Block, v: ValueId, bit: dict[ValueId, int]) -> str:
    if v not in bit:
        return f"b{b.id}: use of undefined value {render_value(v)}"
    return f"b{b.id}: use of {render_value(v)} not dominated by its definition"


# ---------------------------------------------------------------------------
# Interpretation


def interpret(f: Function, args: list[int], fuel: int) -> InterpResult:
    """Small-step execution; each entered block consumes one unit of fuel.
    Every instruction is well-formed by its type, so an `iconst` yields its
    immediate as is.

    A run that enters a block in a state it was in before (same block, same
    incoming arguments, same values) stops at once with `FuelExhausted`: the
    interpreter is deterministic and that state fixes everything it does
    next, so the run would repeat that stretch forever without returning.
    The repeat is found by Brent's cycle detection, comparing each state with
    one saved state that is re-saved at steps 1, 2, 4, 8, ..."""
    if len(args) != len(f.params):
        raise ValueError(
            f"@{f.name} takes {len(f.params)} arguments, got {len(args)}"
        )
    if fuel <= 0:
        raise ValueError("fuel must be positive")

    blocks = f._by_id
    env: dict[ValueId, int] = {}
    effects: list[tuple[str, int]] = []
    current = f.entry
    incoming = tuple([wrap64(a) for a in args])
    saved_block, saved_incoming, saved_env = None, None, None
    step, next_save = 0, 1

    while True:
        if current == saved_block and incoming == saved_incoming and env == saved_env:
            return FuelExhausted()
        step += 1
        if step == next_save:
            saved_block, saved_incoming, saved_env = current, incoming, env.copy()
            next_save <<= 1
        if fuel == 0:
            return FuelExhausted()
        fuel -= 1

        block = blocks[current]
        if incoming:
            env.update(zip(block.params, incoming))
        if instr := block.instruction:
            env[instr.result] = _step(instr, env, effects)

        term = block.terminator
        kind = type(term)
        if kind is Jump:
            current, arg_ids = term.target, term.args
        elif kind is BrIf:
            if env[term.cond]:
                current, arg_ids = term.then_target, term.then_args
            else:
                current, arg_ids = term.else_target, term.else_args
        else:
            return Returned(tuple([env[v] for v in term.args]), tuple(effects))
        incoming = tuple([env[v] for v in arg_ids]) if arg_ids else ()


def _step(instr: Instruction, env: dict, effects: list) -> int:
    op = instr.opcode
    if op == "iconst":
        return instr.imm
    if op == "sideeffect":
        value = env[instr.operands[0]]
        effects.append(("eff", value))
        return value
    x, y = instr.operands
    return fold_constants(op, env[x], env[y])


def fold_constants(opcode: str, a: int, b: int) -> int:
    """Wrapping two's-complement fold; icmp_slt yields 1/0. The interpreter
    and the constfold rule both compute binary opcodes through this."""
    if opcode == "iadd":
        return wrap64(a + b)
    if opcode == "isub":
        return wrap64(a - b)
    if opcode == "imul":
        return wrap64(a * b)
    if opcode == "icmp_slt":
        return 1 if a < b else 0
    raise ValueError(f"not foldable: {opcode!r}")


# ---------------------------------------------------------------------------
# Structural renaming (used by canonicalization and by tests)


def remap_block(
    block: Block, value_map: dict[ValueId, ValueId], block_map: dict[BlockId, BlockId]
) -> Block:
    """`block` with every value and block id, its own included, renamed
    through the given maps; its terminator is renamed by one `retarget`.

    A block built here keeps its renamings, keyed by the images of every id
    it names (its own, its targets and its values), so a block that many
    variants share is renamed once per distinct key: a renaming that maps
    each of them to itself returns the block, and a repeated key the block
    built first. A memo holds only blocks built from its own, so it forms
    no reference cycle. A parsed or written block is renamed once and keeps
    nothing. A missing id raises KeyError."""
    memo = block._renamings
    if memo is None:
        return _renamed(block, value_map, block_map)
    term = block.terminator
    blocks = (block.id, *(target for target, _ in terminator_targets(term)))
    values = [*block.params]
    if i := block.instruction:
        values += (i.result, *i.operands)
    values += terminator_values(term)
    key = (*map(block_map.__getitem__, blocks), *map(value_map.__getitem__, values))
    if key == (*blocks, *values):
        return block
    if key not in memo:
        if not memo:  # the first renaming it keeps
            object.__setattr__(block, "_renamings", memo := {})
        memo[key] = _renamed(block, value_map, block_map)
    return memo[key]


def _renamed(block: Block, value_map, block_map) -> Block:
    value = value_map.__getitem__

    def values(vals) -> tuple[ValueId, ...]:
        return tuple(map(value, vals))

    term = retarget(block.terminator, lambda t, args: (block_map[t], values(args)), value)
    if instr := block.instruction:
        instr = Instruction(instr.opcode, value(instr.result), values(instr.operands), instr.imm)
    renamed = Block(block_map[block.id], values(block.params), instr, term)
    object.__setattr__(renamed, "_renamings", ())
    return renamed


def remap(
    f: Function,
    value_map: dict[ValueId, ValueId],
    block_map: dict[BlockId, BlockId],
    name: str | None = None,
) -> Function:
    """Rewrite every value/block id through the given total maps."""
    return Function(
        name if name is not None else f.name,
        tuple(value_map[v] for v in f.params),
        block_map[f.entry],
        tuple(remap_block(b, value_map, block_map) for b in f.blocks),
    )
