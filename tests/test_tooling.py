"""The benchmark's tracer patches the program's functions by name: these
tests fail when a name it wraps is renamed or an import it relies on is
dropped, before a traced benchmark run crashes on it. One more pins the
benchmark's inputs to the ones its newest record was taken on."""

import ast
import dataclasses
import hashlib
import importlib
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

from epathopt import Block, ESequence, cli, from_function, rewrite, saturate
from epathopt.analysis import Analyses
from epathopt.epath import EPath
from conftest import CORPUS_DIR

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    """Executes the tracer's source without importing it as a package file,
    so nothing is written next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_where_it_is_patched():
    tracer = _load_tracer()
    assert tracer.FUNCTION_WRAPS
    for module_name, attr, _span in tracer.FUNCTION_WRAPS:
        module = importlib.import_module(module_name)
        assert callable(module.__dict__.get(attr)), f"{module_name}.{attr}"
    assert callable(EPath.__dict__["insert"])
    assert isinstance(Analyses.__dict__["compute"], classmethod)
    assert rewrite.RULES and all(
        isinstance(rule, rewrite.RewriteRule) and callable(rule.apply)
        for rule in rewrite.RULES.values()
    )


def test_rules_return_rewrites_and_a_sequence_has_one_form(corpus):
    # The tracer counts each rule's outputs and times `rewrite.from_function`,
    # which a `Rewrite` calls when its `sequence` is first read; an
    # `ESequence` has no attribute that is filled in on first read.
    for name, rule in rewrite.RULES.items():
        outputs = [out for f in corpus.values() for out in rule.apply(from_function(f))]
        assert outputs and all(type(out) is rewrite.Rewrite for out in outputs), name
    assert not hasattr(ESequence, "__getattr__")


def test_tracer_installs_counts_and_restores(capsys):
    tracer = _load_tracer()
    before = {
        (module_name, attr): importlib.import_module(module_name).__dict__[attr]
        for module_name, attr, _span in tracer.FUNCTION_WRAPS
    }
    rules_before = dict(rewrite.RULES)
    insert_before = EPath.__dict__["insert"]

    t = tracer.Tracer()
    with t.installed():
        code = cli.main(["opt", str(CORPUS_DIR / "two_loops.ir")])
    capsys.readouterr()

    assert code == 0
    assert t.counts["cli.calls"] == 1
    assert t.counts["epath.insert.calls"] == (
        t.counts["epath.insert.new"] + t.counts["epath.insert.dup"]
    ) > 0
    # The parsed function and each new output are built and validated once;
    # the one duplicate is predicted by a commuting square and never built.
    assert t.counts["epath.insert.dup"] == 1
    assert t.counts["esequence.from_function.calls"] == t.counts["ir.validate.calls"] == (
        1 + t.counts["epath.insert.new"]
    ) > 1
    assert t.counts["analysis.dominators.calls"] == 0 < t.counts["analysis.compute.calls"]
    for (module_name, attr), original in before.items():
        assert importlib.import_module(module_name).__dict__[attr] is original
    assert rewrite.RULES == rules_before
    assert EPath.__dict__["insert"] is insert_before


TERMINATOR_FIELDS = {"then_target", "else_target", "then_args", "else_args", "cond"}


def test_only_ir_reads_the_terminators_fields():
    # Every other module reads edges through `terminator_targets` and
    # rewrites them through `retarget`, so the terminator's shape is known
    # to `ir` alone.
    package = Path(cli.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "ir.py")
    assert len(modules) >= 7
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in TERMINATOR_FIELDS
        }
        assert not read, f"{path.name} reads {sorted(read)}"


def test_a_block_has_one_instruction_and_no_module_reads_instructions():
    # The ANF restriction is `Block`'s type: one `instruction`, or None. No
    # reader or writer is left of the tuple it replaced.
    fields = [f.name for f in dataclasses.fields(Block)]
    assert fields == ["id", "params", "instruction", "terminator"]
    sources = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) >= 20
    for path in sources:
        uses = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "instructions"
            or isinstance(node, ast.keyword) and node.arg == "instructions"
        ]
        assert not uses, f"{path.relative_to(ROOT)} uses `instructions` on lines {uses}"


def test_validation_has_no_instruction_shape_rule():
    # An `Instruction` is well-formed by its type, so the check behind
    # `validate` reads no opcode, immediate or arity table.
    ir_path = Path(cli.__file__).parent / "ir.py"
    tree = ast.parse(ir_path.read_text(), str(ir_path))
    [check] = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_find_violations"
    ]
    read = sorted(
        {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(check)
            if isinstance(node, ast.Attribute) and node.attr in ("opcode", "imm")
            or isinstance(node, ast.Name) and node.id == "OPCODE_ARITY"
        }
    )
    assert not read, read


def test_rules_read_only_their_sequence_and_from_function_has_one_mode():
    # A rule reads everything through the one sequence it is given, which
    # caches its analyses, and `EPath` is the one place a sequence is checked:
    # only `classify_invariance` still takes analyses (for a caller's own),
    # no call passes `checked=`, and every rule's `apply` takes one argument.
    package = Path(cli.__file__).parent
    sources = sorted(package.glob("*.py"))
    takes_analyses = [
        f"{path.name}: {node.name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name != "classify_invariance"
        and "analyses" in {a.arg for a in (*node.args.args, *node.args.kwonlyargs)}
    ]
    assert not takes_analyses, takes_analyses
    passes_checked = [
        f"{path.name}:{node.lineno}"
        for path in sources + sorted(Path(__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.keyword) and node.arg == "checked"
    ]
    assert not passes_checked, passes_checked
    for name, rule in rewrite.RULES.items():
        assert len(inspect.signature(rule.apply).parameters) == 1, name


def test_every_module_level_private_name_is_read_in_src():
    # A private function, class or constant that no code in the package reads
    # is dead, or kept only for the tests. Loads are counted in the syntax
    # tree, so a name mentioned in a docstring or comment does not count, nor
    # does a recursive call inside its own definition.
    package = Path(cli.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}
    assert len(trees) >= 8
    loads = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and all(key in own for load, key in loads if load == name):
                    unread.append(f"{module}: {name}")
    assert not unread, unread


def test_every_imported_name_is_read_where_it_is_imported():
    # An import that its module never reads is dead, or a re-export kept for
    # other modules; the one exception is a name the tracer wraps there,
    # since wrapping it in that module is what counts its calls.
    wrapped = {(module, attr) for module, attr, _span in _load_tracer().FUNCTION_WRAPS}
    package = Path(cli.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    unread = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (f"epathopt.{path.stem}", name) not in wrapped:
                        unread.append(f"{path.name}: {name}")
    assert not unread, unread


def test_tracer_style_wrapping_keeps_the_squares(monkeypatch, corpus):
    # The tracer wraps each rule as `RewriteRule(name, wrapper)`, and the
    # wrapper returns `rule.apply`'s own list: the outputs' sites and
    # footprints reach `saturate` unchanged, so as many outputs are built.
    built = []
    original = rewrite.from_function

    def counted(f):
        built.append(f)
        return original(f)

    monkeypatch.setattr(rewrite, "from_function", counted)
    plain = rewrite.rules_named(["licm", "constfold"])
    wrapped = [rewrite.RewriteRule(r.name, lambda s, r=r: r.apply(s)) for r in plain]
    predicted = 0
    for name, f in corpus.items():
        runs = []
        for rules in (plain, wrapped):
            built.clear()
            path = EPath(from_function(f))
            report = saturate(path, rules)
            runs.append((path.digests(), path.edges, report, len(built)))
        assert runs[0] == runs[1], name
        outputs = sum(report.rule_application_counts.values())
        assert report.inserted + report.deduplicated == outputs, name
        predicted += report.predicted
    assert predicted > 0


def test_benchmark_inputs_match_the_newest_record(perfbench_workloads):
    # `fuzz` is built from `generators.random_function`: an edit to it changes
    # what the benchmark measures. The digest is the one `perfbench/run.py`
    # prints for a workload's seed.
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    recorded = json.loads(newest.read_text())["workloads"]
    for workload in ("folds", "loops", "fuzz"):
        texts = "".join(case.text for case in perfbench_workloads.generate(workload, 1))
        digest = hashlib.blake2b(texts.encode(), digest_size=8).hexdigest()
        assert digest == recorded[workload]["input_digest"], (newest.name, workload)


def test_cli_matrix_prints_one_stable_line_per_run():
    # `tests/cli_matrix.py` is how two checkouts' CLI behaviour is compared:
    # its lines must not depend on the run.
    files = ["tests/corpus/identity.ir", "tests/corpus/reject/irreducible.ir"]
    command = [sys.executable, str(ROOT / "tests" / "cli_matrix.py"), *files]
    runs = [
        subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout and not runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("tests/corpus/identity.ir opt: exit 0 stdout ")
    assert lines[-1].startswith(
        "tests/corpus/reject/irreducible.ir check --args 3 --fuel 30 --rules "
        "licm,constfold,broken: exit 2 stdout "
    )
