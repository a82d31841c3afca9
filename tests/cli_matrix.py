"""Run the corpus CLI matrix in one process and print one line per run.

    python tests/cli_matrix.py [FILE ...]

Each `.ir` file under `tests/corpus` (or each FILE given, which must lie in
the checkout) is run through `epathopt.cli.main` with every argument list of
`MATRIX`. A line holds the file's path relative to the checkout's root, the
arguments, the exit code and the sha256 of stdout and of stderr. The program
is imported from the checkout's own `src/`, and paths reach the CLI relative
to its root, so two checkouts print the same lines exactly when the CLI
behaves the same: compare them with `diff`. The whole matrix takes about
12 s and 220 MB peak RSS on a shared 2-vCPU host, nearly all of it in the
`broken` check of `diamond_consts.ir`, which stores 89569 variants.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from epathopt import cli  # noqa: E402

MATRIX = (
    ["opt"],
    ["opt", "--dump-variants", "--trace"],
    ["opt", "--emit", "dot"],
    ["opt", "--max-seqs", "1"],
    ["check", "--args", "3", "--fuel", "30"],
    ["check", "--args", "3", "--fuel", "30", "--rules", "licm,constfold,broken"],
)


def _sha256(stream: io.StringIO) -> str:
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


def run(path: str, args: list[str]) -> str:
    """One run's line; `path` is relative to the checkout's root, the
    working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([args[0], path, *args[1:]])
    return f"{path} {' '.join(args)}: exit {code} stdout {_sha256(out)} stderr {_sha256(err)}"


def main(argv: list[str]) -> int:
    paths = [Path(p).resolve() for p in argv] or sorted((ROOT / "tests" / "corpus").rglob("*.ir"))
    os.chdir(ROOT)
    for path in paths:
        relative = path.relative_to(ROOT).as_posix()
        for args in MATRIX:
            print(run(relative, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
