"""Benchmark for `epath-opt opt` and `epath-opt check`.

    python3 perfbench/run.py --workload folds|loops|fuzz|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from `src/`
and the `fuzz` workload uses `tests/generators.py`. One process, one thread,
closed loop: each workload function's `opt` (then `check`) runs in process
through `epathopt.cli.main`, one file per function, the next call starting
when the previous one returns. A pass runs `opt` on every function, then
`check` on every function. One untimed warm-up pass comes first; then passes
repeat until `--seconds` have elapsed and timings are medians over passes.

Every output is checked: the exit code, that the extracted text re-parses,
validates and canonicalizes, that it computes what the seed computes under
`interpret` on seeded argument vectors, and that `check` does not report a
mismatch under the sound rules. Running out of fuel on either side is
inconclusive; it is counted and printed, never a failure.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
`opt` passes with traced passes and prints the per-layer metrics; its spans
go to `.perfbench_work/trace-<workload>.jsonl`. Timings are scaled to a
reference host speed (see `HostSpeed`); the unscaled medians are printed too.
`--workload all` runs every workload in a fresh process and prints one row
per workload.

The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

RULES = "licm,constfold"
CHECK_FUEL = 1000
VERIFY_FUEL = 2000
COST_N = 1000
SETUPS_PER_PASS = 3
SETUP_MIN_REPEATS = 9
CALIB_ITERATIONS = 20_000
# Seconds `calibrate()` takes on the reference host; measured on a 2.1 GHz Xeon VM.
CALIB_REF_S = 0.002
PROBE_EVERY_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "opt_s": "s",
    "opt_fn_ms_p50": "ms",
    "opt_fn_ms_p90": "ms",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "extracted_cost_ratio": "ratio",
}

TIMED_LAYERS = (
    "ir.validate",
    "ir.print",
    "ir.parse",
    "ir.interpret",
    "analysis.dominators",
    "esequence.from_function",
    "rewrite.constfold",
    "rewrite.licm",
    "epath.saturate",
    "cost.cost_of",
    "cost.sort",
    "cli",
)
COUNTED = (
    "ir.validate.calls",
    "ir.print.calls",
    "ir.interpret.calls",
    "ir.interpret.fuel_exhausted",
    "analysis.dominators.calls",
    "analysis.compute.calls",
    "esequence.from_function.calls",
    "esequence.analyze.calls",
    "rewrite.constfold.calls",
    "rewrite.constfold.outputs",
    "rewrite.licm.calls",
    "rewrite.licm.outputs",
    "epath.insert.calls",
    "epath.insert.new",
    "epath.insert.dup",
    "epath.variants",
    "epath.capped",
    "cost.cost_of.calls",
)


def use_sources() -> None:
    """Import the program from this checkout and the fuzz generator from its tests."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that never calls the program."""
    start = perf_counter()
    x = 0
    for i in range(CALIB_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - start


class Timing(NamedTuple):
    """One measurement: its seconds without the probes taken during it, and
    the wall-clock interval it spans."""

    seconds: float
    start: float
    end: float


class HostSpeed:
    """Probes host speed while the program runs.

    On a shared host, speed drifts by tens of percent from one second to the
    next, and the program's timings follow it. While a `HostSpeed` is open, a
    SIGALRM timer runs `calibrate()` every PROBE_EVERY_S seconds of wall time,
    in the middle of whatever the program is doing. `timed` leaves the
    probes' own time out of a measurement; `scaled` multiplies its seconds by
    CALIB_REF_S over the mean probe taken during it or within one probe
    interval of it: the time it would take on a host where the loop takes
    CALIB_REF_S. Probes inside the measured interval track speed far better
    than probes between measurements: on `loops`, per-function `opt` times
    correlated 0.94-0.95 with the mean probe inside their interval and
    0.73-0.79 with a probe just before it. The probe is reported as
    `bench.calib_s` and never gated.
    """

    def __enter__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def probe(self, *_signal) -> None:
        self.times.append(perf_counter())
        self.samples.append(calibrate())

    def timed(self, work) -> tuple[object, Timing]:
        """(work's result, its timing). A probe runs whole between two
        bytecodes, so it lies inside [start, end] if it starts there."""
        first = len(self.times)
        start = perf_counter()
        result = work()
        end = perf_counter()
        probed = sum(s for t, s in zip(self.times[first:], self.samples[first:])
                     if start <= t < end)
        return result, Timing(end - start - probed, start, end)

    def scaled(self, timing: Timing) -> float:
        """Call once the last probe of the measurement's window is taken."""
        lo = bisect.bisect_left(self.times, timing.start - PROBE_EVERY_S)
        hi = bisect.bisect_right(self.times, timing.end + PROBE_EVERY_S)
        if lo == hi:  # no probe in the window: the nearest one on either side
            lo, hi = max(lo - 1, 0), hi + 1
        return timing.seconds * CALIB_REF_S / statistics.mean(self.samples[lo:hi])

    def median(self) -> float:
        return statistics.median(self.samples)


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Deadline:
    """Passes run until `seconds` have elapsed. A pass is not started when
    less than half of the previous one's duration remains, so a run lasts
    about `seconds` however long its passes are; there is always one pass."""

    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds
        self.last: float | None = None

    def another_pass(self) -> bool:
        now = perf_counter()
        more = self.last is None or now + (now - self.last) / 2 < self.end
        self.last = now
        return more


def write_inputs(cases, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.name}.ir"
        path.write_text(case.text)
        paths.append(path)
    return paths


def setup_child(workload: str, seed: int, directory: Path) -> None:
    """One set-up, timed in a fresh process: import, then generate and write.
    Prints its seconds and the mean of a probe just before and just after."""
    before = calibrate()
    start = perf_counter()
    import epathopt.cli  # noqa: F401

    write_inputs(workloads.generate(workload, seed), directory)
    seconds = perf_counter() - start
    print(seconds, (before + calibrate()) / 2)


def measure_setup(workload: str, seed: int, directory: Path) -> tuple[float, float]:
    """Seconds of one set-up in a fresh process, unscaled and scaled by the
    child's own probes (it may run on another core than the parent)."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-child", str(directory),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, probe = map(float, out.stdout.split())
    return seconds, seconds * CALIB_REF_S / probe


class Runner:
    """Runs and checks one workload's operations."""

    def __init__(self, cases, paths):
        from epathopt import IrreducibleError, cli, cost, esequence, ir

        self.cli, self.cost, self.esequence, self.ir = cli, cost, esequence, ir
        self.IrreducibleError = IrreducibleError
        self.cases = cases
        self.seeds = [ir.parse_function(c.text) for c in cases]
        self.seed_costs = [self.cost_at_n(esequence.from_function(f)) for f in self.seeds]
        self.opt_argv = [["opt", str(p), "--rules", RULES] for p in paths]
        self.check_argv = [
            ["check", str(p), "--args=" + ",".join(map(str, c.check_args)),
             "--fuel", str(CHECK_FUEL), "--rules", RULES]
            for c, p in zip(cases, paths)
        ]
        self.verdicts: dict[tuple, str] = {}
        self.costs: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.inconclusive = {"opt": set(), "check": set()}
        self.failures: list[str] = []

    def cost_at_n(self, seq) -> int:
        return self.cost.cost_of(seq, self.cost.default_cost_table()).evaluate(COST_N)

    def extracted_cost(self) -> tuple[int, float]:
        """The extracted variants' summed cost, and the mean over functions
        of extracted cost / seed cost (1 for a function that costs nothing)."""
        ratios = [c / self.seed_costs[i] if self.seed_costs[i] else 1.0
                  for i, c in self.costs.items()]
        return sum(self.costs.values()), statistics.mean(ratios) if ratios else 0.0

    def call(self, argv):
        """Exit code, or traceback text, of one CLI call."""
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            return traceback.format_exc()

    def run(self, kind: str, host: HostSpeed, tracer=None) -> list[Timing]:
        """One pass of `kind` over every function; per-function timings."""
        gc.collect()
        argvs = self.opt_argv if kind == "opt" else self.check_argv
        timings = []
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.fn = i
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, timing = host.timed(lambda: self.call(argv))
            timings.append(timing)
            self.record(kind, i, code, out.getvalue(), err.getvalue())
        return timings

    def record(self, kind: str, i: int, code, out: str, err: str) -> None:
        key = (kind, i, code, out, err)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verify = self.verify_opt if kind == "opt" else self.verify_check
            verdict = self.verdicts[key] = verify(i, code, out, err)
        self.attempted += 1
        if verdict == "inconclusive":
            self.inconclusive[kind].add(i)
        elif verdict != "ok":
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{kind} @{self.cases[i].name}: {verdict}")

    def verify_opt(self, i: int, code, out: str, err: str) -> str:
        ir = self.ir
        if code != 0:
            return f"exit {code}: {(out + err).strip()[-400:]}"
        try:
            (extracted,) = ir.parse_file(out)
        except (ir.ParseError, ValueError) as exc:
            return f"output does not re-parse as one function: {exc}"
        violations = ir.validate(extracted)
        if violations:
            return "output invalid: " + "; ".join(violations)
        try:
            seq = self.esequence.from_function(extracted)
        except (ValueError, self.IrreducibleError) as exc:
            return f"output does not canonicalize: {exc}"
        if len(seq.params) != len(self.seeds[i].params):
            return "output signature differs from the seed"
        self.costs[i] = self.cost_at_n(seq)
        inconclusive = False
        for args in self.cases[i].verify_args:
            want = ir.interpret(self.seeds[i], list(args), VERIFY_FUEL)
            if isinstance(want, ir.FuelExhausted):
                inconclusive = True
                continue
            got = ir.interpret(extracted, list(args), VERIFY_FUEL)
            if isinstance(got, ir.FuelExhausted):
                inconclusive = True
            elif want != got:
                return f"extracted computes {got} on {args}, the seed {want}"
        return "inconclusive" if inconclusive else "ok"

    def verify_check(self, i: int, code, out: str, err: str) -> str:
        ir, case = self.ir, self.cases[i]
        if code == 0 and out.startswith(f"@{case.name}: ") and out.rstrip().endswith("agree"):
            seed = ir.interpret(self.seeds[i], list(case.check_args), CHECK_FUEL)
            return "inconclusive" if isinstance(seed, ir.FuelExhausted) else "ok"
        if code == 1 and out.startswith("mismatch") and "FuelExhausted" in out:
            return "inconclusive"
        return f"exit {code}: {(out + err).strip()[-400:]}"


def warm_up(runner: Runner) -> None:
    """One untimed pass of `opt` and `check`. It checks every output once and
    loads what the program imports lazily. What is alive after it is the
    benchmark's own state (inputs, seeds, verdicts); `gc.freeze()` keeps the
    program's garbage collections from scanning it, as they would not in a
    process of its own."""
    with HostSpeed() as host:
        runner.run("opt", host)
        runner.run("check", host)
    gc.collect()
    gc.freeze()


def prepare(workload: str, seed: int, work: Path):
    use_sources()
    cases = workloads.generate(workload, seed)
    paths = write_inputs(cases, work / "inputs")
    digest = hashlib.blake2b("".join(c.text for c in cases).encode(), digest_size=8)
    print(f"workload {workload} seed {seed}: {len(cases)} functions, "
          f"input digest {digest.hexdigest()}")
    return Runner(cases, paths)


def end_to_end(runner: Runner, seconds: float, workload: str, seed: int, work: Path) -> dict:
    setups, opt_passes, check_passes = [], [], []

    # Set-ups between passes spread the set-up samples over the whole run, as
    # the pass timings are. Set-ups rewrite the run's input files in place:
    # creating and deleting thousands of files per run made file creation
    # slower run after run on a disk mounted with `discard`, a cost of the
    # disk, not of the program.
    def setup():
        setups.append(measure_setup(workload, seed, work / "inputs"))

    with HostSpeed() as host:
        clock = Deadline(seconds)
        while clock.another_pass():
            for _ in range(SETUPS_PER_PASS):
                setup()
            opt_passes.append(runner.run("opt", host))
            check_passes.append(runner.run("check", host))
        while len(setups) < SETUP_MIN_REPEATS:
            setup()

    def median_pass(passes, scale=host.scaled):
        return statistics.median(sum(scale(t) for t in p) for p in passes)

    opt_fn = [host.scaled(t) for p in opt_passes for t in p]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "opt_s": median_pass(opt_passes),
        "opt_fn_ms_p50": quantile(opt_fn, 50) * 1000,
        "opt_fn_ms_p90": quantile(opt_fn, 90) * 1000,
        "check_s": median_pass(check_passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extracted_cost_ratio": runner.extracted_cost()[1],
    }

    def unscaled(t):
        return t.seconds

    print(f"{len(opt_passes)} passes, {len(setups)} set-ups; "
          f"opt_fn percentiles over {len(opt_fn)} samples")
    print(f"bench.calib_s = {host.median():.6f} s over {len(host.samples)} probes (not gated); "
          f"timings below are scaled to bench.calib_s = {CALIB_REF_S}")
    print(f"unscaled wall medians: setup_s {statistics.median(s for s, _ in setups):.6g}, "
          f"opt_s {median_pass(opt_passes, unscaled):.6g}, "
          f"check_s {median_pass(check_passes, unscaled):.6g}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(runner: Runner, seconds: float, workload: str) -> tuple[dict, list[str]]:
    from tracer import SPAN_FIELDS, Tracer

    untraced, traced, tracers = [], [], []
    with HostSpeed() as host:
        clock = Deadline(seconds)
        while clock.another_pass():
            untraced.append(runner.run("opt", host))
            tracer = Tracer()
            with tracer.installed():
                traced.append((runner.run("opt", host, tracer),
                               runner.run("check", host, tracer)))
            tracers.append(tracer)

    def total(timings, scale=host.scaled):
        return sum(scale(t) for t in timings)

    # Spans cover the probes that ran inside them, so a traced pass's self
    # times are scaled by its scaled seconds over its wall time, probes included.
    scales = [total(o + c) / total(o + c, lambda t: t.end - t.start) for o, c in traced]

    counts = tracers[0].counts
    if any(t.counts != counts for t in tracers[1:]):
        print("note: counts differ between traced passes; the first pass is reported")
    layer = {name: counts.get(name, 0) for name in COUNTED}
    for name in TIMED_LAYERS:
        self_s = [t.self_ns[name] / 1e9 * scale for t, scale in zip(tracers, scales)]
        layer[f"{name}.self_s"] = statistics.median(self_s)
    inserts = layer["epath.insert.calls"]
    layer["epath.useful_ratio"] = layer["epath.insert.new"] / inserts if inserts else 0.0
    layer["bench.calib_s"] = host.median()
    layer["bench.trace_overhead"] = (statistics.median(total(o) for o, _ in traced)
                                     / statistics.median(total(o) for o in untraced))

    outputs = sum(n for key, n in counts.items()
                  if key.startswith("rewrite.") and key.endswith(".outputs"))
    saturations = counts["epath.saturate.calls"]
    checks = [
        ("epath.insert.new + epath.insert.dup == sum of rewrite.*.outputs",
         layer["epath.insert.new"] + layer["epath.insert.dup"] == outputs),
        (f"epath.variants == saturations ({saturations}) + epath.insert.new",
         layer["epath.variants"] == saturations + layer["epath.insert.new"]),
        ("epath.capped == 0", layer["epath.capped"] == 0),
    ]
    for text, ok in checks:
        print(f"cross-check {'ok  ' if ok else 'FAIL'} {text}")
    problems = [f"cross-check failed: {text}" for text, ok in checks if not ok]
    print(f"{len(tracers)} traced passes; epath.useful_ratio base: "
          f"{layer['epath.insert.new']} new of {inserts} inserts")

    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{workload}.jsonl"
    with trace_path.open("w") as fh:
        fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        for p, tracer in enumerate(tracers):
            tracer.write(fh, p)
    print(f"spans written to {trace_path.relative_to(ROOT)}")

    units = {"self_s": "s", "calib_s": "s", "useful_ratio": "ratio", "trace_overhead": "ratio"}
    metrics = {
        name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "count")}
        for name, value in layer.items()
    }
    return metrics, problems


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        runner = prepare(workload, seed, work)
        warm_up(runner)
        if trace:
            metrics, problems = per_layer(runner, seconds, workload)
        else:
            metrics, problems = end_to_end(runner, seconds, workload, seed, work), []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    share = runner.failed / runner.attempted
    total, ratio = runner.extracted_cost()
    print(f"extracted_cost = {total} (sum at N={COST_N}; varies with the inputs, so not "
          f"gated), extracted_cost_ratio = {ratio}")
    print(f"operations: {runner.attempted} attempted, {runner.failed} failed "
          f"(failed_share = {share}), inconclusive (out of fuel): "
          f"opt {len(runner.inconclusive['opt'])}, check {len(runner.inconclusive['check'])} "
          f"of {len(runner.cases)} functions")
    for line in runner.failures + problems:
        print(f"problem: {line}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table with one row per workload."""
    rows, ok = {}, True
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        rows[workload] = result
    names = list(rows[workloads.WORKLOADS[0]]["metrics"])
    print("\n" + " ".join([f"{'metric':30s}", *(f"{w:>14s}" for w in rows), " unit"]))
    for name in names + ["failed_share"]:
        cells = []
        for result in rows.values():
            value = (result["failed"] / result["attempted"] if name == "failed_share"
                     else result["metrics"][name]["value"])
            cells.append(f"{value:14.6g}")
        unit = "ratio" if name == "failed_share" else rows[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        print(" ".join([f"{name:30s}", *cells, f" {unit}"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    if not (ROOT / "src" / "epathopt" / "cli.py").is_file():
        print(f"perfbench: no epathopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if ns.setup_child is not None:
        use_sources()
        setup_child(ns.workload, ns.seed, ns.setup_child)
        return 0
    if ns.workload == "all":
        return run_all(ns.seed, ns.seconds, bool(ns.trace))
    return run_one(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    sys.exit(main())
