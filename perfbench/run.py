"""End-to-end benchmark of the gelfand CLI.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Every invocation runs the real CLI in a fresh child process, one child at
a time, and its exit code and stdout sha256 are checked against goldens
recorded at the seed commit (goldens.json).  The seed only permutes the
order of the invocations within a rep.

--trace 0 repeats the workload's panel for about --seconds seconds (at
least once) and reports the end-to-end metrics.  --trace 1 runs the panel
once with layer spans (tracer.py), once untraced for the tracing overhead
and twice in counting mode, and reports the per-layer metrics.  --smoke
runs tiny panels through both modes and checks the metric names, the
units and that a wrong golden digest is reported as a failure.

The last line of stdout is the result object; the line before it records
how the run was made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0
SETUP_SAMPLES_PER_GAP = 5


def _group(*cmd_and_group):
    *cmd, r, p, q, n = cmd_and_group
    return tuple(cmd) + ("--r", str(r), "--p", str(p), "--q", str(q), "--n", str(n))


# Why each workload exists is in README.md beside this file.
PANELS = {
    "decompose": (
        _group("model", "decompose", 2, 1, 2, 6),
        _group("model", "decompose", 4, 1, 2, 4),
        _group("model", "decompose", 6, 1, 2, 3),
    ),
    "gelfand-check": (
        _group("model", "gelfand-check", 2, 1, 1, 7),
        _group("model", "gelfand-check", 3, 1, 1, 5),
    ),
    "chartable": (
        _group("chartable", "--json", 4, 1, 1, 5),
        _group("chartable", "--json", 6, 2, 1, 4),
    ),
}
SMOKE_PANELS = {
    "decompose": (_group("model", "decompose", 2, 1, 2, 4),),
    "gelfand-check": (_group("model", "gelfand-check", 2, 2, 1, 4),),
    "chartable": (_group("chartable", "--json", 3, 1, 1, 3),),
}
SPAN_NAMES = (
    "characters.decompose",
    "characters.inner_product",
    "model.model_character",
    "characters.character_table",
    "characters.wreath_character",
    "characters.delta1",
    "model.ModelBasis",
    "classes.enumerate_involution_classes",
    "classes.enumerate_classes",
    "classes.normal_element",
    "model.predicted_labels",
    "cli.main",
)
SIZE_NAMES = (
    "model.dimension",
    "model.blocks",
    "classes.count",
    "characters.rows",
    "characters.cells",
)
COUNT_NAMES = ("cyclotomic.arith.calls", "colored.ColoredPermutation.constructed")


def key_of(argv) -> str:
    return " ".join(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MODEL_MAX_ORDER", None)
    return env


def spawn(argv) -> subprocess.Popen:
    return subprocess.Popen(
        list(argv),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        env=child_env(),
        cwd=ROOT,
    )


def collect(proc: subprocess.Popen, timeout: float) -> dict:
    """Wait for a child and its output; kill it at its deadline."""
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    return {"exit": proc.returncode, "stdout": out, "stderr": err, "timed_out": timed_out}


def run_child(argv, timeout: float) -> dict:
    """Run one child to its end, timed from spawn to exit.  Its cpu time is
    the change in RUSAGE_CHILDREN, so timed children run one at a time; the
    rss is the largest of all children reaped so far."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    outcome = collect(spawn(argv), timeout)
    outcome["wall_s"] = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    outcome["cpu_s"] = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    outcome["rss_mb"] = after.ru_maxrss / 1024.0
    return outcome


def cli_argv(argv) -> list:
    return [sys.executable, "-m", "gelfand.cli", *argv]


def tracer_argv(mode: str, outfile: Path, argv) -> list:
    return [sys.executable, str(BENCH / "tracer.py"), mode, str(outfile), *argv]


def failure(outcome: dict, golden: dict, argv) -> str | None:
    """Why an invocation failed, or None when it matches its golden."""
    if outcome["timed_out"]:
        return "timed out"
    if outcome["exit"] != golden["exit"]:
        return "exit %d, golden %d" % (outcome["exit"], golden["exit"])
    if hashlib.sha256(outcome["stdout"]).hexdigest() != golden["sha256"]:
        return "stdout differs from the golden digest"
    if argv[0] == "model" and json.loads(outcome["stdout"]).get("pass") is not True:
        return "report says pass is not true"
    return None


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures = []

    def check(self, outcome: dict, golden: dict, argv, label: str = "") -> None:
        self.attempted += 1
        why = failure(outcome, golden, argv)
        if why is not None:
            self.failures.append("%s%s: %s" % (label, key_of(argv), why))
            err = outcome["stderr"].decode(errors="replace").strip()
            if err:
                print(err[-2000:], file=sys.stderr)


def measure_setup(times: list) -> None:
    """Append the times of fresh interpreters that import gelfand.cli and
    build its parser (--help), timed from spawn to exit."""
    for _ in range(SETUP_SAMPLES_PER_GAP):
        outcome = run_child(cli_argv(["--help"]), RUN_LIMIT_S)
        if outcome["exit"] != 0:
            raise SystemExit(
                "gelfand.cli --help failed:\n" + outcome["stderr"].decode(errors="replace")
            )
        times.append(outcome["wall_s"])


def run_timed(panel, goldens, seed: int, seconds: float):
    """Repeat the panel while another rep fits in `seconds`.  Setup is
    sampled before every invocation and once more at the end, so its
    median spans the whole run rather than one moment of it."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = []
    rng = random.Random(seed)
    tally = Tally()
    reps, orders = [], []
    loop_start = time.perf_counter()
    while True:
        order = rng.sample(panel, len(panel))
        orders.append([key_of(argv) for argv in order])
        outcomes = []
        for argv in order:
            measure_setup(setup)
            outcome = run_child(cli_argv(argv), deadline - time.perf_counter())
            tally.check(outcome, goldens[key_of(argv)], argv)
            outcomes.append(outcome)
        reps.append(
            {
                "wall_s": sum(o["wall_s"] for o in outcomes),
                "cpu_s": sum(o["cpu_s"] for o in outcomes),
                "peak_rss_mb": max(o["rss_mb"] for o in outcomes),
            }
        )
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(rep["wall_s"] for rep in reps)
        if elapsed + typical > seconds or time.perf_counter() + typical > deadline:
            break
    measure_setup(setup)
    metrics = {
        name: statistics.median(rep[name] for rep in reps)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setup)
    metrics["passed_frac"] = 1.0 - len(tally.failures) / tally.attempted
    info = {"reps": len(reps), "orders": orders, "setup_samples_s": setup}
    return metrics, tally, info


def self_times(spans):
    """Self time per span name: its duration less the part its children
    cover.  Children nest inside their parent, so covered time is the sum
    of their durations."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns, calls = Counter(), Counter()
    for index, (name, start, end, _) in enumerate(spans):
        self_ns[name] += end - start - covered[index]
        calls[name] += 1
    return self_ns, calls


def take_record(path: Path) -> dict | None:
    """The tracer's record, or None when the child ended without one."""
    if not path.exists():
        return None
    record = json.loads(path.read_text())
    path.unlink()
    return record


def run_traced(panel, goldens, seed: int):
    deadline = time.perf_counter() + RUN_LIMIT_S
    order = random.Random(seed).sample(panel, len(panel))
    tally = Tally()
    self_ns, calls, counts = Counter(), Counter(), Counter()
    sizes = defaultdict(int)
    traced_inprocess_ns = plain_wall = traced_wall = 0.0
    WORK.mkdir(exist_ok=True)
    try:
        for argv in order:
            golden = goldens[key_of(argv)]
            plain = run_child(cli_argv(argv), deadline - time.perf_counter())
            tally.check(plain, golden, argv, "untraced ")
            plain_wall += plain["wall_s"]

            spans_file = WORK / "spans.json"
            traced = run_child(
                tracer_argv("spans", spans_file, argv), deadline - time.perf_counter()
            )
            tally.check(traced, golden, argv, "spans ")
            traced_wall += traced["wall_s"]
            record = take_record(spans_file)
            if record is not None:
                names, ncalls = self_times(record["spans"])
                self_ns.update(names)
                calls.update(ncalls)
                traced_inprocess_ns += record["wall_ns"]
                for name, value in record["sizes"].items():
                    sizes[name] += value

            # Counts do not depend on timing, so the two passes share the cores.
            count_files = [WORK / "counts0.json", WORK / "counts1.json"]
            children = [spawn(tracer_argv("counts", path, argv)) for path in count_files]
            passes = []
            for child, path in zip(children, count_files):
                outcome = collect(child, deadline - time.perf_counter())
                tally.check(outcome, golden, argv, "counts ")
                record = take_record(path)
                passes.append(None if record is None else record["counts"])
            if passes[0] != passes[1]:
                tally.failures.append(
                    "counts %s: the two counting passes disagree: %s"
                    % (key_of(argv), passes)
                )
            counts.update(passes[0] or {})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[name + ".self_s"] = self_ns[name] / 1e9
        metrics[name + ".calls"] = calls[name]
    for name in SIZE_NAMES:
        metrics[name] = sizes[name]
    for name in COUNT_NAMES:
        metrics[name] = counts[name]
    def share(ns):
        return ns / traced_inprocess_ns if traced_inprocess_ns else 0.0

    metrics["trace.coverage"] = share(sum(self_ns[name] for name in SPAN_NAMES))
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    shares = {name: share(self_ns[name]) for name in SPAN_NAMES}
    info = {"orders": [[key_of(argv) for argv in order]], "self_share": shares}
    return metrics, tally, info


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict, tally: Tally, trace: bool) -> dict:
    units = declared_units(trace)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def check_program() -> None:
    if not (SRC / "gelfand" / "cli.py").is_file():
        raise SystemExit("no program to measure: %s is missing" % (SRC / "gelfand" / "cli.py"))


def main_run(args) -> int:
    goldens = json.loads((BENCH / "goldens.json").read_text())
    context = run_context(args)
    panel = PANELS[args.workload]
    if args.trace:
        metrics, tally, info = run_traced(panel, goldens, args.seed)
    else:
        metrics, tally, info = run_timed(panel, goldens, args.seed, args.seconds)
    context.update(info)
    context["loadavg_end"] = os.getloadavg()
    context["failures"] = tally.failures
    print(json.dumps({"run": context}))
    print(json.dumps(result_line(metrics, tally, args.trace)))
    return 0


def main_smoke() -> int:
    """Tiny panels through both modes; asserts names, units and that a
    wrong golden is caught.  Finishes in seconds."""
    goldens = json.loads((BENCH / "goldens.json").read_text())
    problems = []
    for workload, panel in SMOKE_PANELS.items():
        for trace in (False, True):
            if trace:
                metrics, tally, _ = run_traced(panel, goldens, seed=1)
            else:
                metrics, tally, _ = run_timed(panel, goldens, 1, 0.0)
            mode = "%s trace=%d" % (workload, trace)
            declared = declared_units(trace)
            if set(metrics) != set(declared):
                problems.append(
                    "%s: emitted %s, BENCHMARK.json declares %s"
                    % (mode, sorted(set(metrics) - set(declared)),
                       sorted(set(declared) - set(metrics)))
                )
                continue
            result = result_line(metrics, tally, trace)
            if not result["correct"]:
                problems.append("%s: %s" % (mode, tally.failures))
            if trace and metrics["trace.coverage"] <= 0:
                problems.append("%s: no spans were recorded" % mode)
            print("%s: %s" % (mode, json.dumps(result)))
    wrong = dict(goldens)
    argv = SMOKE_PANELS["chartable"][0]
    wrong[key_of(argv)] = dict(wrong[key_of(argv)], sha256="0" * 64)
    metrics, tally, _ = run_timed((argv,), wrong, 1, 0.0)
    if not tally.failures or metrics["passed_frac"] >= 1.0:
        problems.append("a wrong golden digest was not reported as a failure")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PANELS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    check_program()
    if args.smoke:
        return main_smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
