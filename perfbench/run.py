"""Benchmark of the flowseg CLI on the train, eval and ablate workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the root of a flowseg checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` every measured command runs as its own
child process with tracing off, and the end-to-end metrics are printed.  With
``--trace 1`` set-up and the command run in this process, once untraced and
once with every layer wrapped in spans, and the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and units
come from ``BENCHMARK.json``.  Work files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Each child must end well inside the 180 s a whole run may take.
CHILD_TIMEOUT_S = 150.0


@dataclass
class CliResult:
    code: int
    wall_s: float
    peak_rss_mb: float = 0.0


def run_child(argv: list[str], log: Path) -> CliResult:
    """Run ``flowseg <argv>`` as a child process; time it and read its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "flowseg.cli", *argv],
                                stdout=out, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    # ru_maxrss is in KiB on Linux.
    return CliResult(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_inprocess(argv: list[str], log: Path) -> CliResult:
    """Run ``flowseg.cli.main(argv)`` in this process, output to ``log``."""
    from flowseg import cli

    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out, redirect_stdout(out), redirect_stderr(out):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return CliResult(code, wall)


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result(correct: bool, attempted: int, failed: int, values: dict,
           kind: str) -> dict:
    units = declared_metrics(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"no value computed for {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}


class SetupError(RuntimeError):
    pass


def set_up(wl, data: Path, runner, log: Path) -> float:
    """Generate the workload's inputs from scratch; returns the wall time."""
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    start = time.perf_counter()
    for argv in wl.setup_commands(data):
        res = runner(argv, log)
        if res.code != 0:
            raise SetupError(f"set-up command {argv[0]} exited {res.code}; "
                             f"see {log}")
    return time.perf_counter() - start


def check_outputs(wl, data: Path, out: Path, res: CliResult) -> list[str]:
    """Problems with one round's outputs; a failed command is one problem."""
    if res.code != 0:
        return [f"{wl.name} exited {res.code}; see {out / 'cli.log'}"]
    try:
        return wl.check(data, out, run_child)
    except (OSError, KeyError, ValueError) as exc:
        return [f"output check could not read the outputs: {exc!r}"]


def timed_run(wl, work: Path, seconds: float) -> dict:
    data = work / "data"
    setups = [set_up(wl, data, run_child, work / "setup.log")
              for _ in range(wl.setup_reps)]
    rounds = []
    measured = 0.0
    while measured < seconds or not rounds:
        out = work / f"round{len(rounds)}"
        res = run_child(wl.command(data, out), out / "cli.log")
        problems = check_outputs(wl, data, out, res)
        rounds.append((res, problems))
        measured += res.wall_s
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"{wl.name} round {len(rounds)}: {res.wall_s:.3f} s, "
              f"peak RSS {res.peak_rss_mb:.1f} MB, {status}", flush=True)
    walls = [r.wall_s for r, _ in rounds]
    values = {
        "setup_s": statistics.median(setups),
        "command_s": statistics.median(walls),
        "imgs_per_s": statistics.median(wl.images / w for w in walls),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r, _ in rounds),
    }
    failed = sum(1 for _, p in rounds if p)
    return result(True, len(rounds), failed, values, "end_to_end")


def traced_run(wl, work: Path) -> dict:
    import spans

    tracer = spans.Tracer()
    data = work / "data"
    setup_root = len(tracer.spans)
    with spans.instrument(tracer), tracer.span("setup"):
        set_up(wl, data, run_inprocess, work / "setup.log")
    # The same command untraced first, for the tracing overhead.
    untraced = run_inprocess(wl.command(data, work / "untraced"),
                             work / "untraced" / "cli.log")
    out = work / "traced"
    command_root = len(tracer.spans)
    with spans.instrument(tracer), tracer.span("command"):
        res = run_inprocess(wl.command(data, out), out / "cli.log")
    problems = check_outputs(wl, data, out, res)
    if untraced.code != 0:
        problems.append(f"untraced {wl.name} exited {untraced.code}")
    violations = spans.nesting_violations(tracer.spans)
    values = spans.layer_metrics(tracer.spans, command_root, setup_root)
    values.update(spans.kernel_rows(spans.conv_shapes(tracer.spans,
                                                      command_root)))
    values["trace.overhead_s"] = res.wall_s - untraced.wall_s
    values["trace.overhead_pct"] = 100.0 * (res.wall_s / untraced.wall_s - 1.0)
    # The difference above is within run-to-run noise; this is the cost of
    # the tracing itself: the tape walks plus every span's own recording.
    command = spans.subtree(tracer.spans, command_root)
    values["trace.cost_s"] = (
        sum(tracer.spans[i].duration for i in command
            if tracer.spans[i].name == "bench.tape_walk")
        + len(command) * spans.span_cost())
    values["trace.spans"] = len(command)
    (work / "spans.json").write_text(
        json.dumps([s.to_json() for s in tracer.spans]))
    for p in problems + violations:
        print(f"{wl.name} traced round: {p}", flush=True)
    return result(not violations, 1, int(bool(problems)), values, "per_layer")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not (SRC / "flowseg" / "cli.py").is_file():
        print(f"error: no flowseg sources under {SRC}; run from the root of "
              "a flowseg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Evaluation stays single-threaded: DBF_THREADS keeps its default.
    os.environ.pop("DBF_THREADS", None)
    wl = WORKLOADS[args.workload](args.seed)
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = traced_run(wl, work) if args.trace else \
            timed_run(wl, work, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
