"""Benchmark of the prefixnormal command line, one workload per run.

    python3 bench/run.py --workload stream --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run feeds the workload's CLI calls to the real CLI
(``python -m prefixnormal.cli`` with ``src`` on the path), one process at a
time with its stdin written in full up front, repeats the whole workload
until ``--seconds`` have passed, checks every output against
``reference`` outside the timed region, and reports medians over the
passes.  With ``--trace 1`` it replays every workload in-process instead
and reports the per-layer metrics (see ``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn; ``--out FILE`` appends each run's full record to FILE as
one JSON line, which ``compare.py`` reads; ``--write-spec`` rewrites
``BENCHMARK.json`` from the definitions here and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent.relative_to(ROOT)
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_SECONDS = 20
SETUP_PER_PASS = 3
CALL_TIMEOUT_S = 150

# Gated metrics: (name, unit, better, bound).  The bound is the share of
# the parent's median by which a change may make the metric worse.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str


def cli_env() -> dict:
    """The CLI's environment: ``src`` on the path, and one BLAS thread.

    The package makes no BLAS calls, but numpy's OpenBLAS starts a worker
    per core at import, and on a 2-core machine those workers burned about
    0.12 s of CPU in most CLI processes, at random, which made cpu_s and
    wall_s swing by 20% between passes.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Launcher:
    """The small process that starts and times every CLI call; see
    launcher.py for why the calls do not start from this process."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")),
             str(CALL_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=cli_env())
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv, workdir: Path, stdin: str | None = None) -> Outcome:
        """Run one CLI process to completion; its wall time runs from
        spawn to reap, its CPU time and peak RSS come from os.wait4."""
        if stdin is not None:
            (workdir / "stdin").write_text(stdin)
        request = {
            "argv": [sys.executable, "-m", "prefixnormal.cli", *argv],
            "cwd": str(workdir),
            "stdin": str(workdir / "stdin") if stdin is not None else None,
            "stdout": str(workdir / "stdout"),
            "stderr": str(workdir / "stderr")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("the launcher process ended early")
        r = json.loads(reply)
        return Outcome(r["wall"], r["cpu"], r["rss_kb"] / 1024, r["code"],
                       (workdir / "stdout").read_text())


def stderr_tail(workdir: Path) -> str:
    return (workdir / "stderr").read_text()[-400:]


def setup_call(launch: Launcher, workload: wl.Workload,
               workdir: Path) -> float:
    """Wall time of a trivial cold invocation of the workload's own
    subcommand.  A failure here means there is no working program."""
    o = launch.run(list(workload.setup_argv), workdir)
    if o.code != 0 or not o.stdout:
        raise SystemExit(f"set-up call {' '.join(workload.setup_argv)} "
                         f"failed with exit {o.code}: {stderr_tail(workdir)}")
    return o.wall


def run_pass(launch: Launcher, plan: wl.Plan, workdir: Path) -> list[dict]:
    """One closed-loop pass over every call, each checked after its time
    is taken.  One record per call."""
    records = []
    for step in plan.steps:
        for call in step.calls:
            o = launch.run(call.argv, workdir, call.stdin)
            if o.code != call.exit_code:
                print(f"{plan.workload}: {' '.join(call.argv[:3])} exited "
                      f"{o.code}: {stderr_tail(workdir)}", file=sys.stderr)
            # The next call overwrites stdout, so the check runs now.
            verdicts = call.judge(o.code, o.stdout, workdir)
            records.append({"step": step.metric, "batch": step.batch,
                            "words": len(call.words), "wall": o.wall,
                            "cpu": o.cpu, "rss_mb": o.rss_mb,
                            "attempted": len(verdicts),
                            "failed": verdicts.count(False)})
    return records


def summarize(passes: list[list[dict]]) -> dict:
    """Per-call medians over the passes, summed per step and per pass.

    Taking each call's median before summing keeps a burst of machine
    noise that slows part of one pass from moving the result.
    """
    calls = list(zip(*passes))
    med = [{k: statistics.median(c[k] for c in same)
            for k in ("wall", "cpu", "rss_mb")} for same in calls]
    out = {"wall_s": sum(m["wall"] for m in med),
           "cpu_s": sum(m["cpu"] for m in med),
           "peak_rss_mb": max(m["rss_mb"] for m in med)}
    for same, m in zip(calls, med):
        out[same[0]["step"]] = out.get(same[0]["step"], 0.0) + m["wall"]
    batch = [(same[0]["words"], m["wall"]) for same, m in zip(calls, med)
             if same[0]["batch"]]
    if batch:
        out["words_per_s"] = (sum(w for w, _ in batch)
                              / sum(t for _, t in batch))
    return out


def env_loops() -> dict:
    """A fixed pure-Python loop and a fixed numpy loop, in ms.  Reported
    beside each run to show machine noise; never used to rescale."""
    t0 = time.perf_counter()
    sum(i * i for i in range(300_000))
    t1 = time.perf_counter()
    x = np.arange(1_000_000, dtype=np.int64)
    for _ in range(20):
        x = np.cumsum(x) % 1_000_003
    t2 = time.perf_counter()
    return {"python_loop_ms": (t1 - t0) * 1e3,
            "numpy_loop_ms": (t2 - t1) * 1e3}


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit,
            "src_lines": src_lines}


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory for the CLI's stdin, stdout and output files, removed
    afterwards."""
    path = WORK / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(workload: wl.Workload, seed: int, seconds: float) -> dict:
    """The --trace 0 run of one workload: its full record."""
    plan = workload.build(seed)
    loops_before = env_loops()
    setups, passes = [], []
    with scratch_dir(workload.name) as workdir, Launcher() as launch:
        start = time.perf_counter()
        # Set-up samples are spread between the passes, like the passes
        # themselves, so that no single burst of noise sets either.
        while not passes or time.perf_counter() - start < seconds:
            setups += [setup_call(launch, workload, workdir)
                       for _ in range(SETUP_PER_PASS)]
            passes.append(run_pass(launch, plan, workdir))
    loops_after = env_loops()
    attempted = sum(c["attempted"] for p in passes for c in p)
    failed = sum(c["failed"] for p in passes for c in p)
    summary = summarize(passes)
    metrics = {"setup_s": statistics.median(setups),
               **{k: summary.pop(k) for k in ("wall_s", "cpu_s",
                                               "peak_rss_mb")}}
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": 0, "passes": len(passes),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "steps": {**summary, "fail_ratio": failed / attempted},
        "shares": plan.shares,
        "per_pass": [summarize([p]) for p in passes], "setups": setups,
        "env": {**environment(), "loops_before": loops_before,
                "loops_after": loops_after},
    }


UNITS = {**{name: unit for name, unit, _, _ in END_TO_END},
         "words_per_s": "1/s", "fail_ratio": "ratio"}


def print_record(rec: dict) -> None:
    print(f"{rec['workload']}: seed {rec['seed']}, {rec['passes']} passes, "
          f"{rec['failed']}/{rec['attempted']} checks failed")
    for name, value in {**rec["metrics"], **rec["steps"]}.items():
        print(f"  {name:<16} {value:12.6g} {UNITS.get(name, 's')}")
    print(f"  inputs: {json.dumps(rec['shares'])}")
    print(f"  env: {json.dumps(rec['env'])}")


def spec() -> dict:
    """BENCHMARK.json, from the definitions in this directory."""
    import tracing   # it imports this module, so not at the top
    return {
        "command": ["python3", f"{BENCH_DIR}/run.py"],
        "paths": [str(BENCH_DIR)],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in wl.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in tracing.PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append each run's full record to this file")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2)
                                             + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "prefixnormal" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    import tracing   # it imports this module, so not at the top
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        if args.trace:
            rec = tracing.measure(wl.WORKLOADS[name], args.seed, args.seconds)
        else:
            rec = measure(wl.WORKLOADS[name], args.seed, args.seconds)
            print_record(rec)
        records.append(rec)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
    units = ({n: u for n, u, _ in tracing.PER_LAYER} if args.trace
             else UNITS)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k):
               {"value": v, "unit": units[k]}
               for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
