"""liukit benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the checkout's src/liukit.
Every input is a fresh, single-threaded `python3 -m liukit.cli` process, so
each run pays the process-level caches as a CLI user does.  The load is a
closed loop: one process at a time, the next started when the last exits.

--trace 0 times the workload's inputs round after round for S seconds (a
round runs every input once, in an order drawn from the seed), then runs
the correctness gate outside the timed region.  --trace 1 runs each input
traced and untraced in fresh processes (see probe.py) until S seconds have
passed, and reports per-layer self times and counters.

The last line of stdout is the result object; the line before it holds the
per-input detail.  A run whose outputs are wrong reports "correct": false.
A checkout without src/liukit exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

from inputs import ROOT, SRC, WORKLOADS, Input, child_env

SETUP_REPEATS = 5  # set-up probes per distinct model
CHILD_TIMEOUT_S = 150  # a child still running after this is killed
# Time metrics are reported at the machine speed at which calibrate.py takes
# CAL_REF_S: each raw time is scaled by CAL_REF_S over the mean of the two
# calibration runs around it.
CAL_REF_S = 0.5


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Child:
    """Outcome of one child process."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        err: list[bytes] = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        try:
            self.stdout = proc.stdout.read()
            drain.join()
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.stderr = err[0].decode(errors="replace") if err else ""
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    def json(self) -> dict:
        if self.code != 0:
            raise ChildFailed(f"{' '.join(self.argv[1:])} exited {self.code}: {self.stderr.strip()[-500:]}")
        return json.loads(self.stdout)


class ChildFailed(RuntimeError):
    pass


def probe(mode: str, workload: str, index: int, seed: int | None = None) -> Child:
    argv = [sys.executable, os.path.join("bench", "probe.py"), mode, str(index), workload]
    return Child(argv + ([str(seed)] if seed is not None else []))


def cli(inp: Input, seed: int) -> Child:
    return Child([sys.executable, "-m", "liukit.cli", *inp.cli_args(seed)])


def summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    out = {"n": len(s), "median": statistics.median(s), "max": s[-1]}
    if len(s) >= 20:
        out[f"p{math.floor(100 * (len(s) - 10) / len(s))}"] = s[len(s) - 11]
    return out


def rounds(seconds: float):
    """Yield once per round: always once, then while another round of the
    length of the last one still ends within `seconds`."""
    t0 = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if now + (now - last) - t0 > seconds:
            return
        last = now
        yield


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


def check_output(inp: Input, child: Child, refs: dict) -> str | None:
    """Why a timed CLI run's output is wrong, or None."""
    from gate import verdict_misses

    if child.code != 0:
        return f"{inp.metric}: exit {child.code}: {child.stderr.strip()[-300:]}"
    if inp.command == "derive":
        if hashlib.sha256(child.stdout).hexdigest() != refs[inp.name]["json"]:
            return f"{inp.metric}: JSON report differs from the reference"
        return None
    try:
        wrong = verdict_misses(inp, json.loads(child.stdout))
    except ValueError:
        wrong = ["output is not a JSON check report"]
    return f"{inp.metric}: " + "; ".join(wrong) if wrong else None


def calibrate(cal: list[float]) -> None:
    child = Child([sys.executable, os.path.join("bench", "calibrate.py")])
    if child.code != 0:
        raise ChildFailed(f"calibrate.py exited {child.code}: {child.stderr.strip()[-500:]}")
    cal.append(child.wall_s)


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Set-up probes, then timed rounds, then the gate.

    A calibration run precedes every set-up round and every timed input, and
    one more ends the run, so each time has a calibration on either side.
    Times are kept as (raw seconds, index of the calibration before them).
    """
    from gate import gate, load_references

    inputs = WORKLOADS[workload]
    refs = load_references()
    firsts: dict[tuple[str, str], int] = {}
    for i, inp in enumerate(inputs):
        firsts.setdefault((inp.command, inp.model), i)
    cal: list[float] = []
    calibrate(cal)
    setup: list[tuple[float, int]] = []
    for _ in range(SETUP_REPEATS):
        for i in firsts.values():
            setup.append((probe("setup", workload, i).json()["setup_s"], len(cal) - 1))
        calibrate(cal)

    rng = random.Random(seed)
    samples: dict[str, list[tuple[float, int]]] = {inp.metric: [] for inp in inputs}
    rss = 0.0
    misses: list[str] = []
    attempted = 0
    t0 = time.perf_counter()
    for _ in rounds(seconds):
        for inp in rng.sample(inputs, len(inputs)):
            child = cli(inp, seed)
            attempted += 1
            samples[inp.metric].append((child.wall_s, len(cal) - 1))
            rss = max(rss, child.rss_mb)
            wrong = check_output(inp, child, refs)
            if wrong:
                misses.append(wrong)
            calibrate(cal)
    measured_s = time.perf_counter() - t0
    gate_attempted, gate_misses = gate(inputs)
    attempted += gate_attempted
    misses += gate_misses

    def scaled(times: list[tuple[float, int]]) -> float:
        return statistics.median(t * 2 * CAL_REF_S / (cal[k] + cal[k + 1]) for t, k in times)

    medians = {name: scaled(v) for name, v in samples.items()}
    values = {
        "setup_s": scaled(setup),
        "wall_s": sum(medians.values()),
        "geomean_s": math.exp(statistics.fmean(math.log(m) for m in medians.values())),
        "peak_rss_mb": rss,
    }
    detail = {
        "inputs": medians,
        "raw_inputs": {name: summary([t for t, _ in v]) for name, v in samples.items()},
        "raw_setup_s": summary([t for t, _ in setup]),
        "calibration_s": summary(cal),
        "measured_s": measured_s,
        "failed_share": len(misses) / attempted,
        "misses": misses,
        "attempted": attempted,
    }
    return values, detail


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from gate import load_references

    inputs = WORKLOADS[workload]
    refs = load_references()
    rng = random.Random(seed)
    runs: dict[str, list[tuple[dict, dict]]] = {inp.metric: [] for inp in inputs}
    misses: list[str] = []
    attempted = 0
    for _ in rounds(seconds):
        for i, inp in rng.sample(list(enumerate(inputs)), len(inputs)):
            attempted += 1
            try:
                traced = probe("traced", workload, i, seed).json()
                plain = probe("plain", workload, i, seed).json()
            except ChildFailed as exc:
                misses.append(f"{inp.metric}: {exc}")
                continue
            runs[inp.metric].append((traced, plain))
            wrong = []
            if traced["sha256"] != plain["sha256"]:
                wrong.append("traced phases and liu.derive/checker.check give different reports")
            if inp.command == "derive" and plain["sha256"] != refs[inp.name]["json"]:
                wrong.append("JSON report differs from the reference")
            if traced["counts"] != runs[inp.metric][0][0]["counts"]:
                wrong.append("kernel counters differ between traced runs")
            if wrong:
                misses.append(f"{inp.metric}: " + "; ".join(wrong))
    if not all(runs.values()):
        raise ChildFailed("an input produced no traced run: " + "; ".join(misses))

    per_input = {}
    totals: dict[str, float] = {}
    for metric, pairs in runs.items():
        row = {
            name + "_s": statistics.median(t["self_s"][name] for t, _ in pairs)
            for name in pairs[0][0]["self_s"]
        }
        row["trace.overhead_s"] = statistics.median(t["total_s"] for t, _ in pairs) - statistics.median(
            p["total_s"] for _, p in pairs
        )
        row.update(pairs[0][0]["counts"])
        per_input[metric] = {**row, "runs": len(pairs)}
        for name, value in row.items():
            totals[name] = totals.get(name, 0) + value
    scenario_s = totals["checker.scenario_s"]
    totals["checker.points_per_s"] = totals["checker.points"] / scenario_s if scenario_s else 0.0
    detail = {
        "inputs": per_input,
        "workload": totals,
        "misses": misses,
        "attempted": attempted,
        "failed_share": len(misses) / attempted,
    }
    return totals, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liukit", "__init__.py")):
        print(f"error: no liukit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        where = probe("setup", args.workload, 0).json()["liukit"]
        if os.path.dirname(os.path.dirname(where)) != SRC:
            raise ChildFailed(f"liukit was imported from {where}, not from {SRC}")
        run = traced_run if args.trace else timed_run
        values, detail = run(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail["machine"] = machine()
    failed = len(detail["misses"])
    for miss in detail["misses"]:
        print("miss:", miss, file=sys.stderr)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": detail["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
