"""End-to-end benchmark of the redukt command line, run in-process.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                    # every workload, both modes

Run from the root of a checkout; the package is imported from ./src.
A run is a closed loop with one client that calls redukt.cli.main(argv)
with stdout and stderr captured, one operation at a time, over whole
passes of freshly generated inputs until --seconds of timed work is done.
This process generates the inputs and checks every output with
checker.py; with --trace 0 the operations run in a fresh worker.py
process, whose peak RSS is then redukt's alone.

--trace 0 reports the end-to-end metrics; --trace 1 runs the first pass
in this process, untraced and traced in turn, and reports the per-layer
metrics listed in BENCHMARK.json.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; lines before
it, starting with "#", give sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from worker import import_cli, run_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_LAUNCHES = 15  # fresh interpreters per run for setup_s, after one warm-up
IMPORTTIME_LAUNCHES = 5
MIN_OPS = 100  # completed operations per run, so that ten lie beyond p90
# On a shared 2-vCPU Linux VM the speed switched between states up to 1.6x
# apart for seconds at a time (a fixed 40 ms piece of redukt work ranged
# from 34 to 65 ms over 90 s).  The worker times a calibration slice of dict, tuple, string and
# frozenset work after every operation, and each operation's time is
# scaled by CAL_REFERENCE_S over the median of the six slices nearest to
# it: reported times are at the reference speed, where one slice takes
# CAL_REFERENCE_S.  Over ten passes of the same recover inputs the pass
# total varied with a CV of 0.10 in wall time and 0.027 scaled.
CAL_REFERENCE_S = 0.002
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
SLOPE_NAMES = {row["name"].rsplit(".", 1)[0] for row in PER_LAYER if row["name"].endswith(".slope")}


def say(line: str) -> None:
    print("# " + line, flush=True)


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the bytecode cache is written under src/ whatever the caller's
    # environment says, so that setup_s never includes compiling
    for name in ("REDUKT_MAX_ORBIT", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


def _launch(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=60, check=True)


def setup_seconds() -> list:
    """Seconds that `import redukt.cli` takes in fresh interpreters, timed
    inside each and scaled to the reference speed by the median of five
    calibration slices that the same interpreter times after the import.
    Interpreter start-up, which varied by a factor of two from launch to
    launch on a shared 2-vCPU Linux VM and is not redukt's, is left out.
    Unscaled, the median over a run took one of two values 1.6x apart, as
    the VM's speed state changed; scaled by slices timed in this process
    instead of the child, its quartile spread over ten runs was 0.11-0.33."""
    argv = [sys.executable, "-c",
            "import time; t = time.perf_counter(); import redukt.cli; t = time.perf_counter() - t; "
            "import sys; sys.path.insert(0, sys.argv[1]); from worker import calibration_slice; "
            "print(t, sorted(calibration_slice() for _ in range(5))[2])", str(HERE)]
    _launch(argv)  # writes the bytecode cache, as an installed package has
    times = []
    for _ in range(SETUP_LAUNCHES):
        seconds, cal = map(float, _launch(argv).stdout.split())
        times.append(seconds * CAL_REFERENCE_S / cal)
    return times


def import_ms() -> dict:
    """Median self import time per redukt module, from -X importtime."""
    samples: dict = {}
    for _ in range(IMPORTTIME_LAUNCHES):
        err = _launch([sys.executable, "-X", "importtime", "-c", "import redukt.cli"]).stderr
        for m in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \|\s+redukt\.(\w+)\s*$", err, re.M):
            samples.setdefault(m.group(2), []).append(int(m.group(1)) / 1000)
    return {mod: statistics.median(v) for mod, v in samples.items()}


class Result:
    """The outcome of one operation: its exit code, stdout, seconds and
    error, None or the reason it failed.  wrong marks a failure that is
    not the known pc defect."""

    __slots__ = ("op", "kind", "code", "out", "seconds", "error", "wrong")

    def __init__(self, op, code, out, seconds, exc):
        self.op, self.kind, self.code, self.out, self.seconds = op, op.kind, code, out, seconds
        self.error, self.wrong = None, False
        if exc is not None:
            self.error = f"uncaught {exc['type']}: {exc['message']}"
            self.wrong = not workloads.known_defect(op, exc)


def scale(results, slices) -> list:
    """Scale each Result.seconds of a pass to the reference speed, by the
    calibration slices timed after the operations nearest to it."""
    scales = [CAL_REFERENCE_S / statistics.median(slices[max(0, i - 3) : i + 3]) for i in range(len(results))]
    for r, f in zip(results, scales):
        r.seconds *= f
    return scales


def run_pass(cli, ops, tracer=None) -> tuple:
    """Run every op once in this process.  Returns the results, with
    Result.seconds scaled to the reference speed, their wall seconds in
    total and the scales."""
    replies = list(run_ops(cli, [op.argv for op in ops], tracer))
    results = [Result(op, *reply[:4]) for op, reply in zip(ops, replies)]
    wall = sum(r.seconds for r in results)
    return results, wall, scale(results, [reply[4] for reply in replies])


class Worker:
    """A worker.py child process that runs operations for this one."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], env=_child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.maxrss_kb = 0

    def run_pass(self, ops) -> tuple:
        """As run_pass, in the worker."""
        self.proc.stdin.write(json.dumps([op.argv for op in ops]) + "\n")
        self.proc.stdin.flush()
        results, slices = [], []
        for op in ops:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"worker exited with code {self.proc.wait()}")
            reply = json.loads(line)
            results.append(Result(op, reply["code"], reply["out"], reply["seconds"], reply["error"]))
            slices.append(reply["slice"])
            self.maxrss_kb = reply["maxrss_kb"]
        wall = sum(r.seconds for r in results)
        return results, wall, scale(results, slices)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check(results, facts: dict) -> None:
    """Mark failures: a wrong exit code or a rejected output is wrong too."""
    for r in results:
        if r.error is None and r.code != r.op.expect:
            r.error = f"exit code {r.code}, expected {r.op.expect}"
            r.wrong = True
        elif r.error is None:
            try:
                reason = r.op.check(r.out)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                reason = f"output unreadable: {exc!r}"
            if reason:
                r.error, r.wrong = reason, True
            else:
                workloads.observe(r.op, r.out, facts)
        r.out, r.op = len(r.out), None  # keep the size; let the inputs go


def report_failures(results) -> None:
    kinds: dict = {}
    for r in results:
        if r.error:
            key = (r.kind, r.error[:200] if r.wrong else "known defect, " + r.error[:80])
            kinds[key] = kinds.get(key, 0) + 1
    for (kind, why), n in sorted(kinds.items()):
        say(f"failed {n}x {kind}: {why}")


def report_probes(probed) -> None:
    for r in probed:
        if r.error is None:
            say(f"probe {r.kind} passed: the known defect is fixed")
        else:
            say(f"probe {r.kind} failed ({'unexpected' if r.wrong else 'known defect'}): {r.error[:200]}")


def slope(points: list) -> float:
    """Least-squares slope of log(time) on log(k), over (k, time) points."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(k) for k, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def end_to_end(args) -> tuple:
    setups = setup_seconds()
    rng = random.Random(f"{args.workload}:{args.seed}")
    facts: dict = {}
    timed, scales = [], []
    wall, passes = 0.0, 0
    workdir = new_workdir(args.workload)
    worker = Worker()
    try:
        ops = workloads.make_pass(args.workload, rng, workdir)
        worker.run_pass(ops[:1])  # warm-up, untimed and uncounted
        probed = worker.run_pass(probe_ops(args))[0]
        while True:
            results, seconds, pass_scales = worker.run_pass(ops)
            wall += seconds
            passes += 1
            scales += pass_scales
            check(results, facts)
            timed += results
            if wall >= args.seconds and sum(1 for r in timed if not r.error) >= MIN_OPS:
                break
            ops = workloads.make_pass(args.workload, rng, workdir)
    finally:
        worker.close()
        remove_workdir(workdir)
    check(probed, facts)

    done = [r.seconds * 1000 for r in timed if not r.error]
    busy = sum(r.seconds for r in timed)
    say(f"passes={passes} timed={len(timed)} completed={len(done)} wall_s={wall:.3f} "
        f"scale to reference speed: median {statistics.median(scales):.3f}, range {min(scales):.3f}..{max(scales):.3f}")
    metrics = {}
    if done:
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "throughput_ops_s": (len(done) / busy, "1/s", len(done)),
            "latency_p50_ms": (statistics.median(done), "ms", len(done)),
            "latency_p90_ms": (statistics.quantiles(done, n=10)[8] if len(done) > 1 else done[0], "ms", len(done)),
            "peak_rss_mb": (worker.maxrss_kb / 1024, "MB", 1),
        }
    for name, (value, unit, n) in metrics.items():
        say(f"{name} = {value:.6g} {unit} (n={n})")
    return timed, probed, facts, None, metrics


def probe_ops(args) -> list:
    return workloads.probes(args.workload, random.Random(f"{args.workload}:{args.seed}:probe"))


def per_layer(args) -> tuple:
    from tracer import MODULES, Tracer

    imports = import_ms()
    cli = import_cli()
    rng = random.Random(f"{args.workload}:{args.seed}")
    facts: dict = {}
    all_results = []
    workdir = new_workdir(args.workload)
    tracer = Tracer()
    summaries, ratios, first = [], [], None
    try:
        ops = workloads.make_pass(args.workload, rng, workdir)
        run_pass(cli, ops)  # warm-up pass, so that the first untraced pass is not the cold one
        probed = run_pass(cli, probe_ops(args))[0]
        wall = 0.0
        while not summaries or wall < args.seconds:
            plain, plain_wall, _ = run_pass(cli, ops)
            tracer.reset()
            tracer.install()
            try:
                traced, traced_wall, scales = run_pass(cli, ops, tracer)
            finally:
                tracer.uninstall()
            wall += plain_wall + traced_wall
            ratios.append(sum(r.seconds for r in traced) / sum(r.seconds for r in plain))
            summaries.append(tracer.summary(SLOPE_NAMES, scales))
            if first is None:
                members = sum(json.loads(r.out)["size"] for r in traced if r.op.kind == "orbit" and r.code == 0)
                inner = tracer.child_calls("rules.orbit", "rules.apply_rule")
                first = (summaries[0], traced, members / inner if inner else 0.0)
            check(plain + traced, facts)
            all_results += plain + traced
    finally:
        remove_workdir(workdir)
    check(probed, facts)

    calls, traced, new_member_ratio = first
    values = {}
    for name in calls:
        mod = name.split(".")[0]
        self_ms = statistics.median(s[name]["self"] for s in summaries) * 1000
        values[f"{name}.self_ms"] = self_ms
        values[f"{mod}.self_ms"] = values.get(f"{mod}.self_ms", 0.0) + self_ms
        values[f"{name}.calls"] = calls[name]["calls"]
        if name in SLOPE_NAMES:
            tiers: dict = {}
            for s in summaries:
                for op_index, seconds in s[name]["per_call"]:
                    op = ops[op_index]
                    tiers.setdefault(op.tier, []).append((op.k, seconds))
            values[f"{name}.slope"] = slope([
                (statistics.median(k for k, _ in pts), statistics.median(t for _, t in pts))
                for pts in tiers.values()
            ])
    values["cli.main.out_bytes"] = sum(r.out for r in traced)
    values["rules.orbit.new_member_ratio"] = new_member_ratio
    for mod in MODULES:
        values[f"{mod}.import_ms"] = imports.get(mod, 0.0)
    values["trace.overhead_ratio"] = statistics.median(ratios)
    say(f"traced passes={len(summaries)} over {len(ops)} operations; "
        f"traced/untraced time {statistics.median(ratios):.3f} (n={len(ratios)})")
    metrics = {row["name"]: (values[row["name"]], row["unit"], 1) for row in PER_LAYER}
    call_counts = {name: rec["calls"] for name, rec in calls.items()}
    return all_results, probed, facts, call_counts, metrics


def new_workdir(workload: str) -> Path:
    path = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # left in place while another run uses it
    except OSError:
        pass


def run_one(args) -> int:
    say(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}")
    results, probed, facts, calls, metrics = (per_layer if args.trace else end_to_end)(args)
    problems = workloads.guard(args.workload, facts, calls)
    if problems:
        for p in problems:
            print(f"mechanism guard failed: {p}", file=sys.stderr)
        return 3
    failed = sum(1 for r in results if r.error)
    say(f"attempted={len(results)} failed={failed} failed_ratio={failed / len(results):.4f}")
    report_failures(results)
    report_probes(probed)
    print(json.dumps({
        "correct": failed == 0 and not any(r.wrong for r in probed) and bool(metrics),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if line.startswith("#")))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, end="")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if trace:
                for name, m in result["metrics"].items():
                    print(f"   {name:55s} {m['value']:>14.6g} {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "redukt" / "cli.py").is_file():
        print(f"redukt sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    unmapped = {row["name"] for row in PER_LAYER} ^ json.loads((HERE / "layers.json").read_text()).keys()
    if unmapped:
        print(f"per-layer metrics in BENCHMARK.json and layers.json differ: {sorted(unmapped)}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
