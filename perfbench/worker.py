"""Runs one workload in this interpreter; started by `run.py`.

Protocol on standard output: the line `ready` once the package is imported
and the inputs are written (the parent times set-up up to it), then, unless
`--setup-only`, one JSON line with the run's result.

Untraced (`--trace 0`): one warm-up pass, then whole passes until the run
length is used, with set-up samples in fresh interpreters between them;
reports the median pass wall time and CPU time at reference speed (see
`reference.py`), the peak resident memory and the set-up samples.  Traced
(`--trace 1`): one warm-up pass, then pairs of an untraced and a traced
pass; reports the per-layer metrics of the median traced pass and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
from reference import REF_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3  # timed passes in every untraced run
MIN_PAIRS = 2  # untraced-and-traced pairs in every traced run
SETUPS_PER_PASS = 3  # set-up samples after each timed pass of an untraced run
REF_SHARE = 0.1  # share of a timed pass spent in reference loops
# A median timed pass below this share of the warm-up pass means that
# something kept from an earlier pass answered part of a later one.
CACHE_GUARD = 1 / 3


class CrossCallCache(Exception):
    """Timed passes ran much faster than the first pass of the process."""


def start_worker(workload, seed, seconds, trace, setup_only=False, trace_out=None):
    """Start a worker in a fresh interpreter and wait until it is ready.

    Returns the process and its set-up time in seconds: from the start of
    the interpreter to its `ready` line.
    """
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    # one hash layout for every run, so set and dict orders repeat
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        rest = proc.stdout.read()
        proc.wait()
        raise RuntimeError(f"{workload}: worker did not get ready: {line}{rest}")
    return proc, setup


def finish(proc, workload):
    """Wait for a worker; returns its last output line, parsed, if any."""
    lines = proc.stdout.read().strip().splitlines()
    code = proc.wait()
    if code != 0:
        raise RuntimeError(f"{workload}: worker exited with {code}")
    return json.loads(lines[-1]) if lines else None


def sample_setup(workload, seed):
    """The set-up time of one fresh set-up-only interpreter."""
    proc, setup = start_worker(workload, seed, 0, 0, setup_only=True)
    finish(proc, workload)
    return setup


def import_program():
    """Import the package from this checkout's `src`, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import reebtop
    import reebtop.cli  # noqa: F401  (commands go through reebtop.cli.main)

    if Path(reebtop.__file__).resolve().parent != src / "reebtop":
        raise SystemExit(f"reebtop imported from {reebtop.__file__}, not {src}")
    return reebtop


def cpu_seconds():
    """CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Loops:
    """Reference loops run from a timer signal while a pass's commands run.

    Each loop, in the SIGALRM handler, sets the timer for the next one so
    that the loops take REF_SHARE of the time.  They thus sample the
    machine's speed evenly through the pass, inside long commands too;
    their time is taken out of the pass's time.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.count = 0
        self.running = False

    def _loop(self, signum=None, frame=None):
        # A signal that was on its way when the pass stopped runs no loop
        # and sets no timer.  The handler stays installed, because under
        # the default action a late SIGALRM would end the process.
        if not self.running:
            return
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        reference.reference()
        wall = time.perf_counter() - t0
        self.wall += wall
        self.cpu += cpu_seconds() - cpu0
        self.count += 1
        signal.setitimer(signal.ITIMER_REAL, wall * (1 - REF_SHARE) / REF_SHARE)

    def start(self):
        """Run one loop now, then the rest from the timer."""
        self.running = True
        signal.signal(signal.SIGALRM, self._loop)
        self._loop()

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def add(self, other):
        self.wall += other.wall
        self.cpu += other.cpu
        self.count += other.count

    def mean_wall(self):
        return self.wall / self.count

    def rescale(self, wall, cpu):
        """Wall and CPU times at the speed at which one loop takes REF_SECONDS."""
        return (
            wall * REF_SECONDS * self.count / self.wall,
            cpu * REF_SECONDS * self.count / self.cpu,
        )


def run_pass(workload, loops=None):
    """Answer every command once; returns wall time, CPU time and outputs.

    With `loops`, reference loops run through the pass (see `Loops`) and
    are added to it; the times returned leave them out.
    """
    for cmd in workload.commands:
        if cmd.out_path and os.path.exists(cmd.out_path):
            os.remove(cmd.out_path)
    sampler = Loops()
    outputs = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if loops is not None:
        sampler.start()
    try:
        for cmd in workload.commands:
            try:
                outputs.append((True, cmd.run()))
            except Exception as exc:  # a command that raises counts as failed
                outputs.append((False, exc))
    finally:
        sampler.stop()
    wall = time.perf_counter() - t0 - sampler.wall
    cpu = cpu_seconds() - cpu0 - sampler.cpu
    if loops is not None:
        loops.add(sampler)
    return wall, cpu, outputs


def log(message):
    print(message, file=sys.stderr, flush=True)


def judge(workload, outputs):
    """Check every output; returns the number of failed commands.

    A command fails when it raises or when its output fails its check.
    """
    failed = 0
    for cmd, (ok, out) in zip(workload.commands, outputs):
        if not ok:
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                problems = cmd.check(out)
            except Exception as exc:  # an unreadable output fails its check
                problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            for p in problems:
                log(f"{cmd.label}: {p}")
    return failed


def run_rounds(workload, seconds, min_rounds, tracer=None, between=None):
    """One untimed warm-up pass, then rounds of timed passes.

    A round is one pass, or with a tracer an untraced and a traced pass,
    followed by `between()` if given.  Rounds repeat while the next one is
    expected to end within `seconds`, and at least `min_rounds` times.
    Untraced passes run with reference loops, traced ones without, so that
    the loops do not show in the spans.  Returns the rounds as lists of
    (wall, cpu, loops, spans), the counts of attempted and failed timed
    commands, the number of failed warm-up commands, and the reference
    loops of all timed passes.  Raises CrossCallCache when the median
    untraced pass at reference speed is below CACHE_GUARD times the
    warm-up pass.
    """
    warmup = Loops()
    wall, cpu, outputs = run_pass(workload, warmup)
    warmup_wall = warmup.rescale(wall, cpu)[0]
    warmup_failed = judge(workload, outputs)
    rounds = []
    all_loops = Loops()
    durations = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(rounds) < min_rounds or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        passes = []
        for traced in (False, True) if tracer else (False,):
            loops = None if traced else Loops()
            if traced:
                tracer.install()
            try:
                wall, cpu, outputs = run_pass(workload, loops)
            finally:
                if traced:
                    tracer.uninstall()
            if loops is not None:
                all_loops.add(loops)
            attempted += len(workload.commands)
            failed += judge(workload, outputs)
            passes.append((wall, cpu, loops, tracer.take() if traced else None))
        rounds.append(passes)
        if between:
            between()
        durations.append(time.perf_counter() - t0)
    median = statistics.median(r[0][2].rescale(*r[0][:2])[0] for r in rounds)
    if median < CACHE_GUARD * warmup_wall:
        raise CrossCallCache(
            f"median timed pass {median:.4g} s is below {CACHE_GUARD:.3g} of the"
            f" warm-up pass {warmup_wall:.4g} s: a later pass reused work of an"
            " earlier one, which a fresh reebtop command could not"
        )
    return rounds, attempted, failed, warmup_failed, all_loops


def measure(workload, seconds, between=None):
    """The untraced run: end-to-end metrics of the workload."""
    rounds, attempted, failed, warmup_failed, all_loops = run_rounds(
        workload, seconds, MIN_PASSES, between=between
    )
    raws = [r[0][0] for r in rounds]
    walls, cpus = zip(*(loops.rescale(wall, cpu) for (wall, cpu, loops, _), in rounds))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "correct": failed == 0 and warmup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(rounds),
        "commands": len(workload.commands),
        "pass_s_each": list(walls),
        "raw_pass_s_each": raws,
        "raw_pass_s": statistics.median(raws),
        "ref_loop_s": all_loops.mean_wall(),
        "metrics": {
            "pass_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        },
    }


def measure_traced(workload, seconds, trace_out=None):
    """The traced run: per-layer metrics and the tracing overhead."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics, span_table

    rounds, attempted, failed, warmup_failed, _ = run_rounds(
        workload, seconds, MIN_PAIRS, Tracer()
    )
    plain = [r[0][0] for r in rounds]
    traced = [r[1][0] for r in rounds]
    # per-layer numbers of the traced pass with the median wall time
    middle = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    spans = rounds[middle][1][3]
    values = layer_metrics(spans)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _, _) in LAYER_METRICS.items()
    }
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain),
        "unit": "s",
    }
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": workload.name,
                    "seed": workload.seed,
                    "untraced_pass_s": plain,
                    "traced_pass_s": traced,
                    "median_traced_pass": middle,
                    "spans": span_table(spans),
                },
                fh,
                indent=1,
            )
    return {
        "correct": failed == 0 and warmup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(rounds),
        "commands": len(workload.commands),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if sys.flags.optimize:
        raise SystemExit("the workload must not run under -O: the program checks with assert")

    if reference.reference() != reference.CHECKSUM:
        raise SystemExit("the reference loop does not give its checksum")
    rt = import_program()
    from workloads import WORKLOADS

    inputs_root = ROOT / ".perfbench_tmp"
    inputs_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=inputs_root)
    try:
        workload = WORKLOADS[args.workload](rt, tmp, args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(workload, args.seconds, args.trace_out)
        else:
            setups = []

            def between():
                setups.extend(
                    sample_setup(args.workload, args.seed) for _ in range(SETUPS_PER_PASS)
                )

            result = measure(workload, args.seconds, between)
            # at reference speed, by the loops of the passes the samples sat between
            result["setup_samples"] = [
                s * REF_SECONDS / result["ref_loop_s"] for s in setups
            ]
    except CrossCallCache as exc:
        log(f"{args.workload}: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
