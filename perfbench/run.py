#!/usr/bin/env python3
"""wernerlab benchmark: drives the library from outside, through
``wernerlab.cli.main(argv)`` with stdout captured in memory.

    python3 perfbench/run.py --workload {verify,curves,cli,teleport,all}
                             --seed N --seconds S --trace {0,1}

One workload per run.  With ``--trace 0`` the run reports the end-to-end
metrics from untraced passes, with timings scaled to a nominal host speed
(see ``reference_seconds``); with ``--trace 1`` it alternates untraced
passes with passes traced by ``spans.Tracer`` and reports the per-layer
metrics.  ``--workload all`` runs every workload, each in a
fresh interpreter, and prints every metric by name and unit.  The last line
of stdout is always one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and what each metric is
predicted to move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "curves", "cli", "teleport")
SETUP_IMPORTS = 9  # fresh interpreters timed for setup_s, after one untimed
SUBPROCESS_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import wernerlab.cli; sys.stdout.write(repr(time.perf_counter() - t))"
)


# Seconds the reference loop takes on the nominal machine that end-to-end
# timings are scaled to.  Any fixed value works: it only sets the scale.
REFERENCE_S = 0.2


def reference_seconds() -> float:
    """Time a fixed loop that runs no wernerlab code.

    The speed of a shared host changes in phases that last from seconds to
    minutes.  Timing this loop next to the workload measures that speed, so
    that timings can be scaled to the nominal machine: a change to wernerlab
    moves the scaled time, a change of phase does not.  The loop mixes the
    kinds of work the workloads do: argument parsing and other interpreter
    work, and small dense eigendecompositions.
    """
    import numpy as np

    matrix = np.cos(np.arange(24 * 24).reshape(24, 24))
    matrix = matrix + matrix.T
    start = time.perf_counter()
    for i in range(60):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d", "e"):
            p = sub.add_parser(name)
            for flag in ("--x", "--y", "--z"):
                p.add_argument(flag, type=float)
        parser.parse_args(["a", "--x", repr(i * 0.5), "--y=-2e-3"])
        for _ in range(20):
            np.linalg.eigh(matrix)
        sum(math.lgamma(k + 1.0) for k in range(400))
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup() -> list[float]:
    """Seconds to import wernerlab.cli, each in a fresh interpreter."""
    times = []
    for i in range(SETUP_IMPORTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing wernerlab.cli failed:\n{proc.stderr}")
        if i:  # the first import may compile bytecode
            times.append(float(proc.stdout))
    return times


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_metadata(args, passes: dict) -> dict:
    import numpy as np
    from wernerlab import verify

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "verify_max_workers": verify.max_workers(),
        "git_commit": git_commit(),
    }


class Runner:
    """Runs a workload's passes and gates their outputs."""

    def __init__(self, workload):
        from wernerlab import cli

        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.units = 0  # per pass, from the last gated pass

    def _call(self, argv) -> int | None:
        try:
            return self.cli.main(argv)  # looked up per call, so a traced run sees its wrapper
        except Exception:  # a crash is a failed op, not a crashed benchmark
            return None
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code if isinstance(exc.code, int) else 1

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in self.workload.warmup:
                self._call(argv)

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        """One timed pass; returns its wall seconds and per-call milliseconds."""
        ops = self.workload.ops
        out = io.StringIO()
        results, call_ms = [], []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with tracer if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                for op in ops:
                    begin = out.tell()
                    t0 = time.perf_counter()
                    rc = self._call(op.argv)
                    call_ms.append((time.perf_counter() - t0) * 1e3)
                    results.append((rc, begin, out.tell()))
                wall = time.perf_counter() - start
        text = out.getvalue()
        units = 0
        for op, (rc, begin, end) in zip(ops, results):
            self.attempted += 1
            stdout = text[begin:end]
            try:
                ok = rc is not None and op.gate(rc, stdout)
                units += op.count(stdout)
            except Exception:  # unparseable output fails the gate
                ok = False
            self.failed += not ok
        self.units = units
        return wall, call_ms

    def run_for(self, budget_s: float, kinds=(None,)):
        """Rounds of one pass per kind (None for untraced, else a tracer
        factory) until the next round would overrun the budget; at least one.

        Returns the wall seconds of each kind's passes, the per-call
        milliseconds of each untraced pass, the traced passes' tracers, and
        each round's host speed: the reference loop's seconds before and
        after the round, over REFERENCE_S.
        """
        walls = [[] for _ in kinds]
        call_ms, tracers, speeds = [], [], []
        start = time.perf_counter()
        reference = reference_seconds()
        while True:
            for kind_walls, make_tracer in zip(walls, kinds):
                tracer = make_tracer() if make_tracer else None
                wall, ms = self.run_pass(tracer)
                kind_walls.append(wall)
                if tracer is None:
                    call_ms.append(ms)
                else:
                    tracers.append(tracer)
            after = reference_seconds()
            speeds.append((reference + after) / 2 / REFERENCE_S)
            reference = after
            round_s = sum(statistics.median(w) for w in walls) + reference
            if time.perf_counter() - start + round_s > budget_s:
                return walls, call_ms, tracers, speeds


def end_to_end_metrics(setup, setup_speed, walls, call_ms, speeds) -> dict:
    """Timings scaled to the nominal machine by the host speed measured
    around them (see reference_seconds)."""
    walls = [w / speed for w, speed in zip(walls, speeds)]
    call_ms = [[ms / speed for ms in pass_ms] for pass_ms, speed in zip(call_ms, speeds)]
    # Every pass makes the same calls, so each call has one latency per
    # pass.  Its median over the passes drops the interference of other
    # processes on the machine; the percentiles then run over the calls.
    per_call = [statistics.median(samples) for samples in zip(*call_ms)]
    samples = len(per_call) * len(call_ms)
    return {
        "setup_s": (statistics.median(setup) / setup_speed, "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "call_ms_p50": (percentile(per_call, 50), "ms", samples),
        "call_ms_p99": (percentile(per_call, 99), "ms", samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def layer_metrics(untraced_walls, traced_walls, tracers) -> dict:
    import spans

    summaries = [t.summary() for t in tracers]
    out = {}
    for name, unit in spans.layer_metric_units().items():
        if name.endswith("self_s"):
            out[name] = (statistics.median(s[name] for s in summaries), unit, len(summaries))
        elif name in summaries[0]:  # counts repeat exactly from pass to pass
            out[name] = (summaries[0][name], unit, len(summaries))
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    out["traced_wall_s"] = (traced, "s", len(traced_walls))
    out["trace_overhead_frac"] = (traced / untraced - 1.0, "ratio", len(traced_walls))
    return out


def spec_names(trace_on: bool) -> list[str] | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace_on else "end_to_end"]]


def run_one(args) -> int:
    if not args.trace:
        before = reference_seconds()
        setup = measure_setup()
        setup_speed = (before + reference_seconds()) / 2 / REFERENCE_S
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workload = workloads.build(args.workload, args.seed)
    runner = Runner(workload)
    runner.warm_up()
    if args.trace:
        # untraced and traced passes alternate, so drift in the machine's
        # speed affects both sides of trace_overhead_frac alike
        (untraced, traced), _, tracers, _ = runner.run_for(args.seconds, (None, spans.Tracer))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracers[0].write(out_dir / f"spans-{args.workload}.jsonl")
        metrics = layer_metrics(untraced, traced, tracers)
        passes = {"untraced": len(untraced), "traced": len(traced)}
    else:
        (walls,), call_ms, _, speeds = runner.run_for(args.seconds)
        metrics = end_to_end_metrics(setup, setup_speed, walls, call_ms, speeds)
        passes = {"untraced": len(walls), "setup_interpreters": len(setup)}
        speed = {"setup": setup_speed, "passes": speeds}
        raw = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls)}

    expected = spec_names(bool(args.trace))
    if expected is not None and sorted(expected) != sorted(metrics):
        sys.stderr.write(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}\n"
        )
        return 3

    print(f"# workload {args.workload}: {len(workload.ops)} ops per pass, "
          f"{runner.units} {workload.unit} per pass")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<52} {value:>14.6g} {unit:<6} n={samples}")
    print(f"{'failed_frac':<52} {runner.failed / runner.attempted:>14.6g} {'ratio':<6} "
          f"n={runner.attempted}")
    meta = run_metadata(args, passes)
    if not args.trace:
        meta["host_speed"] = speed
        meta["unscaled"] = raw
    meta["ops_per_pass"] = len(workload.ops)
    meta[workload.unit.replace(" ", "_") + "_per_pass"] = runner.units
    print("meta " + json.dumps(meta))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    modes = (0, 1) if args.trace else (0,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for mode in modes:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print(f"== {name} (trace {mode}, exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                status = 1
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            status = max(status, proc.returncode)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wernerlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no wernerlab sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
