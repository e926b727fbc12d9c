"""herdsim benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload reference|cluttered --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package under test is the `src/` tree next to this
directory, imported in-process and run as `python -m herdsim` children.
Work files go to `.bench_out/` at the repository root.  Load comes from this
one process, serially: no pool, no threads.

A run repeats rounds, step by step, while the next step at its mean length
would end within S seconds (at least MIN_ROUNDS whole rounds).  With
--trace 0 a round times, tracing off, these steps in this order, with a
host-speed calibration (calibrate.py) after each:

    check      one `herdsim check` child
    set-up     load_scenario + validate_scenario + build_context, in-process
    simulate   one `herdsim simulate` child (SVG on, the default)
    sweep      one `herdsim sweep --obstacle 0` child
    run        in-process run() of the workload's world

Each time is scaled by the two calibrations around it to the host speed
calibrate.REF_S stands for, and each end-to-end metric is the median of its
scaled samples (see README.md, "Noise").  This process and all its children
run on one CPU.  Children are spawned by launcher.py, which reports their
peak RSS.

With --trace 1 a round runs the in-process part untraced, then the same
work plus `check`, `simulate` and the six sweeps through `cli.main` with
every layer function wrapped (see spans.py), and reports the per-layer
metrics.

Every output is checked (exit codes, trace hashes, sweep verdicts); a
mismatch counts as a failed operation and makes the exit code 1.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))    # before main() pins the process to one CPU

# sha256 of the bundled scenario's trace.csv; the cluttered world must match it.
GOLDEN_TRACE_SHA256 = "fb2507b0a5192badb68e321148f3ac080a3bf8be92c1a1695baa7edba68d81a4"
WORKLOADS = ("reference", "cluttered")
SWEEP_OBSTACLES = range(6)
TIMED_SWEEP = 0
MIN_ROUNDS = 2
SETUP_REPS = {"reference": 5, "cluttered": 1}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"), "check_s": ("s", "lower"),
    "simulate_s": ("s", "lower"), "sweep_s": ("s", "lower"),
    "steps_per_s": ("steps/s", "higher"), "starts_per_s": ("starts/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# Per-layer metric -> unit.  The name is <module>.<function>.<kind>[.<caller>].
PER_LAYER = {
    "sim.run.self_us_per_step": "us",
    "sim.compute_commands.self_us_per_step": "us",
    "sim.apply_commands.us_per_step": "us",
    "sim.safety_snapshot.us_per_step": "us",
    "environment.superelliptic_distance.calls_per_step": "calls/step",
    "environment.superelliptic_distance.calls_per_step.snapshot": "calls/step",
    "environment.superelliptic_distance.calls_per_step.combined_field": "calls/step",
    "environment.superelliptic_distance.calls_per_step.defender_field": "calls/step",
    "geom.blend_weight.calls_per_step": "calls/step",
    "geom.blend_weight.nonzero_ratio": "ratio",
    "formation_field.combined_field.us_per_call": "us",
    "formation_field.combined_field.calls_per_step": "calls/step",
    "herding.obstacle_resultant.us_per_call": "us",
    "herding.formation_goals.us_per_call": "us",
    "attacker.attacker_field.us_per_call": "us",
    "attacker.attacker_step.us_per_call": "us",
    "defender_control.defender_field.us_per_call": "us",
    "defender_control.defender_field.calls_per_step": "calls/step",
    "defender_control.defender_field.conflict_ratio": "ratio",
    "defender_control.defender_velocity.us_per_call": "us",
    "environment.validate_scenario.s": "s",
    "environment.load_scenario.s": "s",
    "environment.scenario_from_dict.s": "s",
    "defender_control.solve_tracking_gains.s": "s",
    "sim.build_context.s": "s",
    "sim.SimTrace.to_csv.s": "s",
    "svg.trajectory_svg.s": "s",
    "svg.ratio_curves_svg.s": "s",
    "cli.cmd_simulate.self_s": "s",
    "formation_field.singularity_sweep.s": "s",
    "formation_field.SweepReport.to_csv.s": "s",
    "svg.sweep_heatmap_svg.s": "s",
    "cli.cmd_sweep.self_s": "s",
    "cli.cmd_check.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Spans that run once or more per simulated step; counted calls made from
# them are the per-step calls.
STEP_SPANS = {
    "sim.run", "sim.compute_commands", "sim.apply_commands", "sim.safety_snapshot",
    "formation_field.combined_field", "herding.obstacle_resultant",
    "herding.formation_goals", "attacker.attacker_field", "attacker.attacker_step",
    "defender_control.defender_field", "defender_control.defender_velocity",
}
CALLER_ALIASES = {"snapshot": "sim.safety_snapshot",
                  "combined_field": "formation_field.combined_field",
                  "defender_field": "defender_control.defender_field"}


class Failures:
    """Operations attempted and failed; every failure is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", flush=True)
        return ok


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def machine_record(args) -> dict:
    import numpy
    import herdsim

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "herdsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {"nproc": NPROC, "cpu_model": cpu, "pinned_cpu": min(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "herdsim": herdsim.__version__, "git_commit": commit,
            "source_sha256": source.hexdigest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


class Launcher:
    """The small process (launcher.py) that spawns and times every child."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def run(self, argv, cwd: Path) -> dict:
        """Run one child to completion: {"wall_s", "code", "rss_mb", "output"}."""
        out = cwd / "child.out"
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd),
                                          "out": str(out)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        reply["output"] = out.read_text(errors="replace")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def in_process_cli(argv) -> tuple[int, str]:
    """cli.main in this process, its standard output and error captured."""
    from herdsim import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """One workload's inputs, expected outputs and the operations of a round."""

    def __init__(self, name: str, seed: int, work: Path, fail: Failures,
                 launcher: Launcher):
        from herdsim import load_scenario, reference_scenario_path, run, validate_scenario

        self.name, self.work, self.fail, self.launcher = name, work, fail, launcher
        self.samples = {k: [] for k in END_TO_END}    # scaled to the host speed
        self.raw = {k: [] for k in END_TO_END}        # as measured
        self.host = []                                # bracketing calibrations
        if name == "reference":
            self.world = reference_scenario_path()
            self.scenario_args = []
        else:
            self.world = work / "world.json"
            self.world.write_text(json.dumps(workloads.cluttered_doc(seed), indent=1))
            self.scenario_args = ["--scenario", str(self.world)]
        cfg, _ = load_scenario(self.world)
        self.violations = validate_scenario(cfg)
        fail.check(not self.violations, f"{name}: world rejected: {self.violations}")
        self.cfg = cfg
        self.rows = None
        # warm-up, untimed: a short run, and one child to warm the file cache
        run(cfg, t_max=5.0)
        child = self.cli("--version")
        fail.check(child["code"] == 0, f"{name}: --version exited {child['code']}")
        self.cal = self.calibrate()

    # -- checks -----------------------------------------------------------

    def check_check(self, code: int, output: str, how: str) -> None:
        self.fail.check(code == 0 and "scenario is clean" in output,
                        f"{self.name}: {how} check exited {code}: {output[-300:]}")

    def check_rows(self, trace, how: str) -> None:
        """The first in-process trace must serialize to the golden trace.csv;
        every later one must hold the same rows."""
        if self.rows is None:
            self.rows = trace.rows
            got = sha256(trace.to_csv())
            self.fail.check(got == GOLDEN_TRACE_SHA256,
                            f"{self.name}: {how} in-process trace.csv sha256 {got}")
        else:
            self.fail.check(trace.rows == self.rows, f"{self.name}: {how} run differs")

    def check_simulate(self, code: int, out_dir: Path, output: str, how: str) -> None:
        trace = out_dir / "trace.csv"
        got = sha256(trace.read_bytes()) if trace.is_file() else None
        self.fail.check(code == 0 and got == GOLDEN_TRACE_SHA256
                        and (out_dir / "summary.json").is_file()
                        and (out_dir / "ratios.svg").is_file(),
                        f"{self.name}: {how} simulate exited {code}, trace.csv "
                        f"sha256 {got}: {output[-300:]}")

    def check_sweep(self, i: int, code: int, output: str, how: str) -> None:
        self.fail.check(code == 0 and "-> pass" in output,
                        f"{self.name}: {how} sweep --obstacle {i} exited {code}: "
                        f"{output[-300:]}")

    # -- timed round (tracing off) ----------------------------------------

    def steps(self) -> list:
        """The timed steps of a round, in order; each ends with a calibration,
        and its time is scaled by the calibrations on either side of it."""
        return [self.cli_check, self.setup_step, self.cli_simulate, self.cli_sweep,
                self.run_step]

    def setup_step(self) -> None:
        setups = self.setups()
        scale = self.scale()
        self.add("setup_s", setups, scale)
        self.last_setup = (statistics.median(setups), scale)

    def run_step(self) -> None:
        run_s = self.world_run("timed")
        scale = self.scale()
        self.add("steps_per_s", [(len(self.rows) - 1) / run_s], 1.0 / scale)
        setup_s, setup_scale = self.last_setup
        self.samples["starts_per_s"].append(1.0 / (setup_s * setup_scale + run_s * scale))
        self.raw["starts_per_s"].append(1.0 / (setup_s + run_s))

    def scale(self) -> float:
        """Calibrate; returns REF_S over the mean of this calibration and the
        previous one, which bracket the operation just timed."""
        cal = self.calibrate()
        mean = (self.cal + cal) / 2.0
        self.cal = cal
        self.host.append(mean)
        return calibrate.REF_S / mean

    def calibrate(self) -> float:
        return calibrate.calibrate(
            lambda: self.launcher.run([sys.executable, "-c", "pass"], self.work)["wall_s"])

    def add(self, name: str, values: list, scale: float) -> None:
        self.samples[name].extend(v * scale for v in values)
        self.raw[name].extend(values)

    def cli(self, *args) -> dict:
        return self.launcher.run([sys.executable, "-m", "herdsim", *args], self.work)

    def cli_check(self) -> None:
        child = self.cli("check", *self.scenario_args)
        self.check_check(child["code"], child["output"], "CLI")
        self.add("check_s", [child["wall_s"]], self.scale())

    def cli_simulate(self) -> None:
        out_dir = self.work / "sim"
        shutil.rmtree(out_dir, ignore_errors=True)
        child = self.cli("simulate", *self.scenario_args, "--out", str(out_dir))
        self.check_simulate(child["code"], out_dir, child["output"], "CLI")
        self.add("simulate_s", [child["wall_s"]], self.scale())
        self.add("peak_rss_mb", [child["rss_mb"]], 1.0)

    def cli_sweep(self) -> None:
        child = self.cli("sweep", *self.scenario_args, "--obstacle", str(TIMED_SWEEP),
                         "--out", str(self.work / "sweep"))
        self.check_sweep(TIMED_SWEEP, child["code"], child["output"], "CLI")
        self.add("sweep_s", [child["wall_s"]], self.scale())

    def setups(self) -> list:
        """SETUP_REPS in-process set-ups of the world; returns their times."""
        from herdsim import build_context, load_scenario, validate_scenario

        setups = []
        for _ in range(SETUP_REPS[self.name]):
            t0 = time.perf_counter()
            cfg, _ = load_scenario(self.world)
            violations = validate_scenario(cfg)
            build_context(cfg)
            setups.append(time.perf_counter() - t0)
            self.fail.check(violations == self.violations,
                            f"{self.name}: validation changed: {violations}")
        return setups

    def world_run(self, how: str) -> float:
        """One in-process run() of the world, checked; returns its time."""
        from herdsim import run

        gc.collect()
        t0 = time.perf_counter()
        trace = run(self.cfg)
        run_s = time.perf_counter() - t0
        self.check_rows(trace, how)
        return run_s

    def end_to_end(self) -> dict:
        """name -> (median, unit, n, unscaled median)."""
        return {name: (statistics.median(v), unit, len(v),
                       statistics.median(self.raw[name]))
                for name, (unit, _) in END_TO_END.items()
                if (v := self.samples[name])}

    # -- traced round -------------------------------------------------------

    def traced_round(self, rec, run_times: dict) -> None:
        """An untraced in-process run, then the same run and the CLI steps
        traced; adds the run() times of both to run_times."""
        import spans

        run_times["untraced"] += self.world_run("untraced")
        with spans.instrument(rec):
            rec.begin_run()
            run_times["traced"] += self.world_run("traced")
            rec.begin_run()
            code, output = in_process_cli(["check", *self.scenario_args])
            self.check_check(code, output, "traced")
            out_dir = self.work / "sim"
            shutil.rmtree(out_dir, ignore_errors=True)
            rec.begin_run()
            code, output = in_process_cli(["simulate", *self.scenario_args,
                                           "--out", str(out_dir)])
            self.check_simulate(code, out_dir, output, "traced")
            for i in SWEEP_OBSTACLES:
                rec.begin_run()
                code, output = in_process_cli(["sweep", *self.scenario_args,
                                               "--obstacle", str(i),
                                               "--out", str(self.work / "sweep")])
                self.check_sweep(i, code, output, "traced")


def _ratio(num, den) -> float:
    """num / den, or 0 for a layer the traced rounds never reached."""
    return float(num) / float(den) if den else 0.0


def layer_metrics(rec, run_times: dict) -> dict:
    """Per-layer metrics from the spans and counts of the traced rounds:
    name -> (value, unit, 1, value)."""
    import numpy as np
    import spans

    a = rec.arrays()
    dur = a["end"] - a["start"]
    own = spans.self_times(a["start"], a["end"], a["parent"])
    n_names = len(rec.names)
    calls = np.bincount(a["name_id"], minlength=n_names)
    total = np.bincount(a["name_id"], weights=dur, minlength=n_names)
    self_total = np.bincount(a["name_id"], weights=own, minlength=n_names)
    ids = {name: i for i, name in enumerate(rec.names)}
    steps = calls[ids["sim.apply_commands"]]

    def hits_and_calls(fn, callers):
        n = sum(c for (f, caller), c in rec.calls.items() if f == fn and caller in callers)
        h = sum(c for (f, caller), c in rec.hits.items() if f == fn and caller in callers)
        return h, n

    out = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_ratio":
            value = _ratio(run_times["traced"], run_times["untraced"])
        else:
            fn = next(f for f in spans.TIMED + spans.COUNTED if metric.startswith(f + "."))
            kind, _, caller = metric[len(fn) + 1:].partition(".")
            if fn in spans.COUNTED:
                h, n = hits_and_calls(fn, {CALLER_ALIASES[caller]} if caller else STEP_SPANS)
                value = _ratio(n, steps) if kind == "calls_per_step" else _ratio(h, n)
            else:
                i = ids[fn]
                if kind == "self_us_per_step":
                    value = 1e6 * _ratio(self_total[i], steps)
                elif kind == "us_per_step":
                    value = 1e6 * _ratio(total[i], steps)
                elif kind == "us_per_call":
                    value = 1e6 * _ratio(total[i], calls[i])
                elif kind == "calls_per_step":
                    value = _ratio(calls[i], steps)
                elif kind == "s":
                    value = _ratio(total[i], calls[i])
                elif kind == "self_s":
                    value = _ratio(self_total[i], calls[i])
                else:   # conflict_ratio
                    value = _ratio(sum(c for (f, _), c in rec.hits.items() if f == fn),
                                   calls[i])
        out[metric] = (value, unit, 1, value)
    return out


def report(metrics: dict) -> None:
    """One line per metric: reported value, unit, sample count, and the
    median as measured (before scaling to the host speed)."""
    print(f"{'metric':66s} {'value':>14s} {'unit':10s} {'n':>4s} {'unscaled':>12s}")
    for k, (v, unit, n, raw) in metrics.items():
        print(f"{k:66s} {v:14.6g} {unit:10s} {n:4d} {raw:12.6g}")


def measure(args, launcher: Launcher) -> int:
    """Set up the workload, run its rounds, report; returns the exit code."""
    sys.path.insert(0, str(SRC))
    import herdsim
    if Path(herdsim.__file__).resolve().parent != (SRC / "herdsim").resolve():
        print(f"error: imported herdsim from {herdsim.__file__}", file=sys.stderr)
        return 2
    import spans

    print(f"machine {json.dumps(machine_record(args), sort_keys=True)}", flush=True)
    fail = Failures()
    rec = spans.Recorder()
    run_times = {"traced": 0.0, "untraced": 0.0}
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        wl = Workload(args.workload, args.seed, Path(tmp), fail, launcher)
        if args.trace:
            steps, min_rounds = [lambda: wl.traced_round(rec, run_times)], 1
        else:
            steps, min_rounds = wl.steps(), MIN_ROUNDS
        spent = [[] for _ in steps]     # each step's durations
        start = time.perf_counter()
        done = 0
        while True:
            i = done % len(steps)
            elapsed = time.perf_counter() - start
            # stop when the next step, at its mean length, would end late
            if done >= min_rounds * len(steps) and \
                    elapsed + statistics.fmean(spent[i]) > args.seconds:
                break
            try:
                steps[i]()
            except Exception as exc:  # an exception is a failed operation
                fail.check(False, f"{args.workload}: step raised {exc!r}")
            spent[i].append(time.perf_counter() - start - elapsed)
            done += 1
        if not args.trace:
            (OUT / f"samples_{args.workload}.json").write_text(json.dumps(
                {"scaled": wl.samples, "unscaled": wl.raw, "calibration_s": wl.host}))

    error_rate = fail.failed / max(fail.attempted, 1)
    extra = {"error_rate": (error_rate, "ratio", fail.attempted, error_rate)}
    print(f"workload {args.workload} seed {args.seed}: {done} steps "
          f"({done / len(steps):.1f} rounds) in {elapsed:.1f} s, trace {args.trace}")
    if args.trace:
        metrics = layer_metrics(rec, run_times)
        spans_path = OUT / f"spans_{args.workload}.npz"
        rec.save(spans_path)
        print(f"spans written to {spans_path}")
    else:
        metrics = wl.end_to_end()
        if wl.host:
            print(f"host: calibration median {statistics.median(wl.host) * 1e3:.2f} ms "
                  f"(min {min(wl.host) * 1e3:.2f}, max {max(wl.host) * 1e3:.2f}; "
                  f"REF_S {calibrate.REF_S * 1e3:.2f} ms)")
    report({**metrics, **extra})
    print(json.dumps({"correct": fail.failed == 0, "attempted": fail.attempted,
                      "failed": fail.failed,
                      "metrics": {k: {"value": v[0], "unit": v[1]}
                                  for k, v in metrics.items()}}))
    return 0 if fail.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "herdsim" / "__init__.py").is_file():
        print(f"error: the herdsim sources are missing ({SRC / 'herdsim'})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # so that `finally` below stops the launcher when the run is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process and every child, so that the calibrations
    # measure the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # started before herdsim and numpy are imported, so that it stays small
    launcher = Launcher()
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


if __name__ == "__main__":
    sys.exit(main())
