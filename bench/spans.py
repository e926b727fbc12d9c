"""Span recording around herdsim's layer functions, from outside the package.

`instrument(recorder)` replaces each function named in TIMED and COUNTED at
every `herdsim.*` module attribute (and class attribute, for methods) bound to
that function object, and puts the originals back on exit.  Module-level
names are looked up at call time, so calls between herdsim's own modules go
through the wrappers too.

TIMED functions record a span: name, start, end, parent span and run id.
COUNTED functions are too small and too frequent to time; they record a call
count keyed by the calling span's name.  Spans are kept in compact arrays in
memory and written out once, at the end (`Recorder.save`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

TIMED = (
    "sim.run", "sim.compute_commands", "sim.apply_commands", "sim.safety_snapshot",
    "sim.build_context", "sim.SimTrace.to_csv",
    "environment.load_scenario", "environment.scenario_from_dict",
    "environment.validate_scenario",
    "formation_field.combined_field", "formation_field.singularity_sweep",
    "formation_field.SweepReport.to_csv",
    "herding.obstacle_resultant", "herding.formation_goals",
    "attacker.attacker_field", "attacker.attacker_step",
    "defender_control.defender_field", "defender_control.defender_velocity",
    "defender_control.solve_tracking_gains",
    "svg.trajectory_svg", "svg.ratio_curves_svg", "svg.sweep_heatmap_svg",
    "cli.cmd_check", "cli.cmd_simulate", "cli.cmd_sweep",
)
COUNTED = ("environment.superelliptic_distance", "geom.blend_weight")

# Results counted as a "hit" (useful weight, conflict) per function.
HITS = {
    "geom.blend_weight": lambda w: w != 0.0,
    "defender_control.defender_field": lambda result: result[1],
}


class Recorder:
    """In-memory spans and call counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self._stack_names: list[str] = []
        self.calls: Counter = Counter()   # (function, calling span) -> calls
        self.hits: Counter = Counter()    # (function, calling span) -> hits

    def begin_run(self) -> None:
        """Start a new run id; spans recorded from now on carry it."""
        self.run_id += 1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        nid = self._name_id(name)
        hit = HITS.get(name)
        stack, names = self._stack, self._stack_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            caller = names[-1] if names else ""
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(i)
            names.append(name)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                names.pop()
            if hit is not None and hit(result):
                self.hits[name, caller] += 1
            return result
        return wrapper

    def counted(self, name: str, fn):
        hit = HITS.get(name)
        calls, hits, names = self.calls, self.hits, self._stack_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = (name, names[-1] if names else "")
            calls[key] += 1
            if hit is not None and hit(result):
                hits[key] += 1
            return result
        return wrapper

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "run": np.frombuffer(self.run, dtype=np.int32).copy()}

    def save(self, path) -> None:
        """Write every span, the name table and the call counts to one .npz."""
        counts = sorted((f, c, n, self.hits[f, c]) for (f, c), n in self.calls.items())
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            counts=np.array([f"{f}|{c}|{n}|{h}" for f, c, n, h in counts]))


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (calls are synchronous), so the children of a span
    cover disjoint parts of its interval.
    """
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    return dur - child


def _resolve(qualname: str):
    """(owner, attribute, function object) for 'module.func' or
    'module.Class.method' inside herdsim."""
    parts = qualname.split(".")
    owner = importlib.import_module("herdsim." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    importlib.import_module("herdsim")
    patched = []
    try:
        for qualname, make in ([(q, recorder.timed) for q in TIMED]
                               + [(q, recorder.counted) for q in COUNTED]):
            owner, attr, original = _resolve(qualname)
            wrapper = make(qualname, original)
            if isinstance(owner, type):
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "herdsim" or name.startswith("herdsim.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, original))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
