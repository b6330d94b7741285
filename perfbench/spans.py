"""Outside-in span recorder for the traced benchmark run.

The recorder replaces selected cgtc functions with timing wrappers, at
every module that holds a reference to them, so that calls between
modules are seen without changing the program. Each call becomes one
span: name id, call site id, start, end, parent span and job id. Spans
stay in memory in flat arrays until the run ends; self time is a span's
duration minus the durations of its direct children (one thread, so the
children never overlap).

Wrappers are installed only in the traced run; the untraced run calls the
program as it is.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

# (defining module, attribute). "Class.method" wraps a method on its class.
TARGETS = (
    ("ship", "step"),
    ("cells", "_roll_until_crossing"),
    ("cells", "generate_cell"),
    ("cells", "build_cell_set"),
    ("cells", "transform_cell"),
    ("relation", "invert_relation"),
    ("relation", "fit_poly"),
    ("static_planner", "plan_static"),
    ("static_planner", "decide_heading"),
    ("static_planner", "clearance"),
    ("static_planner", "Obstacle.position_at"),
    ("dynamic_planner", "plan_dynamic"),
    ("dynamic_planner", "classify_encounter"),
    ("dynamic_planner", "virtual_obstacle_radius"),
    ("dynamic_planner", "separation_at_critical"),
    ("baseline", "astar_grid_path"),
    ("baseline", "grid_baseline_plan"),
    ("scenario", "load_scenario"),
    ("harness", "run_scenario"),
    ("harness", "compare_planners"),
    ("cli", "main"),
)


class Recorder:
    """Span store plus the wrappers it installed (undone by uninstall)."""

    def __init__(self):
        self.names: list[str] = []   # "<defining module>.<function>"
        self.sites: list[str] = []   # module whose namespace the call went through
        self._name_ids: dict[str, int] = {}
        self._site_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.site_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_job = -1
        self.build_keys: list = []   # (params, radius, resolution, max change, dt)
        self.cell_sets: dict = {}    # key -> CellSet returned by build_cell_set
        self.missing: list[str] = []
        self._undo: list = []

    @staticmethod
    def _intern(table: list[str], ids: dict[str, int], value: str) -> int:
        if value not in ids:
            ids[value] = len(table)
            table.append(value)
        return ids[value]

    def span(self, name: str, site: str, fn, args=(), kwargs=None):
        """Run fn as one span (used for the benchmark's own job spans)."""
        return self._wrap(fn, name, site)(*args, **(kwargs or {}))

    def _wrap(self, fn, name: str, site: str, on_result=None):
        nid = self._intern(self.names, self._name_ids, name)
        sid = self._intern(self.sites, self._site_ids, site)
        name_id, site_id, parent, job = self.name_id, self.site_id, self.parent, self.job
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            site_id.append(sid)
            parent.append(stack[-1])
            job.append(rec.current_job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _on_build(self, fn):
        sig = inspect.signature(fn)

        def record(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())
            self.build_keys.append(key)
            self.cell_sets.setdefault(key, result)
        return record

    def install(self, package) -> None:
        """Wrap every target at every cgtc module that references it."""
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
        for mod_name, attr in TARGETS:
            home = modules.get(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None) if home else None
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapped = self._wrap(fn, f"{mod_name}.{meth}", mod_name)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, fn))
                continue
            fn = getattr(home, attr, None) if home else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            on_result = self._on_build(fn) if attr == "build_cell_set" else None
            for site, mod in modules.items():
                if mod.__dict__.get(attr) is fn:
                    setattr(mod, attr, self._wrap(fn, f"{mod_name}.{attr}", site, on_result))
                    self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # --- results -----------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        sites = np.frombuffer(self.site_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, sites, dur, dur - child

    def summary(self) -> dict:
        """Per (name, site): calls, inclusive ms and self ms."""
        names, sites, dur, self_t = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel_n = names == nid
            for sid in np.unique(sites[sel_n]):
                sel = sel_n & (sites == sid)
                out[(name, self.sites[sid])] = {
                    "calls": int(sel.sum()),
                    "ms": float(dur[sel].sum() * 1e3),
                    "self_ms": float(self_t[sel].sum() * 1e3),
                }
        return out

    def write(self, path: Path) -> None:
        """Write every span as flat arrays (name/site tables index them)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), sites=np.array(self.sites),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 site_id=np.frombuffer(self.site_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start_s=np.frombuffer(self.start, dtype=np.float64),
                 end_s=np.frombuffer(self.end, dtype=np.float64))
