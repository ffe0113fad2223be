"""Spans and exact counters recorded from outside the program.

The tracer wraps functions by name. A module that did `from .elliptic import
solve_signals` holds its own reference, so each wrapper replaces the original
object wherever an `attrep` module binds it; nothing under `src/` changes.
`scipy.fft.dctn` and `idctn` are wrapped before `attrep` is imported, so the
transform count does not depend on how `attrep` reaches them.

A span is (name, start_ns, end_ns, parent). `parent` is the index of the
enclosing span in the same list, or `"<pid>:<index>"` for the root span of a
sweep worker, whose parent lives in the process that forked it. Spans stay in
memory; a sweep worker writes its spans to a file before it returns its row,
and the child process merges those files after the timed call.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute) pairs that get a span. Names a later refactor removes
# are skipped and listed under "missing" in the trace.
SPAN_TARGETS = [
    ("attrep.config", "load_config"),
    ("attrep.config", "from_dict"),
    ("attrep.model", "build_initial_data"),
    ("attrep.model", "classify_regime"),
    ("attrep.grid", "write_field_csv"),
    ("attrep.elliptic", "solve_signals"),
    ("attrep.elliptic", "chemical_sources"),
    ("attrep.elliptic", "solve_helmholtz"),
    ("attrep.elliptic", "implicit_diffusion_step"),
    ("attrep.stepper", "initial_state"),
    ("attrep.stepper", "run"),
    ("attrep.stepper", "step"),
    ("attrep.stepper", "stable_dt"),
    ("attrep.stepper", "face_fluxes"),
    ("attrep.diagnostics", "sample"),
    ("attrep.diagnostics", "write_diagnostics_csv"),
    ("attrep.diagnostics", "check_energy_inequality"),
    ("attrep.diagnostics", "check_absorptive_bound"),
    ("attrep.bounds", "compute_bounds"),
    ("attrep.bounds", "estimate_gn_constant"),
    ("attrep.bounds", "estimate_ehrling_constant"),
    ("attrep.bounds", "_test_family"),
    ("attrep.cli", "main"),
    ("attrep.cli", "cmd_simulate"),
    ("attrep.cli", "cmd_sweep"),
    ("attrep.cli", "_sweep_point"),
]

# (module, attribute, counter) triples that only count calls: they run many
# times per step and are too small to time without distorting the step.
COUNT_TARGETS = [
    ("attrep.grid", "require_finite", "grid.require_finite"),
]

RUN_SPAN = "stepper.run"
WORKER_SPAN = "cli._sweep_point"
BYTES_COUNTER = "grid.write_field_csv.bytes"
TRANSFORM_COUNTER = "elliptic.transforms"
FIELD_COUNTER = "grid.Field"


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.on = False
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        # Counter deltas over each stepper.run span, so per-step ratios
        # exclude the set-up and output work around the run.
        self.run_counts: list = []
        self.worker_parent = None
        self.missing: list = []
        self.spills = 0
        # Index of spans[0] among all spans of this process; a worker resets
        # the list after each spill but keeps its span ids unique.
        self.base = 0

    def count(self, name: str, n: int = 1) -> None:
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n

    def _enter_worker(self) -> None:
        """First call in a forked sweep worker: drop the spans inherited from
        the parent and remember the span that was open at fork time."""
        parent_top = self.stack[-1] if self.stack else None
        self.worker_parent = None if parent_top is None else f"{self.pid}:{parent_top}"
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = {}
        self.run_counts = []
        self.base = 0

    def spill(self) -> None:
        """Write this worker's spans out and start a fresh list."""
        path = os.path.join(self.spill_dir, f"spans-{self.pid}-{self.spills}.json")
        self.spills += 1
        with open(path, "w") as fh:
            json.dump(self.export(), fh)
        self.base += len(self.spans)
        self.spans = []
        self.counts = {}
        self.run_counts = []

    def export(self) -> dict:
        return {
            "pid": self.pid,
            "base": self.base,
            "spans": self.spans,
            "counts": self.counts,
            "run_counts": self.run_counts,
            "missing": self.missing,
        }

    def wrap(self, name: str, fn):
        tracer = self
        is_run = name == RUN_SPAN
        is_worker = name == WORKER_SPAN
        is_write = name == "grid.write_field_csv"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if is_worker and os.getpid() != tracer.pid:
                tracer._enter_worker()
            stack = tracer.stack
            parent = stack[-1] if stack else tracer.worker_parent
            index = tracer.base + len(tracer.spans)
            record = [name, clock(), 0, parent]
            tracer.spans.append(record)
            stack.append(index)
            before = dict(tracer.counts) if is_run else None
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if is_run:
                    tracer.run_counts.append(
                        {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
                    )
                if is_worker and not stack:
                    tracer.spill()
            if is_write:
                path = args[1] if len(args) > 1 else kwargs["path"]
                tracer.count(BYTES_COUNTER, os.path.getsize(path))
            return out

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install_transforms(self) -> None:
        """Count every 2D cosine transform; must run before `import attrep`."""
        import scipy.fft

        if "attrep" in sys.modules:
            raise RuntimeError("install_transforms must run before attrep is imported")
        for attr in ("dctn", "idctn"):
            setattr(scipy.fft, attr, self.counter(TRANSFORM_COUNTER, getattr(scipy.fft, attr)))

    def install_attrep(self) -> None:
        """Wrap the layer functions wherever an attrep module binds them."""
        for module in sorted({m for m, _ in SPAN_TARGETS}):
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                pass
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "attrep"]

        def rebind(original, replacement) -> None:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)

        for module, attr in SPAN_TARGETS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            rebind(original, self.wrap(span_name(module, attr), original))
        for module, attr, counter_name in COUNT_TARGETS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            rebind(original, self.counter(counter_name, original))

        field_cls = getattr(sys.modules.get("attrep.grid"), "Field", None)
        if field_cls is None:
            self.missing.append("attrep.grid.Field")
            return
        post_init = field_cls.__post_init__
        tracer = self

        def counted_post_init(field_self):
            tracer.count(FIELD_COUNTER)
            post_init(field_self)

        field_cls.__post_init__ = counted_post_init


def merge(parent: dict, workers: list) -> dict:
    """One trace from the child's own export and its sweep workers' spills.

    Every span gets a global id "<pid>:<index>"; counts add up.
    """
    spans = []
    counts: dict = {}
    run_counts = []
    for part in [parent] + workers:
        pid = part["pid"]
        for index, (name, start, end, par) in enumerate(part["spans"], start=part["base"]):
            if isinstance(par, int):
                par = f"{pid}:{par}"
            spans.append({"id": f"{pid}:{index}", "name": name, "start": start, "end": end, "parent": par})
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
        run_counts.extend(part["run_counts"])
    return {"spans": spans, "counts": counts, "run_counts": run_counts, "missing": parent["missing"]}


def self_times(spans: list) -> dict:
    """Self time (ns) of each span: its duration minus that of its children in
    the same process. A sweep worker's root span runs beside its parent, not
    inside its time, so it is not subtracted."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        par = s["parent"]
        if par is not None and par in own and par.split(":")[0] == s["id"].split(":")[0]:
            own[par] -= s["end"] - s["start"]
    return own
