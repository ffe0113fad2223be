"""One measured repeat in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON RESULT_JSON TRACE(0|1)

Times the set-up (from before `import attrep` to the end of `prepare`) and
the one timed call, reads the peak resident memory of this process and of its
reaped children (sweep workers), checks the outputs and writes everything to
RESULT_JSON. With TRACE=1 the layer functions are wrapped first and the
merged trace goes to RESULT_JSON's directory as trace.json.

Nothing here may import numpy before `started` is taken: that import is part
of the set-up being measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped
    children (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6


def main(argv) -> int:
    started = time.perf_counter()
    spec_path, result_path, trace = Path(argv[1]), Path(argv[2]), argv[3] == "1"
    work_dir = result_path.parent
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads(spec_path.read_text())
    result = {"trace": trace, "failures": []}
    tracer = None
    try:
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer(str(work_dir))
            tracer.install_transforms()
            tracer.install_attrep()
            tracer.on = True
        import attrep

        if not str(Path(attrep.__file__).resolve()).startswith(str(SRC.resolve())):
            raise ImportError(f"attrep imported from {attrep.__file__}, not from {SRC}")
        prepared = workloads.prepare(spec, work_dir)
        result["setup_s"] = time.perf_counter() - started
        t0 = time.perf_counter()
        outcome = workloads.call(spec, prepared)
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        result["peak_rss_mb"] = _peak_rss_mb()
        facts, failures = workloads.check(spec, prepared, outcome)
        result.update(facts)
        result["failures"] += failures
        import numpy
        import scipy

        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        if tracer is not None:
            import layers

            spills = sorted(work_dir.glob("spans-*.json"))
            merged = tracing.merge(tracer.export(), [json.loads(p.read_text()) for p in spills])
            for p in spills:
                p.unlink()
            (work_dir / "trace.json").write_text(json.dumps(merged))
            result["missing"] = merged["missing"]
            result["layers"] = layers.compute(merged, facts, spec["cells"])
    except Exception:  # any crash is a failed repeat, reported by the runner
        result["failures"].append(traceback.format_exc())
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
