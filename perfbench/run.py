"""attrep benchmark: time to solution, set-up and memory, with a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds `src/attrep`. Each measured
repeat is a fresh interpreter (perfbench/child.py) that imports attrep, sets
up, makes the workload's one timed call (`attrep.run` or `attrep.cli.main`)
and checks the outputs. Repeats run until --seconds is used up (at least
MIN_REPEATS); the end-to-end metrics are medians over the repeats.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced repeats and reports the per-layer metrics,
including the tracing overhead (traced over untraced wall time, minus 1).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it print each metric by name with its unit, the
failed fraction and the provenance of the result. Repeat results, spans and
the trace go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPEATS = 3
# Per-child time limit, and the latest start of a new child, so one run
# always ends within 180 s whatever --seconds asks for.
CHILD_TIMEOUT_S = 90.0
LAST_START_S = 75.0


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def provenance(cells: int, versions: dict) -> dict:
    """Machine, software and computed traffic figures for one result."""
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    n2 = cells * cells
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches_per_core": caches,
        "python": sys.version.split()[0],
        **versions,
        "git_commit": commit,
        "computed_bytes_per_call": {
            "note": "computed from array sizes at this grid, float64; ignores cache misses",
            "grid": f"{cells}x{cells}",
            # u and phi read once, fx and fy written once.
            "face_fluxes_compulsory": 32 * n2,
            # Each numpy pass in face_fluxes reads its operands and writes its
            # result: 22.25 array passes per direction (the bool mask is 1/8).
            "face_fluxes_numpy_passes": int(2 * 22.25 * 8 * n2),
            # One 2D DCT-II: input read and output written once ...
            "dct2d_compulsory": 16 * n2,
            # ... or once per axis pass of the separable transform.
            "dct2d_per_axis_pass": 32 * n2,
        },
    }


def run_child(spec_path: Path, work_dir: Path, trace: bool) -> dict:
    """One fresh-interpreter repeat; a crash or time-out is a failed repeat."""
    work_dir.mkdir(parents=True)
    result_path = work_dir / "result.json"
    env = dict(os.environ)
    env.pop("SIM_WORKERS", None)  # the sweep's worker count comes from its config
    with open(work_dir / "stdout.txt", "w") as out, open(work_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), "1" if trace else "0"],
            cwd=work_dir,
            stdout=out,
            stderr=err,
            env=env,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"trace": trace, "failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if not result_path.exists():
        return {"trace": trace, "failures": [f"exit code {proc.returncode}: {_read(work_dir / 'stderr.txt')}"]}
    result = json.loads(result_path.read_text())
    if proc.returncode != 0:
        result["failures"].append(f"child exit code {proc.returncode}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPEC_MAKERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "attrep" / "__init__.py").is_file():
        print(f"error: no attrep sources at {ROOT / 'src' / 'attrep'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    spec = workloads.make_spec(args.workload, args.seed)
    base = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    traced = bool(args.trace)
    repeats: list = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        # With --trace 1 repeats come in (untraced, traced) pairs.
        need = MIN_REPEATS * (2 if traced else 1)
        pair_open = traced and len(repeats) % 2 == 1
        if elapsed + longest > LAST_START_S and len(repeats) >= 2:
            break
        if len(repeats) >= need and not pair_open and elapsed + longest > args.seconds:
            break
        t0 = time.perf_counter()
        mode = traced and len(repeats) % 2 == 1
        work_dir = base / f"repeat-{len(repeats):03d}"
        result = run_child(spec_path, work_dir, mode)
        longest = max(longest, time.perf_counter() - t0)
        if mode and (work_dir / "trace.json").exists():
            shutil.move(str(work_dir / "trace.json"), str(base / "trace.json"))
        shutil.rmtree(work_dir, ignore_errors=True)
        repeats.append(result)

    # Every repeat of one seed must give the same outputs and exact counts.
    reference = next((r for r in repeats if not r["failures"]), None)
    counts_ref = next((r["layers"] for r in repeats if r.get("layers") and not r["failures"]), None)
    for r in repeats:
        if reference is not None and r.get("digests") != reference.get("digests"):
            r["failures"].append("outputs differ from the first repeat of this seed")
        if counts_ref is not None and r.get("layers"):
            for name in layers.COUNTS:
                if r["layers"][name] != counts_ref[name]:
                    r["failures"].append(f"count {name} {r['layers'][name]} != {counts_ref[name]}")
    failed = sum(1 for r in repeats if r["failures"])
    timed = [r for r in repeats if "wall_s" in r]
    plain = [r for r in timed if not r["trace"]]
    tracedr = [r for r in timed if r["trace"] and "layers" in r]
    if not plain or (traced and not tracedr):
        for r in repeats:
            for failure in r["failures"]:
                print(failure, file=sys.stderr)
        print("error: no repeat produced a measurement", file=sys.stderr)
        return 1

    median = statistics.median
    if traced:
        metrics = {name: median([r["layers"][name] for r in tracedr]) for name in {**layers.COUNTS, **layers.TIMES}}
        metrics["trace.overhead_frac"] = (
            median([r["wall_s"] for r in tracedr]) / median([r["wall_s"] for r in plain]) - 1.0
        )
        units = layers.UNITS
    else:
        metrics = {name: median([r[name] for r in plain]) for name in END_TO_END}
        units = END_TO_END

    first = reference or timed[0]
    prov = provenance(spec["cells"], first.get("versions", {}))
    missing = sorted({m for r in tracedr for m in r.get("missing", [])})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repeats": repeats,
        "metrics": metrics,
        "provenance": prov,
        "missing_trace_targets": missing,
    }
    (base / "result.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(repeats)} repeats in {time.perf_counter() - started:.1f} s, "
          f"outcome {first.get('outcome')}, steps {first.get('steps')}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':48s} {failed / len(repeats):.6g} ({failed} of {len(repeats)} repeats)")
    for i, r in enumerate(repeats):
        for failure in r["failures"]:
            print(f"  repeat {i} FAILED: {failure.strip().splitlines()[-1]}")
    if missing:
        print(f"  trace targets not found (metrics read 0): {', '.join(missing)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
