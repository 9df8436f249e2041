"""pgrain benchmark: four CLI workloads, each a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run it from the root of a source checkout; it imports pgrain from
``src/`` and exits 2 when that is missing.  For one run it

1. generates the workload's inputs from ``--seed`` with its own NumPy code;
2. runs ops back to back for ``--seconds`` in one worker interpreter, where
   an op is one in-process ``pgrain.cli.main(argv)`` call;
3. times ``setup_s`` in fresh interpreters (import pgrain, first BLAS call,
   inputs handed over), half before the ops and half after, and keeps the
   median;
4. checks, after the timed loop, that every op's output bytes and stdout
   are identical and that the last op's output passes an independent
   oracle, or a digest recorded for the seed;
5. prints a readable summary and, as its last line, one JSON object.

With ``--trace 0`` the JSON carries the end-to-end metrics of
``BENCHMARK.json``, measured with no instrumentation.  With ``--trace 1``
untraced and traced ops alternate; the traced ones wrap every public
pgrain callable from outside (see ``tracer.py``) and give the per-layer
metrics, ``trace_overhead`` compares the two kinds of op, and both kinds
must write the same bytes.  Spans and the run record go to
``.perfbench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 8
# pgrain's default pool would run two GIL-bound threads on a 2-vCPU host.
# In paired sigma_large runs over ten seeds, the run-to-run IQR of op_p50_s
# was 32% of the median with two threads and 21% with one.
WORKER_THREADS = "1"
WORKER_TIMEOUT_S = 150


def _git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line and ".so" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def environment(seed: int, case: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "PGRAIN_THREADS": WORKER_THREADS,
        "git_commit": _git_commit(ROOT),
        "seed": seed,
        **case["params"],
    }


def _probe_setup(spec_path: Path, env: dict) -> float:
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path), "--probe"],
                          stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool, metric_specs: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    case = workload.prepare(workdir, seed)

    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps({
        "src": str(ROOT / "src"), "argv": case["argv"], "inputs": case["inputs"],
        "outputs": case["outputs"], "seconds": seconds, "trace": trace,
        "result": str(workdir / "result.json"), "spans": str(workdir / "spans.jsonl"),
    }), encoding="utf-8")
    env = dict(os.environ, PGRAIN_THREADS=WORKER_THREADS)
    # half the probes before the timed loop and half after, so their median
    # spans the run rather than the machine's state in its first seconds
    setups = [_probe_setup(spec_path, env) for _ in range(PROBES // 2)]
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                   env=env, check=True, timeout=WORKER_TIMEOUT_S)
    setups += [_probe_setup(spec_path, env) for _ in range(PROBES - PROBES // 2)]
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))

    ops = result["ops"]
    last = ops[-1]
    problems = [] if last["error"] else workload.check(case, last["stdout"], last["digest"])
    failed = [op for op in ops
              if op["error"] or problems or op["digest"] != last["digest"]]
    if any(op["digest"] != last["digest"] for op in ops):
        problems.append("ops of one run wrote different bytes"
                        + (" with tracing on and off" if trace else ""))
    problems += [op["error"] for op in failed if op["error"]][:3]

    plain = [op["wall_s"] for op in ops if not op["traced"]]
    traced = [op["wall_s"] for op in ops if op["traced"]]
    layer_figures = None
    if trace:
        layer_figures = _layer_values(result["summaries"])
        values = dict(layer_figures, trace_overhead=median(traced) / median(plain) - 1.0)
        wanted = metric_specs["per_layer"]
    else:
        values = {
            "op_p50_s": median(plain),
            "points_per_s": workload.points_per_op * len(plain) / sum(plain),
            "setup_s": median(setups),
            "peak_rss_mb": result["maxrss_mb"],
        }
        wanted = metric_specs["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record = {
        "workload": name, "env": environment(seed, case), "setup_samples_s": setups,
        "op_walls_s": plain, "traced_op_walls_s": traced,
        "op_cpu_s": [op["cpu_s"] for op in ops], "digest": last["digest"], "problems": problems,
        "span_names": result["span_names"], "layer_figures": layer_figures,
        "correct": not problems, "attempted": len(ops), "failed": len(failed), "metrics": metrics,
    }
    (workdir / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _layer_values(summaries: list) -> dict:
    """Median of each figure over traced ops; a figure an op lacks counts as 0."""
    keys = set().union(*summaries)
    return {key: median(s.get(key, 0.0) for s in summaries) for key in keys}


def _print_summary(record: dict) -> None:
    ops = record["attempted"]
    print(f"== {record['workload']} seed {record['env']['seed']}: {ops} ops "
          f"({len(record['op_walls_s'])} untraced, {len(record['traced_op_walls_s'])} traced), "
          f"{record['failed']} failed")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':36s} {record['failed'] / ops:.6g} ratio ({record['failed']} of {ops} ops failed)")


def main(argv=None) -> int:
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if specs is None or not (ROOT / "src" / "pgrain" / "__init__.py").is_file():
        print(f"perfbench: no BENCHMARK.json or pgrain sources under {ROOT}", file=sys.stderr)
        return 2

    seconds = specs["run_seconds"] if args.seconds is None else args.seconds
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, seconds, bool(args.trace), specs) for name in names]
    for record in records:
        _print_summary(record)
    if len(records) == 1:
        out = {key: records[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
