"""Closed-loop op runner; one fresh interpreter per measured run.

    python3 worker.py SPEC.json           run ops, write SPEC["result"]
    python3 worker.py SPEC.json --probe   set up only, print "ready", exit

An op is one in-process ``pgrain.cli.main(argv)`` call with stdout and
stderr captured.  Ops run back to back while the next one, judged by the
last, still ends within ``seconds``.  With
``trace`` set, untraced and traced ops alternate and the traced ones record
spans through ``tracer.Tracer``.  Only the ``cli.main`` call is timed:
clearing old outputs, collecting garbage and hashing outputs happen between
ops.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path


def _digest(stdout: str, paths) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in map(Path, paths):
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(b"\0" + str(f.relative_to(path.parent)).encode("utf-8") + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def _clear(paths) -> None:
    for path in map(Path, paths):
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def _run_op(cli, spec) -> dict:
    _clear(spec["outputs"])
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(spec["argv"]))
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
    except SystemExit as exc:
        error = f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception:  # an op that raises is counted as failed, the run goes on
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return {"wall_s": wall, "cpu_s": cpu, "error": error, "stdout": out.getvalue(),
            "digest": _digest(out.getvalue(), spec["outputs"])}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import numpy as np
    import pgrain
    import pgrain.cli as cli

    # a first BLAS call starts the BLAS thread pool
    np.ones((64, 64)) @ np.ones((64, 64))
    missing = [p for p in spec["inputs"] if not os.path.exists(p)]
    if missing:
        print(f"missing inputs: {missing}", file=sys.stderr)
        return 1
    if "--probe" in argv:
        print("ready", flush=True)
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(pgrain)
    ops, summaries, span_names = [], [], []
    deadline = time.perf_counter() + spec["seconds"]
    while (not ops or time.perf_counter() + ops[-1]["wall_s"] <= deadline
           or (tracer and len(ops) < 2)):
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            span_names = tracer.install()
        try:
            op = _run_op(cli, spec)
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        if traced:
            summaries.append(tracer.op_summary(tracer.op, op["wall_s"], threading.main_thread().ident))
        ops.append(op)

    if tracer is not None:
        tracer.write_spans(spec["spans"])
    result = {
        "ops": ops,
        "summaries": summaries,
        "span_names": span_names,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
