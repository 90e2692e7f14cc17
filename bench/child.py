"""One workload sequence in a fresh interpreter; ``run.py`` starts it.

Set-up is everything before the first op: interpreter start, importing
``setforge`` and making the inputs. Each op then calls
``setforge.cli.main`` with real argv, with stdin, stdout and stderr
bound to files of the sequence directory, so every op reads and writes
the bytes a shell pipe would carry. The result (per-op exit code,
time, CPU, stdout hash, and in traced mode the spans) goes to a JSON
file named on the command line. Untraced children sample the host's
speed all along (``speed.Probe``); the probe's own time is taken off
the times recorded here, and its totals are recorded for set-up, for
each op and for the whole child. Ops run during set-up (the ``query``
input is a completion) are recorded too, marked ``setup``, so their
output is checked like any other but not timed.

Usage: child.py ROOT WORKLOAD SEED SCALE MODE WORKDIR RESULT, where
MODE is ``setup`` (stop after set-up), ``plain`` or ``traced``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _sha256(path: str) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def run_op(cli, op, probe=None) -> dict:
    """Run one op through ``cli.main``; a Python exception or a
    SystemExit is recorded, not raised. Time spent in ``probe`` during
    the op is taken off its wall and CPU time."""
    idle = {"samples": 0, "wall_s": 0.0, "cpu_s": 0.0}
    fin = open(op.stdin, encoding="utf-8") if op.stdin is not None else io.StringIO()
    with fin, open(op.stdout, "w", encoding="utf-8") as fout, \
            open(op.stdout + ".err", "w", encoding="utf-8") as ferr:
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = fin, fout, ferr
        error = None
        before = probe.totals() if probe is not None else idle
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as e:
            code = e.code
        except Exception:  # an op failure is a measurement, not a harness crash
            code = None
            error = traceback.format_exc(limit=-3)
        finally:
            fout.flush()
            ferr.flush()
            wall = time.perf_counter() - t0
            cpu = _cpu() - cpu0
            after = probe.totals() if probe is not None else idle
            sys.stdin, sys.stdout, sys.stderr = saved
    sampled = {k: after[k] - before[k] for k in idle}
    sha, size = _sha256(op.stdout)
    return {"exit": code, "wall_s": wall - sampled["wall_s"], "cpu_s": cpu - sampled["cpu_s"],
            "probe": sampled, "stdout_sha256": sha, "stdout_bytes": size, "error": error}


def main(argv: list[str]) -> int:
    root, workload, seed, scale, mode, workdir, result_path = argv
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed  # noqa: E402

    probe = None
    if mode != "traced":  # the trace has spans of its own to time
        probe = speed.Probe()
        probe.start()
    sys.path.insert(0, os.path.join(root, "src"))
    import setforge.cli as cli  # noqa: E402  (the import is part of set-up)
    import workloads  # noqa: E402

    os.chdir(workdir)
    setup_ops, runs = [], []

    def setup_op(op) -> object:
        setup_ops.append(op)
        runs.append({**run_op(cli, op, probe), "setup": True})
        return runs[-1]["exit"]

    ops = workloads.prepare(workload, int(seed), scale, ".", setup_op)
    setup_done = time.monotonic()
    result: dict = {"setup_done": setup_done,
                    "setup_probe": probe.totals() if probe is not None else None,
                    "ops": [dataclasses.asdict(op) for op in setup_ops + ops]}
    if mode != "setup":
        recorder = None
        if mode == "traced":
            import tracer  # noqa: E402

            recorder = tracer.Recorder()
            recorder.install()
        for index, op in enumerate(ops):
            if recorder is not None:
                recorder.op = index
            runs.append({**run_op(cli, op, probe), "setup": False})
        if recorder is not None:
            recorder.op = None
            result["trace"] = recorder.summary(len(ops))
        result["runs"] = runs
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probe is not None:
        probe.stop()
        result["probe"] = probe.totals()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
