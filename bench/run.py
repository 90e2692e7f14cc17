"""setforge benchmark: drives the real CLI through one workload.

    python3 bench/run.py --workload grow --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each
was chosen): ``grow``, ``certify``, ``query`` and ``compare``.

Load model: closed loop, one client. Each sequence of ops runs in one
fresh child interpreter, children run one at a time, ops run one after
the other, and nothing runs in threads. Inputs come from ``--seed``
only. A run makes ``--seconds // NOMINAL_S[workload]`` sequences, at
least one (with ``--trace 1``, half as many untraced-traced pairs).

``--trace 0`` reports the end-to-end metrics, medians over the
sequences of the run:

* ``wall_s``: wall time of the op sequence (sum of the ops' times);
* ``cpu_s``: user+sys CPU time of the child during the ops;
* ``peak_rss_mb``: maximum RSS of the child;
* ``setup_s``: child start, ``import setforge`` and input generation,
  up to the first op; five extra set-up-only children add samples.

The three times are given at the speed of the machine where the
benchmark was defined. Untraced children sample the shared host's
speed while they run (``speed.py``), and each time is multiplied by the
factor ``speed.factor`` draws from the samples taken while it ran: a
sequence's ``wall_s`` (wall clock) and ``cpu_s`` (CPU clock) by those
of its child, a child's ``setup_s`` by those of its set-up. The medians
are taken after scaling. The result file keeps the measured times, the
scaled ones and the samples.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (``tracer.py``): self time of each
wrapped public function, counts of work, and ``trace.overhead_s``, the
traced minus the untraced wall time.

Every op has an expected exit code and a check derived from the
construction; a miss, a Python exception, or stdout bytes that differ
between children of the run (traced or not) counts the op as failed.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A longer record, with the
Python version, ``nproc``, the load average at start, each op's stdout
sha256 and the per-op span breakdown, goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``.

``--smoke`` runs the same ops and checks at tiny sizes, in seconds.
The exit code is 1, with no result line, when the harness itself
cannot run (for example when ``src/setforge`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD = os.path.join(BENCH_DIR, "child.py")

SETUP_PROBES = 5
CLOCKS = ("wall_s", "cpu_s")
# Nominal time of one sequence of each workload, child start and output
# checks included, as measured where the benchmark was defined (2-vCPU
# x86-64 VM, Python 3.11). The number of sequences in a run depends only
# on these and ``--seconds``, never on times taken during the run: a
# run that stopped when its first sequence was slow would report that
# sequence alone, and a fast one would average it with a second, which
# widens the spread between runs. It also gives the parent commit and a
# change the same number of sequences.
NOMINAL_S = {"grow": 16.0, "certify": 12.5, "query": 5.5, "compare": 15.0}
# Whole-run cap, under the 180 s a run may take.
HARD_LIMIT_S = 170.0
# Traced self times must add up to the traced op time up to rounding.
SELF_SUM_TOLERANCE_S = 1e-6


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(args: argparse.Namespace, mode: str, started: float) -> dict:
    """Run one child to completion and check its ops."""
    seqdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result_path = os.path.join(seqdir, "result.json")
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        if remaining <= 0:
            raise HarnessError(f"run exceeded {HARD_LIMIT_S} s")
        scale = "smoke" if args.smoke else "full"
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, ROOT, args.workload, str(args.seed), scale, mode,
                 seqdir, result_path],
                stdin=subprocess.DEVNULL, capture_output=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as e:
            raise HarnessError(f"{mode} child did not finish within {remaining:.0f} s") from e
        duration = time.monotonic() - t0
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise HarnessError(f"{mode} child exited {proc.returncode}: " + " | ".join(tail))
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        setup_s = result["setup_done"] - t0
        if result["setup_probe"] is not None:
            setup_s -= result["setup_probe"]["wall_s"]
        sample = {"mode": mode, "setup_s": setup_s, "duration_s": duration,
                  "probe": result.get("probe"), "setup_probe": result["setup_probe"]}
        if mode == "setup":
            return sample
        ops = [workloads.Op(**raw) for raw in result["ops"]]
        runs = result["runs"]
        reasons = workloads.check_sequence(seqdir, ops, [r["exit"] for r in runs])
        for op, run, reason in zip(ops, runs, reasons):
            run["argv"] = op.argv
            run["failure"] = run.pop("error") or reason
        timed = [r for r in runs if not r["setup"]]
        sample.update(
            wall_s=sum(r["wall_s"] for r in timed),
            cpu_s=sum(r["cpu_s"] for r in timed),
            peak_rss_mb=result["peak_rss_mb"],
            ops=runs,
        )
        if "trace" in result:
            sample["trace"] = result["trace"]
        return sample
    finally:
        shutil.rmtree(seqdir, ignore_errors=True)


def _check_repeats(samples: list[dict]) -> None:
    """Every child ran the same inputs, so every op's stdout must be the
    same bytes as in the first untraced child."""
    reference = samples[0]["ops"]
    for sample in samples[1:]:
        for ref, run in zip(reference, sample["ops"]):
            if run["stdout_sha256"] != ref["stdout_sha256"] and run["failure"] is None:
                run["failure"] = f"stdout differs from the first untraced child ({sample['mode']})"


def _check_trace(sample: dict) -> None:
    """Self times of an op's spans must add up to its root span, and
    the op must have exactly one root (``cli.main``)."""
    trace = sample["trace"]
    if "cli.main.self_s" in trace["absent"]:
        return
    timed = [run for run in sample["ops"] if not run["setup"]]
    for run, op in zip(timed, trace["ops"]):
        gap = abs(op["self_sum_s"] - op["traced_wall_s"])
        if run["failure"] is None and (op["roots"] != 1 or gap > SELF_SUM_TOLERANCE_S):
            run["failure"] = f"trace: {op['roots']} root spans, self times off by {gap:.3g} s"


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "setforge", "cli.py")):
        raise HarnessError(f"no setforge sources under {os.path.join(ROOT, 'src')}")
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.monotonic()
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "smoke" if args.smoke else "full",
    }
    setup_only: list[dict] = []
    if not args.trace:
        setup_only = [_spawn(args, "setup", started) for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if args.trace else ("plain",)
    rounds = max(1, int(args.seconds // (NOMINAL_S[args.workload] * len(modes))))
    samples = [_spawn(args, mode, started) for _ in range(rounds) for mode in modes]
    _check_repeats(samples)
    plain = [s for s in samples if s["mode"] == "plain"]
    traced = [s for s in samples if s["mode"] == "traced"]
    for sample in traced:
        _check_trace(sample)
    runs = [run for sample in samples for run in sample["ops"]]
    failed = sum(1 for run in runs if run["failure"] is not None)
    setups = [s["setup_s"] for s in setup_only + samples]

    if args.trace:
        import tracer  # only the traced run depends on the wrappers

        absent = sorted({m for s in traced for m in s["trace"]["absent"]})
        per_seq = [tracer.totals(s["trace"]) for s in traced]
        values = {m: statistics.median([t[m] for t in per_seq]) for m in tracer.METRICS}
        values["trace.overhead_s"] = (
            statistics.median([s["wall_s"] for s in traced])
            - statistics.median([s["wall_s"] for s in plain])
        )
        measured = None
    else:
        absent = []
        # A sequence is scaled by the speed sampled in its child, a
        # set-up by the speed sampled during it (the probe samples once
        # as it starts, so there is always a sample).
        for sample in plain:
            for clock in CLOCKS:
                sample[f"scaled_{clock}"] = sample[clock] * speed.factor(sample["probe"], clock)
        for sample in setup_only + plain:
            sample["scaled_setup_s"] = (
                sample["setup_s"] * speed.factor(sample["setup_probe"], "wall_s")
            )
        measured = {
            "wall_s": statistics.median([s["wall_s"] for s in plain]),
            "cpu_s": statistics.median([s["cpu_s"] for s in plain]),
            "setup_s": statistics.median(setups),
        }
        values = {
            "wall_s": statistics.median([s["scaled_wall_s"] for s in plain]),
            "cpu_s": statistics.median([s["scaled_cpu_s"] for s in plain]),
            "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in plain]),
            "setup_s": statistics.median([s["scaled_setup_s"] for s in setup_only + plain]),
        }
    if set(values) != set(units):
        raise HarnessError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in units.items()}
    report = {
        "meta": meta,
        "metrics": metrics,
        "attempted": len(runs),
        "failed": failed,
        "failed_ratio": failed / len(runs),
        "sequences": {"plain": len(plain), "traced": len(traced)},
        "absent_metrics": absent,
        "measured": measured,
        "setup_samples_s": setups,
        "setup_children": setup_only,
        "samples": samples,
    }
    return report, metrics


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    args = parser.parse_args(argv)
    try:
        report, metrics = measure(args)
    except HarnessError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    for metric in report["absent_metrics"]:
        print(f"absent: {metric} (its function is gone or changed shape)", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
