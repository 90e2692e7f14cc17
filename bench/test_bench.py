"""Tests of the benchmark harness itself, at smoke size.

    python -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import speed
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout's ignored output area."""
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=os.path.join(BENCH_DIR, "out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(workload: str, trace: str) -> None:
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    spec = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec


def test_workload_names_match_the_benchmark_file() -> None:
    assert tuple(w["name"] for w in _spec()["workloads"]) == workloads.WORKLOADS


def test_traced_and_untraced_stdout_agree_and_self_times_add_up() -> None:
    proc = _run("--workload", "grow", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(BENCH_DIR, "out", "grow-seed3-trace1-smoke.json"), encoding="utf-8") as h:
        report = json.load(h)
    plain = [s for s in report["samples"] if s["mode"] == "plain"][0]
    traced = [s for s in report["samples"] if s["mode"] == "traced"][0]
    assert [o["stdout_sha256"] for o in plain["ops"]] == [o["stdout_sha256"] for o in traced["ops"]]
    for op in traced["trace"]["ops"]:
        assert op["roots"] == 1
        assert op["self_sum_s"] == pytest.approx(op["traced_wall_s"], abs=1e-6)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    # 2 -> 4 -> 16 nodes, then the refusal run adds the same two levels.
    assert metrics["completion.nodes_added"]["value"] == 2 * (2 + 12)
    assert metrics["completion.budget_refusals"]["value"] == 1


def test_speed_probe_samples_while_started_and_scales_to_nominal() -> None:
    probe = speed.Probe()
    probe.start()
    assert probe.totals()["samples"] == 1  # one at once, for children too short for the timer
    try:
        deadline = time.monotonic() + 4 * speed.INTERVAL_S
        while time.monotonic() < deadline:
            pass
    finally:
        probe.stop()
    taken = probe.totals()
    assert taken["samples"] >= 3 and taken["wall_s"] > 0
    time.sleep(2 * speed.INTERVAL_S)
    assert probe.totals() == taken
    slow = {"samples": 4, "wall_s": 4 * 2 * speed.NOMINAL_S, "cpu_s": 4 * speed.NOMINAL_S}
    assert speed.factor(slow, "wall_s") == pytest.approx(0.5)
    assert speed.factor(slow, "cpu_s") == pytest.approx(1.0)


def test_without_sources_it_fails_without_a_result(workdir: str) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(BENCH_DIR, os.path.join(workdir, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "grow", "--seed", "1", "--seconds", "1", cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_or_reshaped_functions_are_absent_not_fatal(monkeypatch) -> None:
    monkeypatch.syspath_prepend(SRC)
    import setforge.completion  # noqa: F401  (installs need the package loaded)

    gone = tracer.Target("completion", "no_such_function", "completion.no_such_function.s")
    reshaped = tracer.Target("graph", "extension", "graph.extension.s", ("graph.extension.n",),
                             lambda a, k, r: {"graph.extension.n": r.no_such_attribute})
    monkeypatch.setattr(tracer, "TARGETS", (gone, reshaped))
    import setforge.graph as graph

    # install() rebinds every module attribute that holds the function
    # (``setforge.extension`` too); monkeypatch puts them all back.
    for name, module in list(sys.modules.items()):
        if name == "setforge" or name.startswith("setforge."):
            for attr, value in list(vars(module).items()):
                if value is graph.extension:
                    monkeypatch.setattr(module, attr, value)
    recorder = tracer.Recorder()
    recorder.install()
    recorder.op = 0
    g = graph.ExtensionalDigraph.from_edges(["a", "b"], [("a", "b")])
    assert graph.extension(g, "b") == frozenset({"a"})
    summary = recorder.summary(1)
    assert set(summary["absent"]) == {"completion.no_such_function.s", "graph.extension.n"}


def _check(workdir: str, op: workloads.Op, files: dict[str, str], code: int = 0) -> str | None:
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return workloads.check_sequence(workdir, [op], [code])[0]


def test_checks_reject_outputs_that_break_the_construction(workdir: str) -> None:
    doc = {"format_version": 1, "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}], "edges": [],
           "levels": [["a"], ["a", "b", "c"]]}
    grown = workloads.Op(["complete"], None, "d.json", 0, "document", {"levels": [1, 2]})
    assert "growth law" in _check(workdir, grown, {"d.json": json.dumps(doc)})
    assert _check(workdir, grown, {"d.json": json.dumps(doc)}, code=2) == "exit 2, expected 0"
    define = workloads.Op(["define"], None, "out.txt", 0, "define", {"document": "d.json"})
    assert _check(workdir, define, {"out.txt": "define\ta\ndefine\tz\n"}) is not None
    assert _check(workdir, define, {"out.txt": "define\ta\n"}) is None
    verdict = workloads.Op(["diff"], None, "v.txt", 0, "verdict", {"record": "diff"})
    assert _check(workdir, verdict, {"v.txt": "diff\tdifferent\tnode counts\n"}) is not None
    refusal = workloads.Op(["complete"], None, "r.json", 2, "refusal")
    assert _check(workdir, refusal, {"r.json": "", "r.json.err": "budget exceeded: x"}, 2) is None
    assert _check(workdir, refusal, {"r.json": "{}", "r.json.err": "budget exceeded: x"}, 2)
