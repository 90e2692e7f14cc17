"""CI's CLI smoke pipelines, run by the tier-1 suite.

The ``CLI smoke`` step of ``.github/workflows/tier1.yml`` is the one
list: each of its ``check <exit> "<pipeline>"`` lines is read here with
``shlex.split`` and run as the step runs it, with ``bash -o pipefail
-c``, and must end with its exit code and print no traceback. A
``setforge`` shim for ``python -m setforge.cli`` on this checkout's
``src`` comes first on PATH, so the pipelines, and the sha256 pins
among them, need no install."""

import os
import pathlib
import shlex
import stat
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def smoke_checks() -> list[tuple[int, str]]:
    """The (exit code, pipeline) of each ``check`` line of the step."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = lines.index("      - name: CLI smoke")
    checks = []
    for line in lines[start + 1 :]:
        if line.lstrip().startswith("- name:"):
            break
        if line.lstrip().startswith("check "):
            _, code, pipeline = shlex.split(line)
            checks.append((int(code), pipeline))
    return checks


CHECKS = smoke_checks()


@pytest.fixture(scope="module")
def shimmed(tmp_path_factory) -> dict[str, str]:
    """The environment whose PATH starts with the ``setforge`` shim."""
    bin_dir = tmp_path_factory.mktemp("bin")
    shim = bin_dir / "setforge"
    src = shlex.quote(str(ROOT / "src"))
    shim.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH={src}${{PYTHONPATH:+:$PYTHONPATH}} exec {shlex.quote(sys.executable)}'
        ' -m setforge.cli "$@"\n'
    )
    shim.chmod(shim.stat().st_mode | stat.S_IXUSR)
    return {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}


def test_the_step_lists_the_pipelines():
    assert len(CHECKS) >= 27
    assert {code for code, _ in CHECKS} <= set(range(5))
    assert all("setforge" in pipeline for _, pipeline in CHECKS)


@pytest.mark.parametrize(
    "code, pipeline", CHECKS, ids=[f"check{i:02d}-exit{code}" for i, (code, _) in enumerate(CHECKS)]
)
def test_smoke_pipeline(shimmed, tmp_path, code, pipeline):
    run = subprocess.run(
        ["bash", "-o", "pipefail", "-c", pipeline],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=shimmed,
        cwd=tmp_path,
        timeout=600,
    )
    err = run.stderr.decode("utf-8", "replace")
    assert run.returncode == code, (pipeline, err)
    assert "Traceback" not in err and "Exception ignored" not in err, (pipeline, err)
