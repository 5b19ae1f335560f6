import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import reebtop
from reebtop.verify import INSTANCE_BUILDERS, build_instance, verify_double_attachment


@pytest.fixture(scope="session")
def doubles_instances():
    return {name: build_instance(name) for name in INSTANCE_BUILDERS}


@pytest.fixture(scope="session")
def doubles_reports(doubles_instances):
    return {
        name: verify_double_attachment(inst)
        for name, inst in doubles_instances.items()
    }


def claim_by_suffix(report, suffix):
    for claim in report["claims"]:
        if claim["claim_id"].endswith(suffix):
            return claim
    raise AssertionError(f"no claim ending in {suffix!r}")


def run_optimized(code, **env):
    """Run `code` in a fresh `python -O`, where `assert` statements are stripped.

    The script first checks that asserts really are off, then runs `code`,
    which may import from the test modules, with `env` added to the
    environment; the result carries the exit code and both output streams.
    """
    src = str(Path(reebtop.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(
        p for p in (src, tests, os.environ.get("PYTHONPATH")) if p
    )
    script = "assert False, 'asserts are on'\n" + textwrap.dedent(code)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, **env, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
