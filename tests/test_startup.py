"""Importing the stack loads neither scipy nor a process pool.

Every ``repro-adc`` command, ``repro-adc serve`` and ``repro-adc worker``
starts a fresh interpreter and imports the stack before it does any work.
The runtime needs numpy alone: no ``repro`` module imports scipy, and
``multiprocessing`` serves only a process pool, so it loads on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_REPO_SRC = str(Path(repro.__file__).resolve().parents[1])

#: What the entry points import: the package, the campaign runner, the
#: service, the CLI and the fleet worker.
STACK = (
    "repro",
    "repro.campaign.runner",
    "repro.service.server",
    "repro.cli",
    "repro.engine.worker",
)

#: Prepended to a child interpreter's code: scipy cannot be imported.
_HIDE_SCIPY = """
import sys

class _HideScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, _HideScipy())
"""

_CAMPAIGN = """
import sys
from repro.cli import main

main(["campaign", "--bits", "10-11", "--modes", "analytic", "--quiet", "--out", sys.argv[1]])
assert "scipy" not in sys.modules
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = _REPO_SRC
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_stack_import_loads_no_scipy_and_no_process_pool(tmp_path):
    code = f"import json, sys\nimport {', '.join(STACK)}\nprint(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(_python(code, cwd=tmp_path))
    assert set(STACK) <= set(loaded)
    heavy = [
        name
        for name in loaded
        if name.split(".")[0] in ("scipy", "multiprocessing")
        or name == "concurrent.futures.process"
    ]
    assert heavy == []


def test_campaign_without_scipy_writes_the_same_store(tmp_path):
    _python(_CAMPAIGN, "visible", cwd=tmp_path)
    _python(_HIDE_SCIPY + _CAMPAIGN, "hidden", cwd=tmp_path)
    for name in ("results.jsonl", "report.txt"):
        assert (tmp_path / "hidden" / name).read_bytes() == (
            tmp_path / "visible" / name
        ).read_bytes()
