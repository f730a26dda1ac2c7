"""End-to-end benchmark of the repro-adc stack.

Run from the repository root::

    python3 e2ebench/run.py --workload fig2-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` reruns the workload with every layer's public functions
wrapped (see ``layers.py``) and reports the per-layer split and the tracing
overhead instead.  Workloads, metrics, units and regression bounds are
listed in ``BENCHMARK.json`` at the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment (CPU count, Python and numpy versions, backend,
seed, code identity).  A failed output check exits with status 1.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads, in this process and in
# every child it starts (import probes, pool workers).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
# The stack's own environment switches would leak state into a run.
for _var in (
    "REPRO_ADC_CACHE",
    "REPRO_ADC_SERVICE",
    "REPRO_OBS_METRICS_DIR",
    "REPRO_OBS_TRACE_DIR",
):
    os.environ.pop(_var, None)

import hashlib
import json
import platform
import shutil
import signal
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIRNAME = ".e2ebench_out"
#: Stop a run that overshoots; the driver allows 180 s.
DEADLINE_S = 170


def code_identity(root: Path) -> str:
    """The git commit when there is one, else a digest of ``src``."""
    if (root / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def metric_specs(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(workloads.WORKLOADS)})"
        )

    out = ROOT / OUT_DIRNAME
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    ctx = workloads.Context(
        root=ROOT,
        work=work,
        out=out,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    specs = metric_specs(ROOT, ctx.trace)
    measured = outcome.per_layer if ctx.trace else outcome.end_to_end
    missing = [s["name"] for s in specs if s["name"] not in measured]
    if missing and not ctx.trace:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {
        s["name"]: {"value": float(measured.get(s["name"], 0.0)), "unit": s["unit"]}
        for s in specs
    }
    for problem in outcome.problems:
        print(f"e2ebench: check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "env": {
                    "workload": args.workload,
                    "backend": "process" if args.workload.endswith("process") else "serial",
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "code": code_identity(ROOT),
                    "unmeasured_layers": missing,
                    **outcome.notes,
                }
            },
            sort_keys=True,
        )
    )
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
