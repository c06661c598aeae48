"""Record the outputs the benchmark's output check pins byte for byte.

Run from the root of a checkout, once per seed to pin::

    python3 perfbench/record_reference.py 7 1234

For every workload it sets up the observation, runs the work once, checks
the outputs as a timed run would, and copies the pinned files to
``perfbench/reference/seed-<n>/<workload>/``. Re-record only when an output
change is intended, and say why in the change that does it.
"""

from __future__ import annotations

import shutil
import sys

import run


def record(seed: int) -> None:
    root = run.find_root()
    for w in run.WORKLOADS.values():
        scratch = root / ".bench_work" / f"record-{w.name}-{seed}"
        shutil.rmtree(scratch, ignore_errors=True)
        target = run.REFERENCE / f"seed-{seed}" / w.name
        shutil.rmtree(target, ignore_errors=True)
        try:
            run.setup_observation(root, w, scratch / "obs")
            cross = None
            if w.kind == "pipeline":
                cross = run.pipeline_crosscheck(root, w, scratch / "obs", scratch / "cross", seed)
            stage = run.execute(root, w, scratch / "obs", scratch / "out", seed)
            problems = [f"exit code {stage.code}"] if stage.code else run.check_outputs(
                w, scratch / "out", seed, cross)
            problems += run.check_crosscheck_reference(w, cross, seed)
            if problems:
                raise SystemExit(f"{w.name} seed {seed}: " + "; ".join(problems))
            target.mkdir(parents=True)
            for name in run.PINNED[w.kind]:
                shutil.copyfile(scratch / "out" / name, target / name)
            print(f"recorded {target}")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        record(int(arg))
