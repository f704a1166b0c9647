"""Regenerate reference.json: the reference pass of every workload.

    python3 perfbench/make_reference.py

Runs each workload's reference pass (config seed 42, one trial per
invocation) and stores its per-(power, r) mean sum rates and CSV digest.
Run it only to declare a re-baseline; say why in CHANGES.md.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    run.load_hapsim()
    reference = {}
    for name, workload in run.WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
        runner = run.Runner(workload, workdir)
        try:
            check = run.Check()
            result = runner.run_pass(run.REFERENCE_SEED, check)
            if check.failed:
                raise SystemExit(f"{name}: reference pass fails its output check: "
                                 f"{check.problems}")
            reference[name] = {"sha256": result.digest, "means": result.means}
        finally:
            runner.close()
            shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
