"""Record the report-cli references with the scalar oracle.

Usage, from the root of a checkout::

    python3 perfbench/record_references.py

Runs ``repro report <design> --engine scalar`` at the paper's 64K FFT
for each design and writes the manifest's non-timing part to
``perfbench/references/<design>.json``.  Every rung must reproduce these
values exactly; rerun this only when the model itself changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.report_cli import FFT_SAMPLES  # noqa: E402


def main() -> int:
    common.REFERENCE_DIR.mkdir(exist_ok=True)
    with common.workspace() as work:
        env = common.child_env(work)
        for design in common.REPORT_DESIGNS:
            manifest_path = work / f"{design}.json"
            argv = [
                sys.executable, "-m", "repro", "report", design,
                "--engine", "scalar", "--no-cache", "--no-ledger",
                "--samples", str(FFT_SAMPLES), "--json", str(manifest_path),
            ]
            child = common.run_child(argv, env, work / f"{design}.log", timeout_s=600.0)
            if child.returncode != 0:
                print((work / f"{design}.log").read_text(), file=sys.stderr)
                return 1
            view = common.reference_view(json.loads(manifest_path.read_text()))
            target = common.REFERENCE_DIR / f"{design}.json"
            target.write_text(json.dumps(view, indent=2, sort_keys=True) + "\n")
            print(f"{design}: {len(view['metrics'])} metrics, {child.wall_s:.1f} s -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
