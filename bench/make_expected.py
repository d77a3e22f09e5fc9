#!/usr/bin/env python3
"""Regenerate bench/expected.json: reference volumes for the table2 checks.

    python3 bench/make_expected.py

Runs `qud table2` at d=2 and d=3 with many more samples than any workload
and on a seed no workload derives, and records each cell's volume and
standard error. The workload checks accept a volume within 5 combined
standard errors of these, so a legitimate change of rounding or of the
random stream passes and a wrong kernel does not.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 20220215
SAMPLES = {2: 1 << 23, 3: 1 << 21}


def main() -> int:
    run.cap_threads()
    env = run.child_env()
    out = {"seed": SEED, "samples": {str(d): n for d, n in SAMPLES.items()}, "volumes": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for dim, n in SAMPLES.items():
            argv = ["-m", "qud.cli", "table2", "--dim", str(dim), "--samples", str(n),
                    "--seed", str(SEED), "--workers", "2"]
            code, stdout, wall, _ = run.spawn(argv, Path(tmp), env)
            if code != 0:
                print(f"error: table2 --dim {dim} exited {code}", file=sys.stderr)
                return 1
            cells = {}
            for row in workloads._csv_rows(stdout):
                alpha = float(row["alpha"]) if row["alpha"] else None
                key = workloads.label(row["relation"], row["variant"], alpha)
                cells[key] = [float(row["volume"]), float(row["std_error"])]
            out["volumes"][str(dim)] = cells
            print(f"d={dim}: {n} samples in {wall:.1f} s", file=sys.stderr)
    path = workloads.BENCH / "expected.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
