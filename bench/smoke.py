#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

Checks that:
- every workload, untraced and traced, ends with a correct result line that
  carries exactly the metrics BENCHMARK.json names, with their units;
- `qud table2` reports are byte-identical with --workers 1 and 2;
- a deliberately perturbed expected volume trips the table2 output check;
- without the qud sources the benchmark exits non-zero and prints no result.
Exits 1 if any check fails.
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def result_line(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, scale="tiny")
    lines = buf.getvalue().strip().splitlines()
    expect(code == 0, f"run.py {' '.join(argv)} exits 0")
    return json.loads(lines[-1])


def check_metrics(config: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in config[key]}
        for workload in workloads.WORKLOADS:
            res = result_line(["--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", str(trace)])
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, {res['failed']} of "
                   f"{res['attempted']} failed")
            expect(got == wanted, f"{workload} trace={trace}: every {key} metric, with unit")


def check_workers_identical(tmp: Path, env: dict) -> None:
    for dim in (2, 3):
        reports = []
        for workers in (1, 2):
            argv = ["-m", "qud.cli", "table2", "--dim", str(dim), "--samples",
                    str(workloads.SIZES["tiny"]["table2"][dim]), "--seed", "5",
                    "--workers", str(workers)]
            code, stdout, _, _ = run.spawn(argv, tmp, env)
            reports.append((code, stdout))
        expect(reports[0] == reports[1] and reports[0][0] == 0,
               f"table2 --dim {dim} report byte-identical for --workers 1 and 2")


def check_perturbed(tmp: Path, env: dict) -> None:
    expected = workloads.load_expected()
    cmd = workloads.commands("table2-d2", 5, "tiny", tmp, expected)[0]
    code, stdout, _, _ = run.spawn(["-m", "qud.cli", *cmd.argv], tmp, env)
    res = workloads.Result(code, stdout, None)
    expect(cmd.check(res) is None, "table2 check passes against the recorded volumes")
    perturbed = copy.deepcopy(expected)
    perturbed["volumes"]["2"]["U_tr"][0] += 0.02
    n = workloads.SIZES["tiny"]["table2"][2]
    error = workloads.check_table2(2, n, perturbed)(res)
    expect(error is not None and "U_tr" in error,
           f"perturbed U_tr expected volume trips the check ({error})")


def check_no_sources(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(workloads.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "table2-d2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit {proc.returncode}, no result line")


def main() -> int:
    run.cap_threads()
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    env = run.child_env()
    run.TMP_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as tmp:
            check_workers_identical(Path(tmp), env)
            check_perturbed(Path(tmp), env)
            check_no_sources(Path(tmp))
        check_metrics(config)
    finally:
        if run.TMP_ROOT.exists() and not any(run.TMP_ROOT.iterdir()):
            run.TMP_ROOT.rmdir()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
