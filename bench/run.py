#!/usr/bin/env python3
"""qud benchmark: one command, three workloads, end-to-end or per-layer.

    python3 bench/run.py --workload table2-d2 --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's `qud` commands as serial CLI subprocesses
(closed loop, one client) for --seconds, checks every report, and prints
the end-to-end metrics. --trace 1 runs the in-process layer probes of
layers.py with spans around qud's public functions and prints the
per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program is run from the checkout's own `src/` (PYTHONPATH), with the
same BLAS/OpenMP thread cap on every child and on the probe process.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_ROOT = ROOT / ".bench_tmp"

THREAD_CAP = 1  # <= nproc; the same on every commit measured
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPS = {"full": 31, "tiny": 3}
MIN_PASSES = {"full": 3, "tiny": 1}
CHILD_TIMEOUT_S = 120.0
# Start no new pass or round after this long, so a run ends within 180 s.
HARD_STOP_S = 110.0

END_TO_END_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def cap_threads() -> None:
    """Apply the thread cap to this process (before numpy loads) and children."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, workdir: Path, env: dict):
    """Run `python3 args...`; return (exit code, stdout, wall s, peak RSS KB).

    The child's own peak RSS comes from wait4, not from the cumulative
    RUSAGE_CHILDREN of this process.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), out_path.read_bytes(), wall,
            usage.ru_maxrss)


def run_qud(cmd: workloads.Command, workdir: Path, env: dict):
    if cmd.output is not None and cmd.output.exists():
        cmd.output.unlink()
    code, stdout, wall, rss_kb = spawn(["-m", "qud.cli", *cmd.argv], workdir, env)
    output = cmd.output.read_bytes() if cmd.output and cmd.output.exists() else None
    return workloads.Result(code, stdout, output), wall, rss_kb


def provenance() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {k: {"name": v.get("name"), "version": v.get("version"),
                "config": v.get("openblas configuration")}
            for k, v in deps.items() if k in ("blas", "lapack")}
    digest = hashlib.sha256()
    for path in sorted((SRC / "qud").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "thread_cap": THREAD_CAP,
        "source_sha256": digest.hexdigest(),
    }


def run_end_to_end(workload, seed, seconds, scale, tmpdir, log):
    """Closed loop of CLI passes for `seconds`; setup probes spread over the run.

    wall_s sums, over the pass's commands, each command's median wall, so a
    short burst of contention that hits one command once does not count.
    peak_rss_mb is the largest, over commands, of a command's median peak
    RSS: with two worker threads a child's peak depends on how its chunks
    overlap in time, and the median keeps that jitter out.
    """
    env = child_env()
    expected = workloads.load_expected()
    cmds = workloads.commands(workload, seed, scale, tmpdir, expected)
    for c in cmds:
        log(f"command: {c.text()}")
    helps = [["-m", "qud.cli", sub, "--help"] for sub in sorted({c.argv[0] for c in cmds})]
    spawn(helps[0], tmpdir, env)  # fill .pyc caches before timing anything
    reps = SETUP_REPS[scale]
    setup_walls, digests = [], [set() for _ in cmds]
    times, rss = [[] for _ in cmds], [[] for _ in cmds]
    attempted = failed = passes = 0

    def take_setup():
        nonlocal attempted, failed
        argv = helps[len(setup_walls) % len(helps)]
        code, stdout, wall, _ = spawn(argv, tmpdir, env)
        setup_walls.append(wall)
        attempted += 1
        if code != 0 or not stdout.startswith(b"usage:"):
            failed += 1
            log(f"FAILED qud {' '.join(argv[2:])}: exit {code}")

    start = time.perf_counter()
    deadline = start + seconds
    while passes < MIN_PASSES[scale] or time.perf_counter() < deadline:
        if passes and time.perf_counter() - start > HARD_STOP_S:
            break
        for i, cmd in enumerate(cmds):
            elapsed = time.perf_counter() - start
            while len(setup_walls) < min(reps, reps * elapsed / seconds):
                take_setup()
                elapsed = time.perf_counter() - start
            res, dt, rss_kb = run_qud(cmd, tmpdir, env)
            times[i].append(dt)
            rss[i].append(rss_kb)
            attempted += 1
            error = cmd.check(res)
            if error:
                failed += 1
                log(f"FAILED {cmd.text()}: {error}")
            digests[i].add(hashlib.sha256(res.output or res.stdout).hexdigest())
        passes += 1
    while len(setup_walls) < reps:
        take_setup()
    work = sum(c.work for c in cmds)
    wall_s = sum(statistics.median(t) for t in times)
    values = {
        "wall_s": wall_s,
        "samples_per_s": work / wall_s,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": max(statistics.median(r) for r in rss) / 1024.0,
    }
    pass_walls = [sum(t[p] for t in times) for p in range(passes)]
    identical = sum(len(d) == 1 for d in digests)
    log(f"passes: {passes} (pass wall min {min(pass_walls):.4f} s, max "
        f"{max(pass_walls):.4f} s); work per pass: {work} samples x relations/kinds")
    log(f"setup: median of {reps} `qud <cmd> --help` runs spread over the passes")
    log(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} commands)")
    log(f"reports byte-identical across passes: {identical} of {len(cmds)} commands "
        "(informational)")
    for name, value in values.items():
        log(f"{name:14s} {value:14.6g} {END_TO_END_UNITS[name]}")
    return {n: (v, END_TO_END_UNITS[n]) for n, v in values.items()}, attempted, failed


def run_traced(workload, seed, seconds, scale, tmpdir, log):
    sys.path.insert(0, str(SRC))
    import layers

    env = child_env()
    start = time.perf_counter()
    rounds, attempted, failed, observed = [], 0, 0, None
    tracer = None
    while not rounds or (time.perf_counter() - start < min(seconds, HARD_STOP_S)):
        probe = layers.Probe(workload, seed, scale, tmpdir, f"{workload}-{seed}-{len(rounds)}")
        values = probe.run()
        values["cli.import_s"] = import_time(tmpdir, env, 5 if scale == "full" else 1)
        rounds.append(values)
        attempted += probe.attempted
        failed += probe.failed
        for message in probe.failures:
            log(f"FAILED {message}")
        observed = observed or probe.observed
        tracer = probe.tracer
    metrics = {name: statistics.median(r[name] for r in rounds) for name in layers.METRICS}
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_path, {"observed": observed, "metrics": metrics})
    log(f"rounds: {len(rounds)}; spans of the last round written to "
        f"{trace_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        unit, better, moves = layers.METRICS[name]
        log(f"{name:58s} {value:12.6g} {unit:10s} moves {moves}")
    log("observed (fixed-seed counts; reference for a --stats sidecar):")
    log(json.dumps(observed, sort_keys=True))
    return ({n: (v, layers.METRICS[n][0]) for n, v in metrics.items()}, attempted,
            failed)


def import_time(tmpdir: Path, env: dict, reps: int) -> float:
    code = ("import time; t = time.perf_counter(); import qud.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        exit_code, stdout, _, _ = spawn(["-c", code], tmpdir, env)
        if exit_code != 0:
            raise RuntimeError(f"`import qud.cli` failed with exit code {exit_code}")
        times.append(float(stdout))
    return statistics.median(times)


def main(argv=None, scale: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qud" / "cli.py").is_file():
        print(f"error: no qud sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    cap_threads()

    def log(line: str) -> None:
        print(f"# {line}", flush=True)

    log(f"qud benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} scale={scale}")
    log("provenance: " + json.dumps(provenance(), sort_keys=True))
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed = run(args.workload, args.seed, args.seconds, scale,
                                         tmpdir, log)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
