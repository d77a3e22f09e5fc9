"""The benchmark's workloads: seeded qud command lists and their output checks.

Each workload is a list of `qud` CLI invocations generated from the
benchmark seed; the program sees only these arguments. Every command has a
check on its exit code and report, and a work count (samples x relations,
or samples x divergence kinds, evaluated) for the throughput metric.

Why these three:
- table2-d2: the d=2 draw is cheap (uniform cube), so the relation kernels
  (relations, divergence, uncertainty) dominate. A Haar-sampler change must
  predict no change here.
- table2-d3: the Dirichlet + Haar draw dominates and is redone for each of
  the 8 relations; two workers exercise the experiments thread pool.
- sweep-d3: one large haar_triples batch per dpi command (eigh-heavy
  kernels plus report emission, alternating CSV and JSON) and canonical
  searches that scan their full budget in 4096-sample chunks. It mirrors
  the acceptance gate's soundness sweep.
"""

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent

WORKLOADS = ("table2-d2", "table2-d3", "sweep-d3")

# Sizes are multiples of the 65536-sample volume chunk (and of the 4096
# search chunk), so no run ends on a ragged tail chunk.
SIZES = {
    "full": {"table2": {2: 1 << 19, 3: 1 << 18}, "dpi": 1 << 16, "search": 1 << 16},
    "tiny": {"table2": {2: 1 << 16, 3: 1 << 16}, "dpi": 1 << 12, "search": 1 << 12},
}

# (relation, variant, alpha, beta): the rows `qud table2` reports.
TABLE2_ROWS = (
    ("U_tr", "canonical", None, None),
    ("U_tr_prime", "canonical", None, None),
    ("U_rd", "canonical", 0.5, None),
    ("U_re", "canonical", None, None),
    ("U_ts", "canonical", 0.5, None),
    ("U_hs", "canonical", None, None),
    ("EUR_MU", "canonical", 1.0, 1.0),
    ("U_ts", "printed", 0.5, None),
)

# Canonical searches with no hit at d=3: they scan the whole budget.
SEARCH_RELATIONS = tuple(r for r in TABLE2_ROWS if r[1] == "canonical") + (
    ("THM1_UNIVERSAL", "canonical", None, None),
)

# (kind, alpha) for the dpi commands; formats alternate csv/json.
DPI_KINDS = (
    ("trace", None),
    ("infidelity", None),
    ("renyi_sandwiched", 0.75),
    ("tsallis", 0.5),
    ("relative_entropy", None),
    ("hilbert_schmidt", None),
)

DPI_EXIT_TOL = -1e-8
VOLUME_SIGMAS = 5.0


def label(relation, variant="canonical", alpha=None) -> str:
    """Metric-safe relation label, e.g. U_rd-a0.5 or U_ts-a0.5-printed."""
    out = relation
    if alpha is not None:
        out += f"-a{float(alpha):g}"
    if variant != "canonical":
        out += f"-{variant}"
    return out


def load_expected(path=BENCH / "expected.json") -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Result:
    exit_code: int
    stdout: bytes
    output: bytes | None  # contents of --output, when the command has one


@dataclass
class Command:
    argv: list
    work: int
    check: Callable[[Result], str | None]
    output: Path | None = None

    def text(self) -> str:
        return "qud " + " ".join(self.argv)


def _relation_flags(relation, variant, alpha, beta) -> list:
    flags = ["--relation", relation]
    if variant != "canonical":
        flags += ["--variant", variant]
    if alpha is not None:
        flags += ["--alpha", f"{alpha:g}"]
    if beta is not None:
        flags += ["--beta", f"{beta:g}"]
    return flags


def _csv_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def volume_error(key: str, dim: int, volume: float, se: float, expected: dict):
    """None when `volume` lies within 5 combined SEs of the expected cell."""
    cells = expected["volumes"][str(dim)]
    if key not in cells:
        return f"no expected volume for {key} at d={dim}"
    ref, ref_se = cells[key]
    tol = VOLUME_SIGMAS * math.hypot(se, ref_se)
    if not abs(volume - ref) <= tol:
        return f"{key} d={dim}: volume {volume:.5f} vs expected {ref:.5f} (tol {tol:.5f})"
    return None


def check_table2(dim: int, samples: int, expected: dict):
    """Row count, sample count, and every volume within 5 combined SEs."""

    def check(res: Result):
        if res.exit_code != 0:
            return f"exit {res.exit_code}"
        rows = _csv_rows(res.stdout)
        if len(rows) != len(TABLE2_ROWS):
            return f"{len(rows)} rows, want {len(TABLE2_ROWS)}"
        for row in rows:
            alpha = float(row["alpha"]) if row["alpha"] else None
            key = label(row["relation"], row["variant"], alpha)
            if int(row["samples"]) != samples:
                return f"{key}: samples {row['samples']}, want {samples}"
            error = volume_error(key, dim, float(row["volume"]), float(row["std_error"]),
                                 expected)
            if error:
                return error
        return None

    return check


def check_dpi(samples: int, fmt: str):
    """Exit 0, one row per sample, every margin >= -1e-8."""

    def check(res: Result):
        if res.exit_code != 0:
            return f"exit {res.exit_code}"
        if fmt == "json":
            rows = json.loads(res.output.decode("utf-8"))["rows"]
        else:
            rows = _csv_rows(res.output)
        if len(rows) != samples:
            return f"{len(rows)} rows, want {samples}"
        worst = min(float(row["margin"]) for row in rows)
        if not worst >= DPI_EXIT_TOL:
            return f"margin {worst:.3g} below {DPI_EXIT_TOL:g}"
        return None

    return check


def check_search(res: Result):
    """A canonical search reports one row with found=false."""
    if res.exit_code != 0:
        return f"exit {res.exit_code}"
    rows = _csv_rows(res.stdout)
    if len(rows) != 1 or rows[0]["found"] != "false":
        return "expected one row with found=false"
    return None


def seeds(seed: int) -> dict:
    """Per-command-group seeds derived from the benchmark seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(1 << 31) for name in ("table2", "dpi", "search")}


def commands(workload: str, seed: int, scale: str, tmpdir: Path,
             expected: dict) -> list:
    sizes = SIZES[scale]
    s = seeds(seed)
    if workload in ("table2-d2", "table2-d3"):
        dim = int(workload[-1])
        n = sizes["table2"][dim]
        argv = ["table2", "--dim", str(dim), "--samples", str(n), "--seed", str(s["table2"])]
        if dim == 3:
            argv += ["--workers", "2"]
        return [Command(argv, n * len(TABLE2_ROWS), check_table2(dim, n, expected))]
    if workload != "sweep-d3":
        raise ValueError(f"unknown workload {workload!r}")
    m, budget = sizes["dpi"], sizes["search"]
    out = []
    for i, (kind, alpha) in enumerate(DPI_KINDS):
        fmt = ("csv", "json")[i % 2]
        path = tmpdir / f"dpi-{kind}.{fmt}"
        argv = ["dpi", "--dim", "3", "--divergence", kind]
        if alpha is not None:
            argv += ["--alpha", f"{alpha:g}"]
        argv += ["--samples", str(m), "--seed", str(s["dpi"]), "--format", fmt,
                 "--output", str(path)]
        out.append(Command(argv, m, check_dpi(m, fmt), path))
    for rel in SEARCH_RELATIONS:
        argv = ["search", "--dim", "3", *_relation_flags(*rel), "--samples", str(budget),
                "--seed", str(s["search"])]
        out.append(Command(argv, budget, check_search))
    return out
