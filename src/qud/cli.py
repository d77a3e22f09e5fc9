"""Command-line front end.

Eight subcommands: verify, dpi, search, volume, table2, region, coherence,
shots. Reports are CSV (default) or JSON with identical records, carry full
provenance (seed, samples, variant, log base), contain no timestamps, and
are therefore byte-identical across repeated invocations. Every report is one
table: each row carries every column, an absent value is an empty CSV cell
and a JSON null, and a non-finite float is a JSON string ("inf", "-inf",
"nan"). Exit codes: 0 completed (relation satisfied / no counterexample),
1 violation or counterexample found, 2 input error or out of memory, 141 the
reader closed the output pipe.
"""

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import types

import numpy as np

from .divergence import DIVERGENCE_KINDS, _check_divergence
from .errors import QudError, ValidationError
from .experiments import (
    MIN_VOLUME_SAMPLES,
    SHOT_KINDS,
    TABLE2_REFERENCE,
    VOLUME_DIMS,
    _grid_axis,
    coherence_bounds,
    estimate_coherence,
    estimate_volumes,
    region_grid,
    simulate_shots,
)
from .io import _basis_record, _state_record, load_basis, load_state
from .qstate import _haar_frames, make_basis, make_density, standard_basis
from .relations import (
    RELATION_IDS,
    RelationId,
    eval_with_dual,
    search_counterexample,
    table2_relations,
)
from .rng import MAX_WORKERS, stream
from .sweeps import dpi_scan

DPI_EXIT_TOL = -1e-8
# Most threads `--workers` defaults to: the count whose time and memory have
# been measured, on a 2-vCPU host. Up to MAX_WORKERS may be asked for.
MAX_DEFAULT_WORKERS = 2
MAX_SHOTS = 2**63 - 1  # the most numpy's multinomial draw takes
_BLOCK_ROWS = 4096  # report rows rendered and written at a time
_BOOL_TEXT = ("false", "true")  # indexed by a bool
# the CSV text of one row: writerow returns what its file's write returns
_CSV_LINE = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow


def _base_value(label: str) -> float:
    return 2.0 if label == "2" else math.e


def _default_workers() -> int:
    """The CPUs this process may run on, at most MAX_DEFAULT_WORKERS."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        usable = os.cpu_count() or 1
    return min(usable, MAX_DEFAULT_WORKERS)


def _bounded(kind: type, low, high=None):
    """argparse type for a finite `kind` (int or float) value >= low (and
    <= high, if given), so a bad value fails at parse time."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = kind.__name__  # unparsable text is an "invalid int/float value"
    return parse


def _cell(value) -> str:
    """One CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _json_cell(value) -> str:
    """One JSON cell as json.dumps(payload, indent=2, sort_keys=True) writes it
    in a row, six spaces deep; a non-finite float becomes a string."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{value}"'
    if isinstance(value, dict):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n      ")
    return int.__repr__(value) if type(value) is int else json.dumps(value)


def _literal(text: str) -> str:
    """`text` as a literal part of a %-template."""
    return text.replace("%", "%%")


def _block_texts(part, render, float_text) -> list:
    """The cell texts of one block of a varying column, in one C-level pass.

    An array goes through .tolist() first (numpy 2 reprs its own scalars as
    np.float64(...)). Its bools and integers render alike in CSV and JSON,
    and its floats with `float_text` where the block holds no inf or nan.
    Every other cell, of a list or of any other block, takes `render`.
    """
    text = render
    if isinstance(part, np.ndarray):
        kind = part.dtype.kind
        if kind == "b":
            text = _BOOL_TEXT.__getitem__
        elif kind in "iu":
            text = int.__repr__
        elif kind == "f" and np.isfinite(part).all():
            text = float_text
        part = part.tolist()
    return list(map(text, part))


def _emit(table: dict, args) -> None:
    """Write one report. `table` maps each column name, in output order, to a
    constant (str, int, float, bool, None or a dict record) or to a list or
    1-d array with one value per row; a table of constants is one row.

    JSON is the text of json.dumps(payload, indent=2, sort_keys=True), CSV
    that of a csv.writer(out, lineterminator="\\n") given the header and every
    row. A format is a head, a row template holding the rendered constants,
    a row separator, a tail and its cell renderers. The varying columns are
    rendered and written _BLOCK_ROWS rows at a time, one template fill a
    block, so the writer holds one block of text however many rows the
    report has. A table whose varying columns differ in length raises
    ValueError before anything is written.
    """
    varying = {k for k, v in table.items() if isinstance(v, (list, np.ndarray))}
    lengths = sorted({len(table[k]) for k in varying})
    if len(lengths) > 1:
        raise ValueError(f"report columns differ in length: {lengths}")
    rows = lengths[0] if lengths else 1
    if args.format == "json":
        keys = sorted(table)
        head = json.dumps({"columns": list(table)}, indent=2)[:-2] + ',\n  "rows": [\n    {\n'
        row = ",\n".join(
            _literal(f"      {json.dumps(k)}: ")
            + ("%s" if k in varying else _literal(_json_cell(table[k])))
            for k in keys)
        sep, tail = "\n    },\n    {\n", "\n    }\n  ]\n}\n"
        render, float_text = _json_cell, float.__repr__
    else:
        keys = list(table)
        # csv quotes the header, constants and list cells (numeric cells need
        # none); a one-field record is quoted when empty, a wider one's is not
        pad = ("",) if len(table) > 1 else ()

        def render(value) -> str:
            return _CSV_LINE((_cell(value), *pad))[:-1 - len(pad)]

        head = _CSV_LINE(keys)
        row = _CSV_LINE(["%s" if k in varying else _literal(_cell(table[k])) for k in keys])
        sep, tail = "", ""
        float_text = "%.12g".__mod__
    fields = [table[k] for k in keys if k in varying]
    target = (contextlib.nullcontext(sys.stdout) if args.output is None
              else open(args.output, "w", encoding="utf-8"))
    with target as out:
        out.write(head)
        for start in range(0, rows, _BLOCK_ROWS):
            n = min(_BLOCK_ROWS, rows - start)
            # the %s fields of the block's template, filled row by row
            cells = [None] * (n * len(fields))
            for j, part in enumerate(fields):
                cells[j::len(fields)] = _block_texts(part[start:start + n], render, float_text)
            if start:
                out.write(sep)
            out.write((sep.join([row] * n) if sep else row * n) % tuple(cells))
        out.write(tail)


def _relation_from_args(args) -> RelationId:
    return RelationId(args.relation, args.variant, args.alpha, args.beta)


def _load_instance(args):
    """(state, basis A, basis B, source) from files or a seeded Haar draw;
    `main` has refused a partial set of file flags."""
    if args.state is not None:
        rho = load_state(args.state)
        a = load_basis(args.basis_a)
        b = load_basis(args.basis_b)
        if not rho.dim == a.dim == b.dim:
            raise ValidationError(
                f"file dimensions differ: state {rho.dim}, bases {a.dim}/{b.dim}"
            )
        if args.dim is not None and args.dim != rho.dim:
            raise ValidationError(f"--dim {args.dim} but files have dim {rho.dim}")
        return rho, a, b, "files"
    dim = args.dim if args.dim is not None else 2
    rho, w = _haar_frames(stream(args.seed), 1, dim, pure=False)
    return make_density(rho[0]), standard_basis(dim), make_basis(w[0]), "sampled"


def _cmd_verify(args) -> int:
    rel = _relation_from_args(args)
    rho, a, b, source = _load_instance(args)
    forward, dual = eval_with_dual(rel, rho, a, b, _base_value(args.log_base))
    _emit({
        "relation": rel.id,
        "variant": rel.variant,
        "alpha": rel.alpha,
        "beta": rel.beta,
        "direction": ["forward", "dual"],
        "lhs": [forward.lhs, dual.lhs],
        "rhs": [forward.rhs, dual.rhs],
        "margin": [forward.margin, dual.margin],
        "satisfied": [forward.satisfied, dual.satisfied],
        "dim": rho.dim,
        "source": source,
        "seed": args.seed if source == "sampled" else None,
        "log_base": args.log_base,
    }, args)
    return 0 if forward.satisfied and dual.satisfied else 1


def _cmd_dpi(args) -> int:
    _check_divergence(args.divergence, args.alpha)
    base = _base_value(args.log_base)
    margins = dpi_scan(args.divergence, args.alpha, args.dim, args.samples, args.seed,
                       base=base)
    _emit({
        "divergence": args.divergence,
        "alpha": args.alpha,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "index": np.arange(len(margins)),
        "margin": margins,
        "log_base": args.log_base,
    }, args)
    return 0 if float(margins.min()) >= DPI_EXIT_TOL else 1


def _cmd_search(args) -> int:
    rel = _relation_from_args(args)
    base = _base_value(args.log_base)
    found = search_counterexample(rel, args.dim, args.samples, args.seed, base=base)
    hit = (None,) * 7 if found is None else (
        found.sample_index, found.verdict.lhs, found.verdict.rhs, found.verdict.margin,
        _state_record(found.state), _basis_record(found.basis_a),
        _basis_record(found.basis_b),
    )
    _emit({
        "relation": rel.id,
        "variant": rel.variant,
        "alpha": rel.alpha,
        "beta": rel.beta,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "found": found is not None,
        **dict(zip(("sample_index", "lhs", "rhs", "margin", "state", "basis_a",
                    "basis_b"), hit)),
        "log_base": args.log_base,
    }, args)
    return 1 if found is not None else 0


def _volume_table(estimates, args) -> dict:
    """The volume and table2 report: one row per estimate."""
    return {
        "relation": [est.relation.id for est in estimates],
        "variant": [est.relation.variant for est in estimates],
        "alpha": [est.relation.alpha for est in estimates],
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "volume": [est.volume for est in estimates],
        "std_error": [est.std_error for est in estimates],
    }


def _cmd_volume(args) -> int:
    estimates = estimate_volumes([_relation_from_args(args)], args.dim, args.samples,
                                 args.seed, workers=args.workers)
    _emit(_volume_table(estimates, args), args)
    return 0


def _cmd_table2(args) -> int:
    relations = [*table2_relations(), RelationId("U_ts", "printed", 0.5)]
    estimates = estimate_volumes(relations, args.dim, args.samples, args.seed,
                                 workers=args.workers)
    table = _volume_table(estimates, args)
    if args.compare:
        reference = TABLE2_REFERENCE.get(args.dim, {})
        refs = [reference.get(rel.label()) for rel in relations]
        table["reference"] = refs
        table["gap"] = [None if ref is None else est.volume - ref
                        for ref, est in zip(refs, estimates)]
    _emit(table, args)
    return 0


def _cmd_region(args) -> int:
    rel = _relation_from_args(args)
    grid = region_grid(rel, args.c00, args.resolution)
    axis = _grid_axis(args.resolution)
    _emit({
        "relation": rel.label(),
        "c00": args.c00,
        "p0": np.repeat(axis, args.resolution),
        "q0": np.tile(axis, args.resolution),
        "admissible": grid.ravel(),
    }, args)
    return 0


def _cmd_coherence(args) -> int:
    rho, a, b, source = _load_instance(args)
    base = _base_value(args.log_base)
    if args.shots is not None:
        smoothing = 0.5 if args.smoothing is None else args.smoothing
        sequential = simulate_shots(rho, a, b, args.shots, args.seed)
        direct = simulate_shots(rho, None, b, args.shots, args.seed)
        lower, upper = estimate_coherence(direct, sequential, smoothing, base=base)
        if math.isinf(lower):
            print("warn: lower estimate unbounded (empirical support violation)",
                  file=sys.stderr)
        _emit({
            "lower_estimate": lower,
            "upper_estimate": upper,
            "shots": args.shots,
            "smoothing": smoothing,
            "seed": args.seed,
            "source": source,
            "log_base": args.log_base,
            "unbounded": math.isinf(lower),
        }, args)
        return 0
    upper, exact, lower = coherence_bounds(rho, a, b, base=base)
    _emit({"upper": upper, "exact": exact, "lower": lower, "log_base": args.log_base}, args)
    return 0


def _cmd_shots(args) -> int:
    rho, a, b, source = _load_instance(args)
    counts = simulate_shots(rho, a if args.kind == "sequential_AB" else None, b, args.n,
                            args.seed)
    # direct_B counts are indexed by i alone, sequential_AB counts by (i, j)
    i, *j = np.indices(counts.shape).reshape(counts.ndim, -1)
    _emit({
        "kind": args.kind,
        "dim": rho.dim,
        "total": args.n,
        "seed": args.seed,
        "source": source,
        "i": i,
        "j": j[0] if j else None,
        "count": counts.ravel(),
    }, args)
    return 0


def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def _add_relation_flags(p) -> None:
    p.add_argument("--relation", required=True, choices=RELATION_IDS)
    p.add_argument("--variant", choices=("canonical", "printed"), default="canonical")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)


def _add_instance_flags(p) -> None:
    p.add_argument("--state", default=None, help="state JSON file")
    p.add_argument("--basis-a", dest="basis_a", default=None, help="first (dephasing) basis")
    p.add_argument("--basis-b", dest="basis_b", default=None, help="second basis")
    p.add_argument("--dim", type=_bounded(int, 2), default=None)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)


def _add_volume_flags(p) -> None:
    p.add_argument("--dim", type=int, choices=VOLUME_DIMS, default=2)
    p.add_argument("--samples", type=_bounded(int, MIN_VOLUME_SAMPLES), default=1000000)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--workers", type=_bounded(int, 1, MAX_WORKERS), default=_default_workers(),
                   help=f"threads, each holding one chunk (default: the usable CPUs, at most "
                        f"{MAX_DEFAULT_WORKERS})")


@functools.cache  # parsing leaves the parser unchanged, so a process builds it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qud",
        description="Uncertainty-disturbance trade-offs for sequential measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate a relation and its dual on one instance")
    _add_relation_flags(p)
    _add_instance_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("dpi", help="data-processing margins over a Haar ensemble")
    p.add_argument("--divergence", required=True, choices=DIVERGENCE_KINDS)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--dim", type=_bounded(int, 2), default=2)
    p.add_argument("--samples", type=_bounded(int, 1), default=1000)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_dpi)

    p = sub.add_parser("search", help="look for a relation counterexample")
    _add_relation_flags(p)
    p.add_argument("--dim", type=_bounded(int, 2), default=2)
    p.add_argument("--samples", type=_bounded(int, 1), default=10000)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("volume", help="Monte-Carlo feasible-region volume")
    _add_relation_flags(p)
    _add_volume_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_volume)

    p = sub.add_parser("table2", help="volumes for the tabulated relation set")
    _add_volume_flags(p)
    p.add_argument("--compare", action="store_true",
                   help="add reference and gap columns")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_table2)

    p = sub.add_parser("region", help="admissible (p0, q0) grid at fixed c00")
    _add_relation_flags(p)
    p.add_argument("--c00", type=_bounded(float, 0.0, 1.0), required=True)
    p.add_argument("--resolution", type=_bounded(int, 2), default=101)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("coherence", help="coherence bounds, exact or from shots")
    _add_instance_flags(p)
    p.add_argument("--shots", type=_bounded(int, 1, MAX_SHOTS), default=None)
    p.add_argument("--smoothing", type=_bounded(float, 0.0), default=None,
                   help="pseudo-counts per cell of the --shots estimate (default: 0.5)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_coherence)

    p = sub.add_parser("shots", help="simulate measurement shot counts")
    _add_instance_flags(p)
    p.add_argument("--kind", choices=SHOT_KINDS, default="direct_B")
    p.add_argument("--n", type=_bounded(int, 0, MAX_SHOTS), default=1000)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_shots)

    for name in ("verify", "dpi", "search", "coherence"):  # the commands that take logs
        sub.choices[name].add_argument("--log-base", dest="log_base", choices=("2", "e"),
                                       default="2")
    for p in sub.choices.values():  # main's own refusals print the subcommand's usage
        p.set_defaults(refuse=p.error)
    return parser


def _check_output(path) -> None:
    """Refuse an --output that is empty, a directory or whose parent is not
    one, before any work is done. The file itself is opened only once the
    report is ready, so a failed command leaves none behind."""
    if path is None:
        return
    if not path:
        raise ValueError("--output: the path is empty")
    if os.path.isdir(path):
        raise ValueError(f"--output: {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--output: {path}: {parent} is not a directory")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # smoothing acts on shot counts only: the exact bracket would ignore it
    if args.command == "coherence" and args.smoothing is not None and args.shots is None:
        args.refuse("argument --smoothing: needs --shots")
    # an instance is read from all three files or drawn, never from some of them
    files = [(flag, getattr(args, flag[2:].replace("-", "_"), None))
             for flag in ("--state", "--basis-a", "--basis-b")]
    given = [flag for flag, path in files if path is not None]
    if 0 < len(given) < len(files):
        missing = " and ".join(flag for flag, path in files if path is None)
        args.refuse(f"argument {given[0]}: needs {missing}")
    try:
        _check_output(args.output)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: as the Python docs advise for SIGPIPE, point
        # stdout at devnull so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    except (QudError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold, not a violation
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
