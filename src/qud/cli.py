"""Command-line front end.

Eight subcommands: verify, dpi, search, volume, table2, region, coherence,
shots. Reports are CSV (default) or JSON with identical records, carry full
provenance (seed, samples, variant, log base), contain no timestamps, and
are therefore byte-identical across repeated invocations. Exit codes:
0 completed (relation satisfied / no counterexample), 1 violation or
counterexample found, 2 input error.
"""

import argparse
import csv
import io
import json
import math
import sys

from .divergence import DIVERGENCE_KINDS, DivergenceSpec
from .errors import DimensionMismatch, QudError, SchemaError
from .experiments import (
    MIN_VOLUME_SAMPLES,
    SHOT_KINDS,
    TABLE2_REFERENCE,
    VOLUME_DIMS,
    coherence_bounds,
    estimate_coherence,
    estimate_volume,
    estimate_volumes,
    region_grid,
    simulate_shots,
)
from .io import _basis_record, _state_record, load_basis, load_state
from .qstate import (
    _haar_instances,
    make_basis,
    make_density,
    outcome_dist,
    overlap_matrix,
)
from .relations import (
    RELATION_IDS,
    RelationId,
    eval_with_dual,
    search_counterexample,
    table2_relations,
)
from .rng import stream
from .sweeps import dpi_margins, haar_triples

DPI_EXIT_TOL = -1e-8


def _base_value(label: str) -> float:
    return 2.0 if label == "2" else math.e


def _int_at_least(low: int):
    """argparse type for integers >= low, so a bad value fails at parse time."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports unparsable text as "invalid int value"
    return parse


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _emit(columns, rows, args) -> None:
    if args.format == "json":
        payload = {
            "columns": list(columns),
            "rows": [{k: _jsonable(v) for k, v in row.items()} for row in rows],
        }
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(column)) for column in columns])
        body = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _relation_from_args(args) -> RelationId:
    return RelationId(args.relation, args.variant, args.alpha, args.beta)


def _load_instance(args):
    """(state, basis A, basis B, source) from files or a seeded Haar draw."""
    paths = (args.state, args.basis_a, args.basis_b)
    if any(paths):
        if not all(paths):
            raise SchemaError("need all of --state, --basis-a, --basis-b to load files")
        rho = load_state(args.state)
        a = load_basis(args.basis_a)
        b = load_basis(args.basis_b)
        if not rho.dim == a.dim == b.dim:
            raise DimensionMismatch(
                f"file dimensions differ: state {rho.dim}, bases {a.dim}/{b.dim}"
            )
        if args.dim is not None and args.dim != rho.dim:
            raise DimensionMismatch(f"--dim {args.dim} but files have dim {rho.dim}")
        return rho, a, b, "files"
    dim = args.dim if args.dim is not None else 2
    rho, ua, ub = _haar_instances(stream(args.seed), 1, dim)
    return make_density(rho[0]), make_basis(ua[0]), make_basis(ub[0]), "sampled"


def _cmd_verify(args) -> int:
    rel = _relation_from_args(args)
    rho, a, b, source = _load_instance(args)
    base = _base_value(args.log_base)
    forward, dual = eval_with_dual(
        rel, outcome_dist(rho, a), outcome_dist(rho, b), overlap_matrix(a, b), base=base
    )
    columns = (
        "relation", "variant", "alpha", "beta", "direction", "lhs", "rhs",
        "margin", "satisfied", "dim", "source", "seed", "log_base",
    )
    shared = {
        "relation": rel.id,
        "variant": rel.variant,
        "alpha": rel.alpha,
        "beta": rel.beta,
        "dim": rho.dim,
        "source": source,
        "seed": args.seed if source == "sampled" else None,
        "log_base": args.log_base,
    }
    rows = [
        dict(shared, direction="forward", lhs=forward.lhs, rhs=forward.rhs,
             margin=forward.margin, satisfied=forward.satisfied),
        dict(shared, direction="dual", lhs=dual.lhs, rhs=dual.rhs,
             margin=dual.margin, satisfied=dual.satisfied),
    ]
    _emit(columns, rows, args)
    return 0 if forward.satisfied and dual.satisfied else 1


def _cmd_dpi(args) -> int:
    spec = DivergenceSpec(args.divergence, args.alpha)
    base = _base_value(args.log_base)
    batch = haar_triples(args.dim, args.samples, args.seed)
    margins = dpi_margins(spec.kind, spec.alpha, batch, base=base)
    columns = ("divergence", "alpha", "dim", "samples", "seed", "index", "margin",
               "log_base")
    rows = [
        {
            "divergence": spec.kind,
            "alpha": spec.alpha,
            "dim": args.dim,
            "samples": args.samples,
            "seed": args.seed,
            "index": i,
            "margin": float(m),
            "log_base": args.log_base,
        }
        for i, m in enumerate(margins)
    ]
    _emit(columns, rows, args)
    return 0 if float(margins.min()) >= DPI_EXIT_TOL else 1


def _cmd_search(args) -> int:
    rel = _relation_from_args(args)
    base = _base_value(args.log_base)
    found = search_counterexample(rel, args.dim, args.samples, args.seed, base=base)
    columns = (
        "relation", "variant", "alpha", "beta", "dim", "samples", "seed",
        "found", "sample_index", "lhs", "rhs", "margin", "state", "basis_a",
        "basis_b", "log_base",
    )
    row = {
        "relation": rel.id,
        "variant": rel.variant,
        "alpha": rel.alpha,
        "beta": rel.beta,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "found": found is not None,
        "log_base": args.log_base,
    }
    if found is not None:
        row.update(
            sample_index=found.sample_index,
            lhs=found.verdict.lhs,
            rhs=found.verdict.rhs,
            margin=found.verdict.margin,
            state=_state_record(found.state),
            basis_a=_basis_record(found.basis_a),
            basis_b=_basis_record(found.basis_b),
        )
    _emit(columns, [row], args)
    return 1 if found is not None else 0


VOLUME_COLUMNS = ("relation", "variant", "alpha", "dim", "samples", "seed",
                  "volume", "std_error")


def _volume_row(est) -> dict:
    rel = est.relation
    return {
        "relation": rel.id,
        "variant": rel.variant,
        "alpha": rel.alpha,
        "dim": est.dim,
        "samples": est.samples,
        "seed": est.seed,
        "volume": est.volume,
        "std_error": est.std_error,
    }


def _cmd_volume(args) -> int:
    rel = _relation_from_args(args)
    est = estimate_volume(rel, args.dim, args.samples, args.seed, workers=args.workers)
    _emit(VOLUME_COLUMNS, [_volume_row(est)], args)
    return 0


def _cmd_table2(args) -> int:
    relations = list(table2_relations())
    relations.append(RelationId("U_ts", "printed", 0.5))
    rows = []
    reference = TABLE2_REFERENCE.get(args.dim, {})
    estimates = estimate_volumes(relations, args.dim, args.samples, args.seed,
                                 workers=args.workers)
    for rel, est in zip(relations, estimates):
        row = _volume_row(est)
        if args.compare:
            ref = reference.get(rel.label())
            row["reference"] = ref
            row["gap"] = None if ref is None else est.volume - ref
        rows.append(row)
    columns = VOLUME_COLUMNS + (("reference", "gap") if args.compare else ())
    _emit(columns, rows, args)
    return 0


def _cmd_region(args) -> int:
    rel = _relation_from_args(args)
    grid = region_grid(rel, args.c00, args.resolution)
    axis = [i / (args.resolution - 1) for i in range(args.resolution)]
    label = rel.label()
    rows = [
        {"relation": label, "c00": args.c00, "p0": axis[i], "q0": axis[j],
         "admissible": bool(grid[i, j])}
        for i in range(args.resolution)
        for j in range(args.resolution)
    ]
    _emit(("relation", "c00", "p0", "q0", "admissible"), rows, args)
    return 0


def _cmd_coherence(args) -> int:
    rho, a, b, source = _load_instance(args)
    base = _base_value(args.log_base)
    if args.shots is not None:
        sequential = simulate_shots(rho, a, b, args.shots, args.seed)
        direct = simulate_shots(rho, None, b, args.shots, args.seed + 1)
        lower, upper = estimate_coherence(direct, sequential, args.smoothing, base=base)
        if math.isinf(lower):
            print("warn: lower estimate unbounded (empirical support violation)",
                  file=sys.stderr)
        rows = [{
            "lower_estimate": lower,
            "upper_estimate": upper,
            "shots": args.shots,
            "smoothing": args.smoothing,
            "seed": args.seed,
            "source": source,
            "base": base,
            "unbounded": math.isinf(lower),
        }]
        _emit(("lower_estimate", "upper_estimate", "shots", "smoothing", "seed",
               "source", "base", "unbounded"), rows, args)
        return 0
    bounds = coherence_bounds(rho, a, b, base=base)
    rows = [{"upper": bounds.upper, "exact": bounds.exact, "lower": bounds.lower,
             "base": bounds.base}]
    _emit(("upper", "exact", "lower", "base"), rows, args)
    return 0


def _cmd_shots(args) -> int:
    rho, a, b, source = _load_instance(args)
    if args.kind == "direct_B":
        record = simulate_shots(rho, None, b, args.n, args.seed)
        cells = [(i, None, int(record.counts[i])) for i in range(record.dim)]
    else:
        record = simulate_shots(rho, a, b, args.n, args.seed)
        cells = [
            (i, j, int(record.counts[i, j]))
            for i in range(record.dim)
            for j in range(record.dim)
        ]
    rows = [
        {"kind": record.kind, "dim": record.dim, "total": record.total,
         "seed": record.seed, "source": source, "i": i, "j": j, "count": count}
        for i, j, count in cells
    ]
    _emit(("kind", "dim", "total", "seed", "source", "i", "j", "count"), rows, args)
    return 0


def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.add_argument("--log-base", dest="log_base", choices=("2", "e"), default="2")


def _add_relation_flags(p) -> None:
    p.add_argument("--relation", required=True, choices=RELATION_IDS)
    p.add_argument("--variant", choices=("canonical", "printed"), default="canonical")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)


def _add_instance_flags(p) -> None:
    p.add_argument("--state", default=None, help="state JSON file")
    p.add_argument("--basis-a", dest="basis_a", default=None, help="first (dephasing) basis")
    p.add_argument("--basis-b", dest="basis_b", default=None, help="second basis")
    p.add_argument("--dim", type=_int_at_least(2), default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)


def _add_volume_flags(p) -> None:
    p.add_argument("--dim", type=int, choices=VOLUME_DIMS, default=2)
    p.add_argument("--samples", type=_int_at_least(MIN_VOLUME_SAMPLES), default=1000000)


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
    p.add_argument("--dim", type=_int_at_least(2), default=2)
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_dpi)

    p = sub.add_parser("search", help="look for a relation counterexample")
    _add_relation_flags(p)
    p.add_argument("--dim", type=_int_at_least(2), default=2)
    p.add_argument("--samples", type=_int_at_least(1), default=10000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("volume", help="Monte-Carlo feasible-region volume")
    _add_relation_flags(p)
    _add_volume_flags(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_volume)

    p = sub.add_parser("table2", help="volumes for the tabulated relation set")
    _add_volume_flags(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--compare", action="store_true",
                   help="add reference and gap columns")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_table2)

    p = sub.add_parser("region", help="admissible (p0, q0) grid at fixed c00")
    _add_relation_flags(p)
    p.add_argument("--c00", type=float, required=True)
    p.add_argument("--resolution", type=_int_at_least(2), default=101)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("coherence", help="coherence bounds, exact or from shots")
    _add_instance_flags(p)
    p.add_argument("--shots", type=_int_at_least(1), default=None)
    p.add_argument("--smoothing", type=float, default=0.5)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_coherence)

    p = sub.add_parser("shots", help="simulate measurement shot counts")
    _add_instance_flags(p)
    p.add_argument("--kind", choices=SHOT_KINDS, default="direct_B")
    p.add_argument("--n", type=_int_at_least(0), default=1000)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_shots)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (QudError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
