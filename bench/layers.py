"""Per-layer probes for the traced run (`run.py --trace 1`).

A probe round calls qud's public API on inputs the benchmark builds from
its seed, with the tracer's spans around every public qud function, and
derives one value per metric in METRICS from the spans:

- the workload's own commands run in process through `cli.main`, each
  untraced and traced in alternating order: the difference is
  `trace.overhead_s`, and the spans' self times, summed by module, give
  `workload.self_s.<layer>`;
- layer probes time single public calls (median of a few repeats). The
  draw inside `estimate_volume` is private, so its share is derived by
  subtraction: estimate_volume minus the forward+dual relation_sides and
  satisfied_mask work on an equal number of the benchmark's own samples.

Each metric carries the end-to-end metric and workload it should move.
"""

import contextlib
import io
import statistics

import numpy as np

from qud import cli, experiments, relations, sweeps
from qud import divergence, uncertainty
from qud.relations import RelationId

import workloads
from spans import Tracer

SIZES = {
    # haar: haar_triples probes; volume: estimate_volume and accept rows;
    # kernel: uncertainty/divergence rows; report: dpi rows for cli.report.
    "full": {"haar": 1 << 15, "volume": {2: 1 << 18, 3: 1 << 17}, "kernel": 1 << 20,
             "report": 1 << 15, "reps": 3},
    "tiny": {"haar": 1 << 10, "volume": {2: 1 << 16, 3: 1 << 16}, "kernel": 1 << 12,
             "report": 1 << 10, "reps": 1},
}

TABLE2 = tuple(RelationId(r, v, a, b) for r, v, a, b in workloads.TABLE2_ROWS)
SEARCH = tuple(RelationId(r, v, a, b) for r, v, a, b in workloads.SEARCH_RELATIONS)
CATALOG = (
    RelationId("U_tr"),
    RelationId("U_tr_prime"),
    RelationId("U_rd", alpha=0.5),
    RelationId("U_if"),
    RelationId("U_ts", alpha=0.5),
    RelationId("U_re"),
    RelationId("U_hs"),
    RelationId("THM1_UNIVERSAL"),
    RelationId("EUR_TS", alpha=0.5),
    RelationId("EUR_MU", alpha=1.0, beta=1.0),
)

HAAR_PROBES = (("d2_mixed", 2, False), ("d3_mixed", 3, False), ("d4_mixed", 4, False),
               ("d3_pure", 3, True))

UNCERTAINTY_PROBES = (
    ("delta_measure", ()),
    ("shannon_entropy", ()),
    ("renyi_entropy", (0.5,)),
    ("half_norm_measure", ()),
)
DIVERGENCE_PROBES = (
    ("l1_distance", ()),
    ("euclidean_distance", ()),
    ("renyi_divergence", (0.5,)),
    ("kl_divergence", ()),
    ("power_overlap", (0.5,)),
)

# Bytes one d=3 volume sample materialises, computed from array shapes of
# the reference draw (flat-simplex p, q; QR of a complex Ginibre matrix
# with the phase fix; the overlap |U|^2). Computed, not measured.
D3_DRAW_BYTES = {
    "dirichlet p, q: gamma draws + normalised": 2 * 2 * 3 * 8,
    "ginibre real + imaginary normals": 2 * 9 * 8,
    "complex ginibre matrix": 9 * 16,
    "qr factors Q, R": 2 * 9 * 16,
    "phase-fixed unitary": 9 * 16,
    "overlap |U|^2": 9 * 8,
}

# Layers are qud's modules. sweeps and experiments are one group: each
# workload uses only one of them, and a self time that reads 0 on every run
# of a workload would say nothing. qstate and rng have no group: their draws
# run in private helpers that the tracer does not wrap, so draw time lands
# in the public caller's self time (sweeps_experiments or relations), and
# the draw layer is measured by experiments.draw.* and sweeps.haar_triples.*
# instead. io and errors are not measured: no batch job spends measurable
# time in them.
LAYER_OF = {"divergence": "divergence",
            "uncertainty": "uncertainty", "relations": "relations",
            "sweeps": "sweeps_experiments", "experiments": "sweeps_experiments",
            "cli": "cli"}

T2 = "wall_s on table2-d2"
T3 = "wall_s on table2-d3"
SW = "wall_s on sweep-d3"


def _metrics() -> dict:
    """name -> (unit, better, the end-to-end metric and workload it should move)."""
    m = {"cli.import_s": ("s", "lower", "setup_s on every workload")}
    for name, _, _ in HAAR_PROBES:
        m[f"sweeps.haar_triples.{name}.s_per_1e6"] = (
            "s", "lower", f"{SW}; no change on table2-*")
    m["experiments.estimate_volume.d2.s_per_1e6"] = ("s", "lower", T2)
    m["experiments.estimate_volume.d3.s_per_1e6"] = ("s", "lower", T3)
    m["experiments.draw.d2.s_per_1e6"] = ("s", "lower", f"about 0 of {T2}")
    m["experiments.draw.d3.s_per_1e6"] = ("s", "lower", T3)
    m["experiments.estimate_volume.d3.w2_speedup"] = ("ratio", "higher", T3)
    m["experiments.draw.d3.bytes_per_sample_computed"] = ("B", "lower", f"{T3} (computed)")
    for rel in TABLE2:
        m[f"relations.accept.d2.{_label(rel)}.s_per_1e6"] = ("s", "lower", T2)
    m["relations.accept.d3.all.s_per_1e6"] = ("s", "lower", f"{T3} (median of 8 relations)")
    m["relations.search_counterexample.d3.s_per_1e6"] = ("s", "lower", SW)
    for name, _ in UNCERTAINTY_PROBES:
        m[f"uncertainty.{name}.s_per_1e6"] = ("s", "lower", f"{T2} via relations.accept")
    for name, _ in DIVERGENCE_PROBES:
        m[f"divergence.{name}.s_per_1e6"] = ("s", "lower", f"{T2} via relations.accept")
    for kind, _ in workloads.DPI_KINDS:
        m[f"sweeps.dpi_margins.{kind}.d3.s_per_1e6"] = ("s", "lower", SW)
    m["sweeps.chain_margins.d3.s_per_1e6"] = ("s", "lower", SW)
    for rel in CATALOG:
        m[f"sweeps.relation_margins.{_label(rel)}.d3.s_per_1e6"] = ("s", "lower", SW)
    for fmt in ("csv", "json"):
        m[f"cli.report.{fmt}.s_per_1e5_rows"] = ("s", "lower", f"{SW} only")
        m[f"cli.report.{fmt}.bytes_per_row"] = ("B", "lower", f"{SW} only")
    m["trace.overhead_s"] = ("s", "lower", "none (traced minus untraced in-process pass)")
    for layer in sorted(set(LAYER_OF.values())):
        m[f"workload.self_s.{layer}"] = ("s", "lower", "wall_s on the traced workload")
    return m


def _label(rel: RelationId) -> str:
    return workloads.label(rel.id, rel.variant, rel.alpha)


def _accept(rel, p, q, c):
    """Forward and dual verdicts of one relation, as estimate_volume forms them."""
    qp = np.einsum("ni,nij->nj", p, c)
    cmax = c.max(axis=(1, 2))
    forward = relations.satisfied_mask(*relations.relation_sides(rel, p, q, qp, cmax))
    if rel.id == "EUR_MU":  # self-dual: one verdict serves both directions
        return forward, forward
    pp = np.einsum("nij,nj->ni", c, q)
    return forward, relations.satisfied_mask(*relations.relation_sides(rel, q, p, pp, cmax))


class Probe:
    """One round of layer probes; values, checks and counts land on the object."""

    def __init__(self, workload: str, seed: int, scale: str, tmpdir, run_id: str):
        self.workload, self.seed, self.scale, self.tmpdir = workload, seed, scale, tmpdir
        self.sizes = SIZES[scale]
        self.cmd_sizes = workloads.SIZES[scale]
        self.seeds = workloads.seeds(seed)
        self.expected = workloads.load_expected()
        self.rng = np.random.default_rng(seed)
        self.tracer = Tracer(run_id)
        self.values, self.observed, self.failures = {}, {}, []
        self.attempted = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, error):
        self.attempted += 1
        if error:
            self.failures.append(error)

    def timed(self, name, fn, *args, reps=None, **kwargs):
        """Median span duration of `fn(*args)` over repeats, and its last result."""
        times = []
        for _ in range(reps or self.sizes["reps"]):
            with self.tracer.span(f"bench.{name}") as span:
                out = fn(*args, **kwargs)
            times.append(span["end"] - span["start"])
        return statistics.median(times), out

    def run(self) -> dict:
        self.workload_pass()
        self.tracer.instrument()
        try:
            self.volumes()
            self.kernels()
            self.searches()
            self.ensembles()
            self.reports()
        finally:
            self.tracer.restore()
        return self.values

    # -- the workload's own commands, in process ---------------------------

    def _in_process(self, cmd, traced: bool) -> float:
        """Run one command through `cli.main`, check its report, return its wall time."""
        buf = io.StringIO()
        if traced:
            self.tracer.instrument()
        try:
            with contextlib.redirect_stdout(buf):
                with self.tracer.span("bench.command") as span:
                    code = cli.main(list(cmd.argv))
        finally:
            self.tracer.restore()
        output = cmd.output.read_bytes() if cmd.output else None
        error = cmd.check(workloads.Result(code, buf.getvalue().encode(), output))
        self.check(error and f"in-process {cmd.text()}: {error}")
        return span["end"] - span["start"]

    def workload_pass(self):
        """The workload's commands, each run untraced and traced, in process.

        The first command of each subcommand runs once untimed at full size,
        so first-call costs (lazy imports, fresh pages for the large arrays)
        land in neither mode. The order then alternates from one
        untraced/traced pair to the next; a one-command workload runs two
        pairs (untraced, traced, traced, untraced), so a steady drift of the
        host cancels out.
        """
        cmds = workloads.commands(self.workload, self.seed, self.scale, self.tmpdir,
                                  self.expected)
        for warm in {c.argv[0]: c for c in reversed(cmds)}.values():
            self._in_process(warm, traced=False)
        pairs = cmds * (2 if len(cmds) % 2 else 1)
        first = len(self.tracer.spans)
        totals = {False: 0.0, True: 0.0}
        for i, cmd in enumerate(pairs):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                totals[traced] += self._in_process(cmd, traced)
        self.values["trace.overhead_s"] = (totals[True] - totals[False]) * len(cmds) / len(pairs)
        per_layer = dict.fromkeys(sorted(set(LAYER_OF.values())), 0.0)
        selfs = self.tracer.self_times()
        # Spans from worker-pool threads are roots; their time overlaps the
        # waiting caller's self time.
        for span, t in zip(self.tracer.spans[first:], selfs[first:]):
            layer = LAYER_OF.get(span["name"].split(".")[0])
            if layer:
                per_layer[layer] += t * len(cmds) / len(pairs)
        for layer, t in per_layer.items():
            self.values[f"workload.self_s.{layer}"] = t

    # -- inputs the benchmark builds ----------------------------------------

    def _cube(self, n):
        """d=2 volume measure: (p0, q0, c00) uniform on the unit cube."""
        u = self.rng.random((n, 3))
        p = np.stack([u[:, 0], 1.0 - u[:, 0]], axis=1)
        q = np.stack([u[:, 1], 1.0 - u[:, 1]], axis=1)
        c = np.empty((n, 2, 2))
        c[:, 0, 0] = c[:, 1, 1] = u[:, 2]
        c[:, 0, 1] = c[:, 1, 0] = 1.0 - u[:, 2]
        return p, q, c

    def _simplex_haar(self, n):
        """d=3 volume measure: flat-simplex p, q and a Haar overlap |U|^2.

        Column phases of U do not change |U|^2, so the QR factor of a
        complex Ginibre matrix needs no phase fix here.
        """
        p = self.rng.dirichlet(np.ones(3), n)
        q = self.rng.dirichlet(np.ones(3), n)
        z = self.rng.standard_normal((n, 3, 3)) + 1j * self.rng.standard_normal((n, 3, 3))
        return p, q, np.abs(np.linalg.qr(z)[0]) ** 2

    def _accept_chunked(self, rel, p, q, c):
        step = experiments.VOLUME_CHUNK
        parts = [_accept(rel, p[i:i + step], q[i:i + step], c[i:i + step])
                 for i in range(0, len(p), step)]
        return (np.concatenate([f for f, _ in parts]),
                np.concatenate([d for _, d in parts]))

    # -- layer probes ---------------------------------------------------------

    def volumes(self):
        seed = self.seeds["table2"]
        for dim in (2, 3):
            n = self.sizes["volume"][dim]
            p, q, c = self._cube(n) if dim == 2 else self._simplex_haar(n)
            volume_t, accept_t, estimates, counts = [], [], [], {}
            for rel in TABLE2:
                key = _label(rel)
                t_vol, est = self.timed(f"estimate_volume.d{dim}.{key}",
                                        experiments.estimate_volume, rel, dim, n, seed,
                                        reps=1)
                t_acc, (fwd, dual) = self.timed(f"accept.d{dim}.{key}",
                                                self._accept_chunked, rel, p, q, c)
                volume_t.append(t_vol)
                estimates.append(est)
                accept_t.append(t_acc)
                self.check(workloads.volume_error(key, dim, est.volume, est.std_error,
                                                  self.expected))
                share = float(np.mean(fwd & dual))
                self.check(workloads.volume_error(
                    key, dim, share, (share * (1 - share) / n) ** 0.5, self.expected))
                counts[key] = self._rejections(rel, p, q, c, fwd, dual)
                if dim == 2:
                    self.values[f"relations.accept.d2.{key}.s_per_1e6"] = t_acc / n * 1e6
            if dim == 3:
                serial = dict(zip(TABLE2, zip(volume_t, estimates)))
                self.values["relations.accept.d3.all.s_per_1e6"] = (
                    statistics.median(accept_t) / n * 1e6)
            self.values[f"experiments.estimate_volume.d{dim}.s_per_1e6"] = (
                statistics.median(volume_t) / n * 1e6)
            self.values[f"experiments.draw.d{dim}.s_per_1e6"] = statistics.median(
                v - a for v, a in zip(volume_t, accept_t)) / n * 1e6
            self.observed.setdefault("rejections", {})[f"d{dim}"] = counts
            self.observed.setdefault("rejection_rows", {})[f"d{dim}"] = n
        n = self.sizes["volume"][3]
        serial_t = parallel_t = 0.0
        for rel, (t_serial, serial_est) in serial.items():
            t, est = self.timed(f"estimate_volume.d3.w2.{_label(rel)}",
                                experiments.estimate_volume, rel, 3, n, seed, workers=2,
                                reps=1)
            serial_t += t_serial
            parallel_t += t
            self.check(None if est == serial_est else
                       f"estimate_volume {_label(rel)} differs between 1 and 2 workers")
        self.values["experiments.estimate_volume.d3.w2_speedup"] = serial_t / parallel_t
        self.values["experiments.draw.d3.bytes_per_sample_computed"] = float(
            sum(D3_DRAW_BYTES.values()))

    def _rejections(self, rel, p, q, c, fwd, dual) -> dict:
        """Rejections by direction and non-finite sides (exact counts)."""
        qp = np.einsum("ni,nij->nj", p, c)
        pp = np.einsum("nij,nj->ni", c, q)
        cmax = c.max(axis=(1, 2))
        sides = [relations.relation_sides(rel, p, q, qp, cmax)]
        if rel.id != "EUR_MU":
            sides.append(relations.relation_sides(rel, q, p, pp, cmax))
        return {
            "forward_only": int(np.count_nonzero(~fwd & dual)),
            "dual_only": int(np.count_nonzero(fwd & ~dual)),
            "both": int(np.count_nonzero(~fwd & ~dual)),
            "nonfinite_lhs": sum(int(np.count_nonzero(~np.isfinite(lhs))) for lhs, _ in sides),
            "nonfinite_rhs": sum(int(np.count_nonzero(~np.isfinite(rhs))) for _, rhs in sides),
        }

    def kernels(self):
        n = self.sizes["kernel"]
        p, q, c = self._cube(n)
        qp = np.einsum("ni,nij->nj", p, c)
        for name, extra in UNCERTAINTY_PROBES:
            t, _ = self.timed(f"uncertainty.{name}", getattr(uncertainty, name), p, *extra)
            self.values[f"uncertainty.{name}.s_per_1e6"] = t / n * 1e6
        for name, extra in DIVERGENCE_PROBES:
            t, _ = self.timed(f"divergence.{name}", getattr(divergence, name), q, qp, *extra)
            self.values[f"divergence.{name}.s_per_1e6"] = t / n * 1e6

    def searches(self):
        budget = self.cmd_sizes["search"]
        times = []
        for rel in SEARCH:
            t, hit = self.timed(f"search_counterexample.{_label(rel)}",
                                relations.search_counterexample, rel, 3, budget,
                                self.seeds["search"], reps=1)
            times.append(t)
            self.check(None if hit is None else f"search {_label(rel)} found a hit")
        self.values["relations.search_counterexample.d3.s_per_1e6"] = (
            statistics.median(times) / budget * 1e6)

    def ensembles(self):
        n = self.sizes["haar"]
        for name, dim, pure in HAAR_PROBES:
            t, _ = self.timed(f"haar_triples.{name}", sweeps.haar_triples, dim, n,
                              self.seed, pure=pure)
            self.values[f"sweeps.haar_triples.{name}.s_per_1e6"] = t / n * 1e6
        # The sweep-d3 dpi batch: every dpi command draws exactly this one.
        m = self.cmd_sizes["dpi"]
        batch = sweeps.haar_triples(3, m, self.seeds["dpi"])
        self.observed["dpi_samples"] = m
        self.observed["dpi_min_margin"] = {}
        for kind, alpha in workloads.DPI_KINDS:
            t, margins = self.timed(f"dpi_margins.{kind}", sweeps.dpi_margins, kind, alpha,
                                    batch)
            self.values[f"sweeps.dpi_margins.{kind}.d3.s_per_1e6"] = t / m * 1e6
            worst = float(margins.min())
            self.observed["dpi_min_margin"][kind] = worst
            self.check(None if worst >= workloads.DPI_EXIT_TOL else
                       f"dpi_margins {kind}: min margin {worst:.3g}")
        t, links = self.timed("chain_margins", sweeps.chain_margins, batch)
        self.values["sweeps.chain_margins.d3.s_per_1e6"] = t / m * 1e6
        worst = min(float(link.min()) for link in links)
        self.observed["chain_min_margin"] = worst
        self.check(None if worst >= workloads.DPI_EXIT_TOL else
                   f"chain_margins: min margin {worst:.3g}")
        # The sweep-d3 search stream: pure triples in search-sized chunks.
        budget, step = self.cmd_sizes["search"], relations.SEARCH_CHUNK
        chunks = [sweeps.haar_triples(3, step, self.seeds["search"], pure=True, chunk=k)
                  for k in range(budget // step)]
        triples = sweeps.TripleBatch(*(np.concatenate([getattr(b, f) for b in chunks])
                                       for f in ("rho", "p", "q", "qp", "overlap",
                                                 "spectrum")))
        self.observed["search_budget"] = budget
        self.observed["search_closest_margin"] = {}
        for rel in CATALOG:
            t, margins = self.timed(f"relation_margins.{_label(rel)}",
                                    sweeps.relation_margins, rel, triples)
            self.values[f"sweeps.relation_margins.{_label(rel)}.d3.s_per_1e6"] = (
                t / budget * 1e6)
            self.observed["search_closest_margin"][_label(rel)] = float(np.nanmin(margins))

    def reports(self):
        n = self.sizes["report"]
        for fmt in ("csv", "json"):
            path = self.tmpdir / f"report.{fmt}"
            argv = ["dpi", "--dim", "3", "--divergence", "trace", "--samples", str(n),
                    "--seed", str(self.seeds["dpi"]), "--format", fmt, "--output", str(path)]
            emit = []
            for _ in range(self.sizes["reps"]):
                with self.tracer.span(f"bench.report.{fmt}") as root:
                    code = cli.main(list(argv))
                main_span = next(s for s in self.tracer.spans[root["id"]:]
                                 if s["parent"] == root["id"] and s["name"] == "cli.main")
                emit.append(self.tracer.self_times()[main_span["id"]])
            data = path.read_bytes()
            self.check(workloads.check_dpi(n, fmt)(workloads.Result(code, b"", data)))
            self.values[f"cli.report.{fmt}.s_per_1e5_rows"] = statistics.median(emit) / n * 1e5
            self.values[f"cli.report.{fmt}.bytes_per_row"] = len(data) / n


METRICS = _metrics()
