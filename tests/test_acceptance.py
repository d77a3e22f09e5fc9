"""Acceptance gate: one check per shipped guarantee, each printing a PASS or
FAIL line so a full run reads as a checklist.

The d=2 U_tr volume cell, test_volume_table_d2, is expected to stay red: its
measured feasible volume is ~0.802 at 10^6 samples, far from the reference
value 0.930, which instead matches a halved-rhs variant of the relation. The
reference-volume notes in README.md carry the analysis; the check is kept
faithful rather than adjusted to pass. Every other check of that table is a
separate test, which must pass.
"""

import contextlib
import csv
import io
import math
import time

import numpy as np
import pytest

from qud.cli import main
from qud.divergence import _classical, _dephased
from qud.experiments import (
    TABLE2_REFERENCE,
    _draw_parameters,
    coherence_bounds,
    estimate_coherence,
    estimate_volume,
    estimate_volumes,
    simulate_shots,
)
from qud.qstate import (
    _frame_of_one,
    _ginibre_states,
    _haar_unitaries,
    _triples,
    make_density,
)
from qud.relations import (
    RelationId,
    _accepts,
    _shared_arrays,
    relation_sides,
    search_counterexample,
    table2_relations,
)
from qud.rng import stream
from qud.sweeps import chain_margins, dpi_margins, haar_triples
from qud.uncertainty import (
    _measure,
    delta_measure,
    half_norm_measure,
    renyi_entropy,
    shannon_entropy,
)

from conftest import RT2, majorizes, triple_of, verdict_of

MILLION = 1_000_000


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {label} - {detail}", flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. d=2 volume table at 10^6 samples per relation, variant adjudication,
#    runtime budget. The U_tr cell is its own test, the expected red one, so
#    every other check of the table must pass.


@pytest.fixture(scope="module")
def d2_volumes():
    """(volume by relation label, seconds) of one estimate_volumes call at d=2:
    the table, printed U_ts and both forms of U_if."""
    rels = table2_relations() + (
        RelationId("U_ts", "printed", 0.5),
        RelationId("U_if"),
        RelationId("U_if", "printed"),
    )
    start = time.perf_counter()
    estimates = estimate_volumes(rels, 2, MILLION, seed=1)
    elapsed = time.perf_counter() - start
    return {rel.label(): est.volume for rel, est in zip(rels, estimates)}, elapsed


def test_volume_table_d2(d2_volumes):
    volumes, _ = d2_volumes
    ref = TABLE2_REFERENCE[2]["U_tr"]
    gap = volumes["U_tr"] - ref
    detail = (f"U_tr measured {volumes['U_tr']:.4f} vs reference {ref} "
              f"(gap {gap:+.4f}; see README reference-volume notes)")
    ok = abs(gap) <= 0.01
    assert _report("volume table d=2, U_tr cell (10^6 samples)", ok, detail), detail


def test_volume_table_d2_other_cells_and_adjudication(d2_volumes):
    volumes, elapsed = d2_volumes
    problems = []
    for label, ref in TABLE2_REFERENCE[2].items():
        gap = volumes[label] - ref
        if label != "U_tr" and abs(gap) > 0.01:
            problems.append(f"{label} measured {volumes[label]:.4f} vs reference {ref} "
                            f"(gap {gap:+.4f})")
    # adjudication: canonical forms are the hypothesis for the 0.814 / 0.787
    # cells; the printed variants must sit further from them
    uts_ref = TABLE2_REFERENCE[2]["U_ts[alpha=0.5]"]
    uif_ref = TABLE2_REFERENCE[2]["U_rd[alpha=0.5]"]
    uts_canon, uts_printed = volumes["U_ts[alpha=0.5]"], volumes["U_ts[alpha=0.5,printed]"]
    uif_canon, uif_printed = volumes["U_if"], volumes["U_if[printed]"]
    if abs(uts_canon - uts_ref) >= abs(uts_printed - uts_ref):
        problems.append(
            f"U_ts adjudication: canonical {uts_canon:.4f} not closer to "
            f"{uts_ref} than printed {uts_printed:.4f}"
        )
    if abs(uif_canon - uif_ref) >= abs(uif_printed - uif_ref):
        problems.append(
            f"U_if adjudication: canonical {uif_canon:.4f} not closer to "
            f"{uif_ref} than printed {uif_printed:.4f}"
        )
    if RelationId("U_ts", alpha=0.5).variant != "canonical":
        problems.append("shipped default variant is not canonical")
    if elapsed > 60.0:
        problems.append(f"table runtime {elapsed:.1f}s exceeds 60s")
    detail = ", ".join(f"{k}={v:.4f}" for k, v in volumes.items()) + f"; {elapsed:.1f}s"
    if problems:
        detail = "; ".join(problems) + f" [{detail}]"
    ok = not problems
    assert _report("volume table d=2, other cells and adjudication", ok, detail), detail


# ---------------------------------------------------------------------------
# 2. d=3 volume table under the simplex^2 x Haar measure: each cell within
#    5 combined SE of its pinned 10^7-sample value, with a quantified
#    discrepancy report against the reference values


# The seven cells at 10^7 samples, from the Ginibre-column Haar sampler that
# drew C = |U|^2 up to commit f4947b2, computed there by
#     qud table2 --dim 3 --samples 10000000 --seed 7 --format json
# So this gate also holds the closed-form overlap draw to the old law.
D3_PINNED_SAMPLES = 10_000_000
D3_PINNED = {
    "U_tr": 0.9348554,
    "U_tr_prime": 0.9354473,
    "U_rd[alpha=0.5]": 0.9023527,
    "U_re": 0.8801813,
    "U_ts[alpha=0.5]": 0.9240591,
    "U_hs": 0.8671738,
    "EUR_MU[alpha=1,beta=1]": 0.9996826,
}


def test_volume_table_d3(tmp_path):
    table = table2_relations()
    estimates = {
        rel.label(): est
        for rel, est in zip(table, estimate_volumes(table, 3, MILLION, seed=1))
    }
    rows, outside, off_pinned = [], [], []
    for label, ref in TABLE2_REFERENCE[3].items():
        est = estimates[label]
        pinned = D3_PINNED[label]
        se = math.hypot(est.std_error,
                        math.sqrt(pinned * (1.0 - pinned) / D3_PINNED_SAMPLES))
        z = (est.volume - pinned) / se
        if abs(z) > 5.0:
            off_pinned.append(f"{label} {est.volume:.6f} vs pinned {pinned} (z {z:+.2f})")
        gap = est.volume - ref
        within = abs(gap) <= 0.015
        rows.append([label, 3, est.samples, est.seed,
                     f"{est.volume:.6f}", ref, f"{gap:+.6f}", within])
        if not within:
            outside.append(f"{label} {gap:+.4f}")
    if outside:
        path = tmp_path / "table2_d3_discrepancy.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["relation", "dim", "samples", "seed", "volume",
                 "reference", "gap", "within_0.015"]
            )
            for row in rows:
                writer.writerow(row)
        detail = (
            f"{len(outside)} of 7 outside +/-0.015 under the simplex^2 x Haar "
            f"measure ({', '.join(outside)}); per-relation gaps quantified in "
            f"{path.name}"
        )
    else:
        detail = "all 7 volumes within +/-0.015 of the reference values"
    if off_pinned:
        pinned_note = f"beyond 5 combined SE of the pinned values: {'; '.join(off_pinned)}"
    else:
        pinned_note = "all 7 within 5 combined SE of the pinned 10^7 values"
    detail = f"{pinned_note}; {detail}"
    ok = not off_pinned
    assert _report("volume table d=3 (10^6 samples/relation)", ok, detail), detail


# ---------------------------------------------------------------------------
# 3. U_tr_prime and U_hs accept identically on the qubit cube


def test_equivalence_u_tr_prime_u_hs():
    p, q, c = _draw_parameters(stream(33), 2, MILLION)
    shared = _shared_arrays(p, q, c)
    m1 = _accepts(RelationId("U_tr_prime"), p, q, shared)
    m2 = _accepts(RelationId("U_hs"), p, q, shared)
    disagree = int(np.count_nonzero(m1 != m2))
    ok = disagree == 0
    detail = f"{disagree} disagreements on 10^6 cube points"
    assert _report("U_tr_prime / U_hs acceptance equivalence", ok, detail), detail


# ---------------------------------------------------------------------------
# 4. soundness sweep: no canonical relation, chain link, or DPI margin dips
#    below -1e-9 (relative) on Haar ensembles


SOUND_RELATIONS = (
    RelationId("U_tr"),
    RelationId("U_tr_prime"),
    RelationId("U_if"),
    RelationId("U_re"),
    RelationId("U_hs"),
    RelationId("THM1_UNIVERSAL"),
    RelationId("U_rd", alpha=0.5),
    RelationId("U_rd", alpha=0.75),
    RelationId("U_rd", alpha=0.99),
    RelationId("U_ts", alpha=0.0),
    RelationId("U_ts", alpha=0.5),
    RelationId("U_ts", alpha=0.9),
    RelationId("EUR_TS", alpha=0.0),
    RelationId("EUR_TS", alpha=0.5),
    RelationId("EUR_TS", alpha=0.9),
    RelationId("EUR_MU", alpha=1.0, beta=1.0),
    RelationId("EUR_MU", alpha=0.75, beta=1.5),
    RelationId("EUR_MU", alpha=1.5, beta=0.75),
    RelationId("EUR_MU", alpha=2.0, beta=2.0 / 3.0),
)

DPI_GRID = (
    ("trace", (None,)),
    ("infidelity", (None,)),
    ("relative_entropy", (None,)),
    ("hilbert_schmidt", (None,)),
    ("renyi_sandwiched", (0.5, 0.75, 0.99)),
    ("tsallis", (0.0, 0.5, 0.9)),
)


def _relation_violations(batch):
    bad, worst = 0, 0.0
    for rel in SOUND_RELATIONS:
        lhs, rhs = relation_sides(rel, batch.p, batch.q, batch.qp, batch.cmax)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        rel_margin = (lhs - rhs) / scale
        bad += int(np.count_nonzero(rel_margin < -1e-9))
        worst = min(worst, float(rel_margin.min()))
    return bad, worst


def test_soundness_sweep():
    n_rel = n_chain = n_dpi = 0
    worst = 0.0
    for dim in (2, 3, 4):
        for batch in (
            haar_triples(dim, 100_000, seed=40 + dim),
            haar_triples(dim, 10_000, seed=50 + dim, pure=True),
        ):
            bad, w = _relation_violations(batch)
            n_rel += bad
            worst = min(worst, w)
            for link in chain_margins(batch):
                n_chain += int(np.count_nonzero(link < -1e-9))
                worst = min(worst, float(link.min()))
            for kind, alphas in DPI_GRID:
                for alpha in alphas:
                    m = dpi_margins(kind, alpha, batch)
                    n_dpi += int(np.count_nonzero(m < -1e-9))
                    worst = min(worst, float(m.min()))
    ok = n_rel == 0 and n_chain == 0 and n_dpi == 0
    detail = (
        f"10^5 mixed + 10^4 pure triples per d in {{2,3,4}}: "
        f"{n_rel} relation, {n_chain} chain, {n_dpi} DPI violations "
        f"(threshold -1e-9 relative; worst margin {worst:.3g})"
    )
    assert _report("soundness sweep", ok, detail), detail


# ---------------------------------------------------------------------------
# 5. printed-variant adjudication: fixture margins -1/3, fast counterexamples
#    for printed forms, clean 10^6-sample searches for canonical ones


def test_printed_variant_adjudication(plus_state, zero_state, z_basis, x_basis):
    problems = []
    uts_printed = RelationId("U_ts", "printed", 0.5)
    eur_printed = RelationId("EUR_TS", "printed", 0.5)
    v1 = verdict_of(uts_printed, *triple_of(plus_state, z_basis, x_basis))
    if abs(v1.margin + 1.0 / 3.0) > 1e-9:
        problems.append(f"printed U_ts fixture margin {v1.margin:.6f} != -1/3")
    v2 = verdict_of(eur_printed, *triple_of(zero_state, z_basis, x_basis))
    if abs(v2.margin + 1.0 / 3.0) > 1e-9:
        problems.append(f"printed EUR_TS fixture margin {v2.margin:.6f} != -1/3")
    hit_uts = search_counterexample(uts_printed, 2, 10_000, seed=1)
    hit_eur = search_counterexample(eur_printed, 2, 10_000, seed=1)
    if hit_uts is None:
        problems.append("printed U_ts(1/2): no violation within 10^4 samples")
    if hit_eur is None:
        problems.append("printed EUR_TS(1/2): no violation within 10^4 samples")
    clean_uts = search_counterexample(RelationId("U_ts", alpha=0.5), 2, MILLION, seed=3)
    clean_eur = search_counterexample(RelationId("EUR_TS", alpha=0.5), 2, MILLION, seed=3)
    if clean_uts is not None:
        problems.append(
            f"canonical U_ts(1/2) violated at sample {clean_uts.sample_index} "
            f"(margin {clean_uts.verdict.margin:.3g})"
        )
    if clean_eur is not None:
        problems.append(
            f"canonical EUR_TS(1/2) violated at sample {clean_eur.sample_index} "
            f"(margin {clean_eur.verdict.margin:.3g})"
        )
    ok = not problems
    detail = (
        "; ".join(problems)
        if problems
        else (
            f"fixture margins -1/3 confirmed; printed searches hit at samples "
            f"{hit_uts.sample_index} and {hit_eur.sample_index}; canonical "
            f"forms clean over 10^6"
        )
    )
    assert _report("printed-variant adjudication", ok, detail), detail


# ---------------------------------------------------------------------------
# 6. tightness fixtures: the chain and the entropic stack are exactly tight
#    on the maximally coherent qubit instance


def test_tightness_fixtures(plus_state, z_basis, x_basis):
    p, q, qp, _ = triple_of(plus_state, z_basis, x_basis)
    batch = _frame_of_one(plus_state, z_basis, x_basis)
    checks = [
        ("delta(p)", float(_measure("delta", None, p)), RT2, 1e-9),
        ("IF(rho,rho_A)", float(_dephased("infidelity", None, batch)[0]), RT2, 1e-9),
        ("universal bound", float(_classical("infidelity", None, q, qp)), RT2, 1e-9),
        ("H(p)", float(_measure("shannon", None, p)), 1.0, 1e-9),
        ("S(rho||rho_A)", float(_dephased("relative_entropy", None, batch)[0]), 1.0, 1e-9),
        ("KL(q||q')", float(_classical("relative_entropy", None, q, qp)), 1.0, 1e-9),
    ]
    upper, exact, lower = coherence_bounds(plus_state, z_basis, x_basis)
    checks += [
        ("coherence upper (pure)", upper, 1.0, 1e-9),
        ("coherence exact (pure)", exact, 1.0, 1e-9),
        ("coherence lower (pure)", lower, 1.0, 1e-9),
    ]
    mixed = make_density(np.array([[0.5, 0.25], [0.25, 0.5]]))
    upper, exact, lower = coherence_bounds(mixed, z_basis, x_basis)
    checks += [
        ("coherence upper (mixed)", upper, 1.0, 1e-4),
        ("coherence exact (mixed)", exact, 0.18872, 1e-4),
        ("coherence lower (mixed)", lower, 0.18872, 1e-4),
    ]
    problems = [
        f"{name} = {value:.10f}, expected {target} +/- {tol}"
        for name, value, target, tol in checks
        if abs(value - target) > tol
    ]
    ok = not problems
    detail = "; ".join(problems) if problems else (
        "chain ties at 1/sqrt(2), entropic stack at 1 bit, coherence "
        "sandwich (1,1,1) pure and (1, 0.18872, 0.18872) mixed"
    )
    assert _report("tightness fixtures", ok, detail), detail


# ---------------------------------------------------------------------------
# 7. limits and structure: Renyi -> relative-entropy limit, Schur concavity
#    at scale, and bit-level determinism


def test_limits_and_structure():
    problems = []
    worst_gap = 0.0
    for dim, count in ((2, 400), (3, 300), (4, 300)):
        # Ginibre states in the frame of a Haar basis A, against rho_A
        rng = stream(70 + dim)
        batch = _triples(_ginibre_states(rng, count, dim), _haar_unitaries(rng, count, dim),
                         pure=False)
        exact = _dephased("relative_entropy", None, batch)
        near = _dephased("renyi_sandwiched", 0.999, batch)
        worst_gap = max(worst_gap, float((np.abs(near - exact) / exact).max()))
    if worst_gap > 1e-2:
        problems.append(f"alpha=0.999 limit off by {worst_gap:.3e} relative")

    schur_bad = 0
    for dim, count in ((2, 3400), (3, 3300), (4, 3300)):
        rng = stream(80 + dim)
        sharp = rng.dirichlet(np.ones(dim), count)
        mix = np.abs(_haar_unitaries(rng, count, dim)) ** 2
        flat = np.einsum("nij,nj->ni", mix, sharp)
        for k in range(0, count, 500):
            assert majorizes(sharp[k], flat[k])
        kernels = [delta_measure, shannon_entropy, half_norm_measure] + [
            (lambda x, a=a: renyi_entropy(x, a)) for a in (0.25, 0.5, 2.0, 3.0, 5.0)
        ]
        for kernel in kernels:
            schur_bad += int(np.count_nonzero(kernel(flat) < kernel(sharp) - 1e-9))
    if schur_bad:
        problems.append(f"{schur_bad} Schur-concavity violations in 10^4 pairs")

    rel = RelationId("EUR_MU", alpha=1.0, beta=1.0)
    e1 = estimate_volume(rel, 2, 100_000, seed=9)
    e2 = estimate_volume(rel, 2, 100_000, seed=9)
    argv = ["volume", "--relation", "EUR_MU", "--alpha", "1", "--beta", "1",
            "--dim", "2", "--samples", "100000", "--seed", "9"]
    reports = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        reports.append(buf.getvalue())
    if e1 != e2 or reports[0] != reports[1]:
        problems.append("repeated seeded volume runs are not byte-identical")
    w1 = estimate_volume(RelationId("U_re"), 3, 100_000, seed=9, workers=1)
    w4 = estimate_volume(RelationId("U_re"), 3, 100_000, seed=9, workers=4)
    if w1.accepted != w4.accepted:
        problems.append(
            f"worker count changes the estimate: {w1.accepted} vs {w4.accepted}"
        )
    ok = not problems
    detail = "; ".join(problems) if problems else (
        f"alpha=0.999 limit within {worst_gap:.2e} relative on 10^3 full-rank "
        f"pairs; 0 Schur violations in 10^4 pairs; reruns byte-identical; "
        f"workers 1 and 4 agree ({w1.accepted} accepted)"
    )
    assert _report("limits and structure", ok, detail), detail


# ---------------------------------------------------------------------------
# 8. finite-shot protocol: the plug-in lower bound converges onto the 1-bit
#    coherence of the fixture


def test_finite_shot_protocol(plus_state, z_basis, x_basis):
    means = []
    for n in (1_000, 10_000, 100_000):
        errs = []
        for k in range(100):
            direct = simulate_shots(plus_state, None, x_basis, n, seed=9000 + 2 * k)
            seq = simulate_shots(plus_state, z_basis, x_basis, n, seed=9001 + 2 * k)
            lower, _ = estimate_coherence(direct, seq)
            errs.append(abs(lower - 1.0))
        means.append(float(np.mean(errs)))
    ok = means[0] > means[1] > means[2] and means[2] <= 0.05
    detail = (
        f"mean |KL plug-in - 1 bit| over 100 seeds: "
        f"{means[0]:.4f} (10^3) -> {means[1]:.4f} (10^4) -> {means[2]:.4f} (10^5)"
    )
    assert _report("finite-shot coherence protocol", ok, detail), detail
