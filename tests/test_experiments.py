import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud import cli, experiments, rng
from qud.errors import ValidationError
from qud.experiments import (
    TABLE2_REFERENCE,
    VOLUME_CHUNK,
    _draw_parameters,
    coherence_bounds,
    estimate_coherence,
    estimate_volume,
    estimate_volumes,
    region_grid,
    simulate_shots,
)
from qud.qstate import (
    _frame_of_one,
    _haar_frames,
    _triples,
    make_basis,
    make_density,
    standard_basis,
)
from qud.relations import (
    RelationId,
    _accepts,
    _dpi_chain,
    _shared_arrays,
    table2_relations,
)
from qud.rng import role_stream, stream
from qud.sweeps import dpi_margins

from conftest import sample, sequential_dist, verdict_of


# ---------------------------------------------------------------------------
# volume estimation


def _scalar_admits(rel, p, q, c):
    # forward verdict on (p, q, C) and on the transposed instance (q, p, C^T),
    # each from verdict_of alone, not from the shared forward/dual rule
    def forward(p, q, c):
        return verdict_of(rel, p, q, sequential_dist(p, c), c).satisfied

    return forward(p, q, c) and forward(q, p, c.T)


def test_accept_mask_matches_scalar_dual_eval():
    rel = RelationId("U_tr")
    p, q, c = _draw_parameters(stream(21, 0), 2, 300)
    mask = _accepts(rel, p, q, _shared_arrays(p, q, c))
    for k in range(300):
        assert mask[k] == _scalar_admits(rel, p[k], q[k], c[k])


def test_accept_mask_matches_scalar_dual_eval_d3():
    rel = RelationId("U_re")
    p, q, c = _draw_parameters(stream(22, 0), 3, 200)
    mask = _accepts(rel, p, q, _shared_arrays(p, q, c))
    for k in range(200):
        assert mask[k] == _scalar_admits(rel, p[k], q[k], c[k])


def test_draw_parameters_structure():
    p2, q2, c2 = _draw_parameters(stream(23), 2, 500)
    assert p2.shape == (500, 2) and c2.shape == (500, 2, 2)
    assert_allclose(c2[:, 0, 0], c2[:, 1, 1], atol=0)
    assert_allclose(c2.sum(axis=2), 1.0, atol=1e-12)
    p3, q3, c3 = _draw_parameters(stream(23), 3, 500)
    assert_allclose(p3.sum(axis=1), 1.0, atol=1e-9)
    assert_allclose(q3.sum(axis=1), 1.0, atol=1e-9)
    assert_allclose(c3.sum(axis=1), 1.0, atol=1e-8)
    assert_allclose(c3.sum(axis=2), 1.0, atol=1e-8)


def test_estimate_volume_counts_the_short_last_chunk():
    rel = RelationId("U_re")
    samples = 2 * VOLUME_CHUNK + 123
    by_hand = 0
    for index, count in ((0, VOLUME_CHUNK), (1, VOLUME_CHUNK), (2, 123)):
        p, q, c = _draw_parameters(stream(5, index), 2, count)
        by_hand += int(np.count_nonzero(_accepts(rel, p, q, _shared_arrays(p, q, c))))
    assert estimate_volume(rel, 2, samples, 5).accepted == by_hand


def test_estimate_volume_fields_and_determinism():
    rel = RelationId("EUR_MU", alpha=1.0, beta=1.0)
    est = estimate_volume(rel, 2, 65_536, 1)
    assert est.samples == 65_536 and est.seed == 1 and est.dim == 2
    assert est.accepted == round(est.volume * est.samples)
    assert_allclose(est.std_error, np.sqrt(est.volume * (1 - est.volume) / est.samples))
    assert abs(est.volume - 0.974) < 0.01
    again = estimate_volume(rel, 2, 65_536, 1)
    assert again == est


def test_estimate_volume_worker_invariance():
    rel = RelationId("U_tr_prime")
    serial = estimate_volume(rel, 3, 40_000, 2, workers=1)
    threaded = estimate_volume(rel, 3, 40_000, 2, workers=3)
    assert serial.accepted == threaded.accepted


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_estimate_volumes_matches_estimate_volume(dim, workers):
    rels = (
        RelationId("U_if", "printed"),
        RelationId("EUR_MU", alpha=1.0, beta=1.0),
        RelationId("THM1_UNIVERSAL"),
    )
    shared = estimate_volumes(rels, dim, 70_000, 4, workers=workers)
    assert [est.relation for est in shared] == list(rels)
    for rel, est in zip(rels, shared):
        assert est == estimate_volume(rel, dim, 70_000, 4, workers=workers)
    assert estimate_volumes(rels[::-1], dim, 70_000, 4, workers=workers) == shared[::-1]


def test_estimate_volumes_worker_invariance():
    rels = table2_relations()
    serial = estimate_volumes(rels, 3, 70_000, 8, workers=1)
    for workers in (2, 3):
        assert estimate_volumes(rels, 3, 70_000, 8, workers=workers) == serial


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunk_runner_keeps_chunk_order_and_bounds_the_chunks_in_flight(workers):
    # one chunk running and one queued per thread; a consumer that stops
    # after stop_after results and closes the runner waits only for the
    # chunks already submitted, at most 2 * workers of them
    chunks = [*((k, 7 * k, 7) for k in range(10)), (10, 70, 3)]
    for stop_after in (None, 1):
        consumed, in_flight, started, finished = [], [], [], []

        def fn(index, offset, count):
            started.append(index)
            # chunk `index` and every earlier one not yet consumed
            in_flight.append(index + 1 - len(consumed))
            time.sleep(0.002 * (index % 3))  # uneven chunks finish out of order
            finished.append(index)
            return index, offset, count

        results = rng._map_chunks(fn, 10 * 7 + 3, 7, workers)
        for result in results:
            consumed.append(result)
            if len(consumed) == stop_after:
                break
        results.close()
        assert consumed == chunks[:stop_after]
        assert max(in_flight) <= 2 * workers
        assert sorted(finished) == sorted(started)
        if stop_after is not None:
            assert len(started) <= 2 * workers


def test_estimate_volumes_chunk_peak_memory():
    # one chunk of the 8 table2 relations at 1 worker traces 2.27 MB at d=2
    # and 3.94 MB at d=3; holding C while the relations run adds its 0.52 MB
    # and 0.44 MB
    rels = [*table2_relations(), RelationId("U_ts", "printed", 0.5)]
    for dim, bound in ((2, 2_500_000), (3, 4_150_000)):
        estimate_volumes(rels, dim, experiments.VOLUME_CHUNK, 0)  # first-call costs
        tracemalloc.start()
        try:
            estimate_volumes(rels, dim, experiments.VOLUME_CHUNK, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"d={dim}: traced peak {peak} B"


def test_table2_draws_each_chunk_once(monkeypatch, capsys):
    draws = []

    def counted(rng, dim, count):
        draws.append(count)
        return _draw_parameters(rng, dim, count)

    monkeypatch.setattr(experiments, "_draw_parameters", counted)
    assert cli.main(["table2", "--dim", "3", "--samples", "140000", "--seed", "3",
                     "--workers", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    full, rest = divmod(140_000, VOLUME_CHUNK)
    assert rest and sorted(draws) == [rest] + [VOLUME_CHUNK] * full


def test_estimate_volume_rejects_bad_arguments():
    with pytest.raises(ValidationError, match="volume estimation supports dim in"):
        estimate_volume(RelationId("U_tr"), 4, 10_000, 1)
    with pytest.raises(ValueError):
        estimate_volume(RelationId("U_tr"), 2, 999, 1)
    # one pool thread per worker, each holding a chunk: the count is capped
    with pytest.raises(ValueError):
        estimate_volume(RelationId("U_tr"), 2, 10_000, 1, workers=rng.MAX_WORKERS + 1)


def test_table2_reference_keys_match_catalog():
    labels = {rel.label() for rel in table2_relations()}
    assert set(TABLE2_REFERENCE) == {2, 3}
    for dim in (2, 3):
        assert set(TABLE2_REFERENCE[dim]) == labels


# ---------------------------------------------------------------------------
# region grids


def test_region_grid_identity_overlap_admits_everything():
    grid = region_grid(RelationId("EUR_MU", alpha=1.0, beta=1.0), 1.0, 21)
    assert grid.shape == (21, 21) and grid.dtype == bool
    assert grid.all()


def test_region_grid_u_tr_cells():
    grid = region_grid(RelationId("U_tr"), 0.5, 3)
    # deterministic p with maximally spread q' rejects the corners
    assert grid[1, 1]
    assert not grid[0, 0]
    assert not grid[2, 0]


def test_region_grid_argument_validation():
    with pytest.raises(ValueError):
        region_grid(RelationId("U_tr"), 1.5, 11)
    with pytest.raises(ValueError):
        region_grid(RelationId("U_tr"), 0.5, 1)


# ---------------------------------------------------------------------------
# coherence bounds


def test_coherence_bounds_pure_fixture(f1):
    assert_allclose(coherence_bounds(*f1), [1.0, 1.0, 1.0], atol=1e-9)


def test_coherence_bounds_mixed_fixture(z_basis, x_basis):
    rho = make_density(
        0.75 * np.full((2, 2), 0.5) + 0.25 * np.array([[0.5, -0.5], [-0.5, 0.5]])
    )
    upper, exact, lower = coherence_bounds(rho, z_basis, x_basis)
    assert_allclose(upper, 1.0, atol=1e-9)
    assert_allclose(exact, 0.18872187554086717, atol=1e-9)
    assert_allclose(lower, 0.18872187554086717, atol=1e-9)


def test_coherence_bounds_are_ordered():
    for seed in range(60):
        rho = sample("haar_state_mixed", 3, seed)
        a = sample("haar_unitary_basis", 3, 700 + seed)
        b = sample("haar_unitary_basis", 3, 800 + seed)
        upper, exact, lower = coherence_bounds(rho, a, b)
        assert upper >= exact - 1e-9
        assert exact >= lower - 1e-9
        assert lower >= -1e-12


def test_coherence_gap_is_the_relative_entropy_dpi_margin():
    # exact - lower and the relative_entropy DPI margin read the same A-frame arrays
    for dim in (2, 3, 4):
        for seed in range(40):
            rho = sample("haar_state_mixed", dim, seed)
            a = sample("haar_unitary_basis", dim, 1000 + seed)
            b = sample("haar_unitary_basis", dim, 2000 + seed)
            _, exact, lower = coherence_bounds(rho, a, b)
            margin = dpi_margins("relative_entropy", None, _frame_of_one(rho, a, b))[0]
            assert exact - lower == margin, (dim, seed)


def test_coherence_bounds_incoherent_state(z_basis, x_basis):
    rho = make_density(np.diag([0.6, 0.4]))
    _, exact, lower = coherence_bounds(rho, z_basis, x_basis)
    assert abs(exact) < 1e-9
    assert abs(lower) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_coherence_bounds_are_the_batched_u_re_chain(dim):
    # (upper, exact, lower) is _dpi_chain's order: U_re's chain on 100 Haar
    # instances at once, each then read alone from its state and bases
    rho, w = _haar_frames(stream(40 + dim), 100, dim, pure=False)
    chain = _dpi_chain(RelationId("U_re"), _triples(rho, w, pure=False))
    for k in range(100):
        got = coherence_bounds(make_density(rho[k]), standard_basis(dim), make_basis(w[k]))
        upper, exact, lower = (float(side[k]) for side in chain)
        assert_allclose(got, (upper, max(exact, 0.0), lower), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# finite shots


def test_simulate_shots_direct(f1):
    rho, _, b = f1
    counts = simulate_shots(rho, None, b, 1000, 7)
    assert counts.shape == (2,)
    assert counts.sum() == 1000
    assert counts[1] == 0  # q = (1, 0)
    assert not counts.flags.writeable
    assert np.array_equal(simulate_shots(rho, None, b, 1000, 7), counts)


def test_simulate_shots_sequential(f1):
    rho, a, b = f1
    counts = simulate_shots(rho, a, b, 4000, 8)
    assert counts.shape == (2, 2)
    assert counts.sum() == 4000
    assert not counts.flags.writeable
    # joint law is uniform on the four cells
    assert np.abs(counts / 4000 - 0.25).max() < 0.05


def test_shot_streams_are_not_the_instance_stream():
    # a sampled instance draws from stream(seed); its shots draw from their
    # own role streams, so the counts are not made from the instance's bits
    seed, n = 8, 1000
    rho, a, b = (sample("haar_state_mixed", 3, seed), sample("haar_unitary_basis", 3, 1),
                 sample("haar_unitary_basis", 3, 2))
    q = _frame_of_one(rho, b, b).p[0]
    direct = simulate_shots(rho, None, b, n, seed)
    assert np.array_equal(direct, role_stream(seed, "direct_B").multinomial(n, q / q.sum()))
    assert not np.array_equal(direct, stream(seed).multinomial(n, q / q.sum()))
    batch = _frame_of_one(rho, a, b)
    joint = (batch.p[0][:, None] * batch.overlap[0]).ravel()
    sequential = simulate_shots(rho, a, b, n, seed).ravel()
    role = role_stream(seed, "sequential_AB").multinomial(n, joint / joint.sum())
    assert np.array_equal(sequential, role)
    assert not np.array_equal(sequential, stream(seed).multinomial(n, joint / joint.sum()))


def test_simulate_shots_rejects_negative_n(f1):
    rho, _, b = f1
    with pytest.raises(ValueError):
        simulate_shots(rho, None, b, -1, 0)


def test_estimate_coherence_recovers_the_fixture(f1):
    rho, a, b = f1
    direct = simulate_shots(rho, None, b, 1_000_000, 31)
    sequential = simulate_shots(rho, a, b, 1_000_000, 32)
    lower, upper = estimate_coherence(direct, sequential)
    assert abs(lower - 1.0) < 0.01
    assert abs(upper - 1.0) < 0.01


def test_estimate_coherence_unsmoothed_can_be_unbounded():
    lower, upper = estimate_coherence([2, 0], [[0, 2], [0, 0]], smoothing=0.0)
    assert lower == np.inf
    assert np.isfinite(upper)


def test_estimate_coherence_error_paths(f1):
    rho, a, b = f1
    direct = simulate_shots(rho, None, b, 100, 1)
    sequential = simulate_shots(rho, a, b, 100, 2)
    for smoothing in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            estimate_coherence(direct, sequential, smoothing=smoothing)
    # swapped arrays, a mismatched d and records without shots
    shapes = r"counts must have shapes \(d,\) and \(d, d\), d >= 2, got "
    refused = [
        ((sequential, direct), shapes + r"\(2, 2\) and \(2,\)"),
        ((direct, direct), shapes + r"\(2,\) and \(2,\)"),
        ((direct, np.ones((3, 3), dtype=int)), shapes + r"\(2,\) and \(3, 3\)"),
        ((np.ones(3, dtype=int), sequential), shapes + r"\(3,\) and \(2, 2\)"),
        ((np.zeros(0, dtype=int), np.zeros((0, 0), dtype=int)),
         shapes + r"\(0,\) and \(0, 0\)"),
        ((np.zeros(2, dtype=int), sequential), "need at least one shot in each record"),
        ((direct, np.zeros((2, 2), dtype=int)), "need at least one shot in each record"),
    ]
    for counts, message in refused:
        with pytest.raises(ValidationError, match=message):
            estimate_coherence(*counts)
