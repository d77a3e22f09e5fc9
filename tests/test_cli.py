import argparse
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qud import cli
from qud.cli import _cell, _emit, main
from qud.io import save_basis, save_state
from qud.experiments import VOLUME_CHUNK, ShotCounts, estimate_coherence
from qud.qstate import _haar_unitaries, fourier_basis, make_basis, make_density, standard_basis
from qud.relations import SEARCH_CHUNK, RelationId, _accepts, _shared_arrays
from qud.rng import stream
from qud.sweeps import dpi_margins, haar_triples

from conftest import sample


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("instance")
    state = root / "plus.json"
    basis_a = root / "z.json"
    basis_b = root / "x.json"
    save_state(state, make_density(np.full((2, 2), 0.5)))
    save_basis(basis_a, standard_basis(2))
    save_basis(basis_b, fourier_basis(2))
    return str(state), str(basis_a), str(basis_b)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    return list(csv.DictReader(io.StringIO(out)))


FILE_FLAGS = lambda files: ["--state", files[0], "--basis-a", files[1], "--basis-b", files[2]]


# ---------------------------------------------------------------------------
# verify


def test_verify_from_files(instance_files, capsys):
    code, out, err = run(
        ["verify", "--relation", "U_tr", "--dim", "2", *FILE_FLAGS(instance_files)], capsys
    )
    assert code == 0 and err == ""
    rows = rows_of(out)
    assert [r["direction"] for r in rows] == ["forward", "dual"]
    assert rows[0]["relation"] == "U_tr"
    assert rows[0]["variant"] == "canonical"
    assert rows[0]["satisfied"] == "true"
    assert rows[0]["source"] == "files"
    assert float(rows[0]["lhs"]) == pytest.approx(0.7071067811865476, abs=1e-10)
    assert float(rows[0]["rhs"]) == pytest.approx(0.5, abs=1e-10)
    assert float(rows[0]["margin"]) == pytest.approx(0.20710678118654757, abs=1e-10)


def test_verify_printed_violation_exits_one(instance_files, capsys):
    code, out, _ = run(
        ["verify", "--relation", "U_ts", "--variant", "printed", "--alpha", "0.5",
         "--dim", "2", *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 1
    rows = rows_of(out)
    assert rows[0]["satisfied"] == "false"
    assert float(rows[0]["margin"]) == pytest.approx(-1.0 / 3.0, abs=1e-10)


@pytest.fixture(scope="module")
def point_mass_files(tmp_path_factory):
    """|0><0| measured in the standard basis twice: every entropy is zero."""
    root = tmp_path_factory.mktemp("point_mass")
    state, basis = root / "zero.json", root / "z.json"
    save_state(state, make_density(np.diag([1.0, 0.0])))
    save_basis(basis, standard_basis(2))
    return ["--state", str(state), "--basis-a", str(basis), "--basis-b", str(basis)]


@pytest.mark.parametrize("argv", [
    ["verify", "--relation", "U_re", "--dim", "2"],
    ["verify", "--relation", "U_rd", "--alpha", "0.5", "--dim", "2"],
    ["verify", "--relation", "U_rd", "--alpha", "0.5", "--dim", "2", "--format", "json"],
    ["coherence"],
    ["coherence", "--format", "json"],
], ids=["U_re", "U_rd", "U_rd_json", "coherence", "coherence_json"])
def test_zero_entropies_print_without_a_sign(argv, point_mass_files, capsys):
    code, out, err = run([*argv, *point_mass_files], capsys)
    assert code == 0 and err == ""
    if "json" in argv:
        cells = [v for row in json.loads(out)["rows"] for v in row.values()]
        assert 0.0 in cells
        assert all(math.copysign(1.0, v) > 0 for v in cells if v == 0.0)
    else:
        cells = [c for row in csv.reader(io.StringIO(out)) for c in row]
        assert "0" in cells and not any(c.startswith("-0") for c in cells)


@pytest.mark.parametrize("relation", ["U_hs", "U_tr", "THM1_UNIVERSAL"])
def test_verify_keeps_delta_digits_near_a_point_mass(relation, tmp_path, capsys):
    # psi = (sqrt(1 - eps), sqrt(eps), 0) at eps = 1e-16: delta(p) is about
    # sqrt(2 eps), which 1 - sum p^2 would cancel to 0 below a rhs of ~7e-9
    eps = 1e-16
    psi = np.array([np.sqrt(1.0 - eps), np.sqrt(eps), 0.0])
    files = [str(tmp_path / name) for name in ("psi.json", "a.json", "b.json")]
    save_state(files[0], make_density(np.outer(psi, psi)))
    save_basis(files[1], standard_basis(3))
    save_basis(files[2], make_basis(_haar_unitaries(stream(5), 1, 3)[0]))
    code, out, err = run(["verify", "--relation", relation, *FILE_FLAGS(files)], capsys)
    assert code == 0 and err == ""
    forward = rows_of(out)[0]
    assert forward["satisfied"] == "true"
    assert float(forward["lhs"]) == pytest.approx(np.sqrt(2.0 * eps), rel=1e-6)


def test_verify_sampled_instance_is_deterministic(capsys):
    argv = ["verify", "--relation", "U_re", "--dim", "3", "--seed", "11"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second
    assert rows_of(first[1])[0]["source"] == "sampled"


def test_verify_json_format(instance_files, capsys):
    code, out, _ = run(
        ["verify", "--relation", "EUR_MU", "--alpha", "1", "--beta", "1",
         "--dim", "2", "--format", "json", *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "relation"
    rows = payload["rows"]
    assert len(rows) == 2
    assert rows[0]["satisfied"] is True
    assert rows[0]["lhs"] == pytest.approx(1.0)
    assert rows[0]["rhs"] == pytest.approx(1.0)


def test_verify_log_base_e(instance_files, capsys):
    code, out, _ = run(
        ["verify", "--relation", "U_re", "--dim", "2", "--log-base", "e",
         *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 0
    assert float(rows_of(out)[0]["lhs"]) == pytest.approx(np.log(2.0), abs=1e-10)


# ---------------------------------------------------------------------------
# search


def test_search_printed_finds_violation(capsys):
    argv = ["search", "--relation", "U_ts", "--variant", "printed", "--alpha", "0.5",
            "--dim", "2", "--samples", "1000", "--seed", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 1
    row = rows_of(out)[0]
    assert row["found"] == "true"
    assert int(row["sample_index"]) >= 0
    assert float(row["margin"]) < -1e-6
    assert run(argv, capsys) == (code, out, "")


def test_search_canonical_clean(capsys):
    code, out, _ = run(
        ["search", "--relation", "U_tr", "--dim", "2", "--samples", "2000", "--seed", "1"],
        capsys,
    )
    assert code == 0
    row = rows_of(out)[0]
    assert row["found"] == "false"
    assert row["sample_index"] == ""


def test_search_json_embeds_instance(capsys):
    code, out, _ = run(
        ["search", "--relation", "EUR_TS", "--variant", "printed", "--alpha", "0.5",
         "--dim", "2", "--samples", "2000", "--seed", "1", "--format", "json"],
        capsys,
    )
    assert code == 1
    payload = json.loads(out)["rows"][0]
    assert payload["found"] is True
    assert payload["state"]["dim"] == 2
    assert len(payload["basis_a"]["columns"]) == 2


# ---------------------------------------------------------------------------
# dpi


def test_dpi_clean_margins(capsys):
    code, out, _ = run(
        ["dpi", "--divergence", "tsallis", "--alpha", "0.5", "--dim", "2",
         "--samples", "200", "--seed", "4"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 200
    assert min(float(r["margin"]) for r in rows) >= -1e-8


def test_dpi_report_is_a_prefix_of_a_larger_budgets(capsys):
    # chunk k is drawn whole and its first rows are read, so a budget that
    # ends inside a chunk reports the first rows of a budget beyond it
    argv = ["dpi", "--divergence", "infidelity", "--dim", "3", "--seed", "9", "--samples"]
    small = rows_of(run([*argv, str(SEARCH_CHUNK + 1)], capsys)[1])
    large = rows_of(run([*argv, str(2 * SEARCH_CHUNK + 5)], capsys)[1])
    assert (len(small), len(large)) == (SEARCH_CHUNK + 1, 2 * SEARCH_CHUNK + 5)
    assert {r["samples"] for r in small} == {str(SEARCH_CHUNK + 1)}

    def drop_samples(rows):
        return [{k: v for k, v in r.items() if k != "samples"} for r in rows]

    assert drop_samples(small) == drop_samples(large[:len(small)])
    # ... and each chunk is the ensemble haar_triples draws for it
    margins = np.concatenate([dpi_margins("infidelity", None,
                                          haar_triples(3, SEARCH_CHUNK, 9, chunk=k))
                              for k in range(3)])
    np.testing.assert_allclose([float(r["margin"]) for r in large],
                               margins[:len(large)], rtol=1e-10, atol=1e-14)


def test_dpi_memory_does_not_grow_with_the_ensemble(tmp_path):
    # one chunk of the ensemble is held at a time; a sample keeps its margin
    # and its report index, 16 B, and nothing else
    def traced_peak(chunks):
        target = tmp_path / "dpi.csv"
        tracemalloc.start()
        try:
            code = main(["dpi", "--divergence", "relative_entropy", "--dim", "3",
                         "--samples", str(chunks * SEARCH_CHUNK), "--output", str(target)])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (code2, peak2), (code16, peak16) = traced_peak(2), traced_peak(16)
    assert code2 == code16 == 0
    extra = 14 * SEARCH_CHUNK
    assert peak16 - peak2 <= 16 * extra + (1 << 20), (
        f"traced peak {peak2} B at 2 chunks, {peak16} B at 16")


def test_dpi_memory_does_not_grow_with_the_dimension(tmp_path):
    # above d=4 a scan chunk's rows shrink as 1/d^2, so at d=32 a small budget
    # draws 64 rows, about 1 MB per complex array, and not 4096 rows (64 MB)
    tracemalloc.start()
    try:
        code = main(["dpi", "--divergence", "trace", "--dim", "32", "--samples", "10",
                     "--output", str(tmp_path / "dpi.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 16 << 20, f"traced peak {peak} B"


# ---------------------------------------------------------------------------
# volume and table2


def test_volume_schema(capsys):
    code, out, _ = run(
        ["volume", "--relation", "U_hs", "--dim", "2", "--samples", "20000",
         "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "relation,variant,alpha,dim,samples,seed,volume,std_error"
    row = rows_of(out)[0]
    assert row["relation"] == "U_hs" and row["dim"] == "2"
    assert abs(float(row["volume"]) - 0.705) < 0.02
    assert float(row["std_error"]) > 0


def test_volume_report_format(capsys):
    code, out, _ = run(
        ["volume", "--relation", "U_rd", "--alpha", "0.5", "--dim", "2", "--samples",
         "1000", "--seed", "60"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "relation,variant,alpha,dim,samples,seed,volume,std_error",
        "U_rd,canonical,0.5,2,1000,60,0.787,0.0129472390879",
    ]


def test_volume_worker_invariance(capsys):
    base = ["volume", "--relation", "U_re", "--dim", "3", "--samples", "30000", "--seed", "6"]
    serial = run(base + ["--workers", "1"], capsys)
    for workers in ([], ["--workers", "2"], ["--workers", "3"]):
        assert run(base + workers, capsys) == serial


def test_table2_memory_grows_at_most_with_the_default_workers(tmp_path):
    # each worker holds one chunk's arrays at a time, whatever the default is
    def traced_peak(workers):
        # with the cyclic collector off, each call's peak holds the same garbage
        # (such as its argument parser), whenever the collector would have run
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            code = main(["table2", "--dim", "3", "--samples", str(8 * VOLUME_CHUNK),
                         *workers, "--output", str(tmp_path / "table2.csv")])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    assert traced_peak([])[0] == 0  # first-call costs
    default = cli._default_workers()
    assert 1 <= default <= cli.MAX_DEFAULT_WORKERS
    # every count the default can take is traced, so a one-CPU host still
    # compares two workers with one rather than one run with its repeat
    peaks = {}
    for workers in range(1, cli.MAX_DEFAULT_WORKERS + 1):
        code, peaks[workers] = traced_peak(["--workers", str(workers)])
        assert code == 0
    for workers, peak in peaks.items():
        assert peak <= workers * peaks[1], (
            f"traced peak {peaks[1]} B with 1 worker, {peak} B with {workers}")


def test_table2_compare(capsys):
    code, out, _ = run(
        ["table2", "--dim", "2", "--samples", "20000", "--seed", "1", "--compare"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 8
    canonical = [r for r in rows if r["variant"] == "canonical"]
    printed = [r for r in rows if r["variant"] == "printed"]
    assert len(canonical) == 7 and len(printed) == 1
    assert printed[0]["relation"] == "U_ts"
    assert printed[0]["reference"] == ""
    for row in canonical:
        assert row["reference"] != ""
        gap = float(row["volume"]) - float(row["reference"])
        assert float(row["gap"]) == pytest.approx(gap, abs=1e-9)


# ---------------------------------------------------------------------------
# region


def test_region_csv(capsys):
    code, out, _ = run(
        ["region", "--relation", "EUR_MU", "--alpha", "1", "--beta", "1",
         "--c00", "1.0", "--resolution", "5"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 25
    assert {r["admissible"] for r in rows} == {"true"}
    assert rows[0]["relation"] == "EUR_MU[alpha=1,beta=1]"
    assert rows[0]["c00"] == "1"


def test_region_report_format(capsys):
    code, out, _ = run(
        ["region", "--relation", "U_tr", "--c00", "0.5", "--resolution", "3"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "relation,c00,p0,q0,admissible"
    assert lines[1] == "U_tr,0.5,0,0,false"
    assert lines[2] == "U_tr,0.5,0,0.5,true"
    assert lines[-1] == "U_tr,0.5,1,1,false"
    assert len(lines) == 10


@pytest.mark.parametrize("c00", ["0.05", "0.3", "0.35", "0.65"])
@pytest.mark.parametrize("relation", ["THM1_UNIVERSAL", "U_tr"])
def test_region_cells_are_judged_at_their_printed_points(relation, c00, capsys):
    # a cell evaluated off the point it prints flips where a boundary falls
    # between the two, as THM1 at c00 = 0.05 did at (0, 0.95) and (0.95, 0)
    code, out, _ = run(["region", "--relation", relation, "--c00", c00,
                        "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 101 * 101
    p0, q0, admissible = (np.array([r[k] for r in rows]) for k in ("p0", "q0", "admissible"))
    p, q = np.stack([p0, 1.0 - p0], axis=-1), np.stack([q0, 1.0 - q0], axis=-1)
    c = np.full((len(rows), 2, 2), 1.0 - float(c00))
    c[:, 0, 0] = c[:, 1, 1] = float(c00)
    rel = RelationId(relation)
    assert np.array_equal(_accepts(rel, p, q, _shared_arrays(p, q, c)), admissible)


# ---------------------------------------------------------------------------
# coherence and shots


def test_coherence_exact(instance_files, capsys):
    code, out, err = run(["coherence", "--dim", "2", *FILE_FLAGS(instance_files)], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "upper,exact,lower,log_base"
    row = rows_of(out)[0]
    assert float(row["upper"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["exact"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["lower"]) == pytest.approx(1.0, abs=1e-9)


def test_coherence_report_format(instance_files, capsys):
    _, out, _ = run(["coherence", *FILE_FLAGS(instance_files)], capsys)
    # log_base is the --log-base label, as in the verify, dpi and search reports
    assert out.splitlines() == ["upper,exact,lower,log_base", "1,1,1,2"]
    _, out, _ = run(["coherence", "--log-base", "e", *FILE_FLAGS(instance_files)], capsys)
    assert out.splitlines()[1] == "0.69314718056,0.69314718056,0.69314718056,e"
    _, out, _ = run(["coherence", "--log-base", "e", "--shots", "10",
                     *FILE_FLAGS(instance_files)], capsys)
    assert rows_of(out)[0]["log_base"] == "e"


def test_coherence_shots(instance_files, capsys):
    code, out, err = run(
        ["coherence", "--dim", "2", "--shots", "100000", "--seed", "3",
         *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 0 and err == ""
    row = rows_of(out)[0]
    assert abs(float(row["lower_estimate"]) - 1.0) < 0.05
    assert row["unbounded"] == "false"
    assert row["shots"] == "100000"


def test_coherence_shots_unbounded_warns(instance_files, capsys):
    code, out, err = run(
        ["coherence", "--dim", "2", "--shots", "2", "--smoothing", "0",
         "--seed", "2", *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 0
    assert err.startswith("warn:")
    row = rows_of(out)[0]
    assert row["unbounded"] == "true"
    assert row["lower_estimate"] == "inf"


def test_coherence_shots_unbounded_json(instance_files, capsys):
    # a non-finite JSON cell from a fixed instance, whatever the Haar sampler draws
    code, out, _ = run(
        ["coherence", "--dim", "2", "--shots", "2", "--smoothing", "0",
         "--seed", "2", "--format", "json", *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["lower_estimate"] == "inf"
    assert row["unbounded"] is True


def test_shots_direct(instance_files, capsys):
    code, out, _ = run(
        ["shots", "--kind", "direct_B", "--n", "500", "--dim", "2", "--seed", "9",
         *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 2
    assert sum(int(r["count"]) for r in rows) == 500
    assert {r["j"] for r in rows} == {""}


def test_shots_sequential(instance_files, capsys):
    code, out, _ = run(
        ["shots", "--kind", "sequential_AB", "--n", "500", "--dim", "2", "--seed", "9",
         *FILE_FLAGS(instance_files)],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 4
    assert sum(int(r["count"]) for r in rows) == 500
    assert {(r["i"], r["j"]) for r in rows} == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}


@pytest.fixture(scope="module")
def fourier_a_instances(tmp_path_factory):
    """File flags of ten instances a dimension, d = 2, 3, 4, each measured
    first in the Fourier basis and then in a Haar-random basis."""
    root = tmp_path_factory.mktemp("fourier_a")
    instances = []
    for dim in (2, 3, 4):
        fourier = root / f"fourier{dim}.json"
        save_basis(fourier, fourier_basis(dim))
        for k in range(10):
            rho, b = root / f"rho{dim}_{k}.json", root / f"b{dim}_{k}.json"
            save_state(rho, sample("haar_state_mixed", dim, k))
            save_basis(b, sample("haar_unitary_basis", dim, 100 + k))
            instances.append(FILE_FLAGS([str(rho), str(fourier), str(b)]))
    return instances


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_u_re_sides_are_the_coherence_bracket(fmt, fourier_a_instances, capsys):
    # each instance is reduced once, in basis A's frame, so verify's U_re
    # sides H(p) and KL(q||q') are coherence's upper and lower to the bit
    sampled = [["--dim", str(dim), "--seed", str(seed)]
               for dim in (2, 3, 4) for seed in range(60)]
    for instance in sampled + fourier_a_instances:
        rows = []
        for command in (["verify", "--relation", "U_re"], ["coherence"]):
            _, out, _ = run([*command, *instance, "--format", fmt], capsys)
            rows.append(json.loads(out)["rows"][0] if fmt == "json" else rows_of(out)[0])
        verify, coherence = rows
        assert (verify["lhs"], verify["rhs"]) == (coherence["upper"], coherence["lower"]), \
            instance


def test_coherence_shots_are_the_shots_reports_of_its_seed(capsys):
    # coherence --shots draws both records from the seed's own shot streams,
    # which are those of the shots command, not the next seed's instance stream
    instance = ["--dim", "3", "--seed", "7"]
    _, out, _ = run(["coherence", *instance, "--shots", "5000", "--format", "json"], capsys)
    row = json.loads(out)["rows"][0]
    records = []
    for kind in ("direct_B", "sequential_AB"):
        _, out, _ = run(["shots", *instance, "--kind", kind, "--n", "5000", "--format",
                         "json"], capsys)
        rows = json.loads(out)["rows"]
        counts = np.array([r["count"] for r in rows])
        records.append(ShotCounts(kind, 3, counts.reshape(3, -1).squeeze(), 5000, 7))
    lower, upper = estimate_coherence(*records)
    assert (row["lower_estimate"], row["upper_estimate"]) == (lower, upper)


# ---------------------------------------------------------------------------
# output file, error paths


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "volume.csv"
    code, out, _ = run(
        ["volume", "--relation", "U_tr", "--dim", "2", "--samples", "5000",
         "--seed", "1", "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    content = target.read_text()
    assert content.startswith("relation,variant,alpha,dim,samples,seed,volume,std_error\n")


def test_missing_file_is_a_cli_error(capsys):
    code, out, err = run(
        ["verify", "--relation", "U_tr", "--dim", "2", "--state", "/nonexistent.json",
         "--basis-a", "/nonexistent.json", "--basis-b", "/nonexistent.json"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("dims", [(3, 2, 2), (2, 2, 2)], ids=["files_differ", "dim_flag"])
def test_file_dimension_conflict_is_an_input_error(dims, tmp_path, capsys):
    # files of different dimensions, or --dim 3 with dim-2 files
    files = [tmp_path / name for name in ("rho.json", "a.json", "b.json")]
    save_state(files[0], make_density(np.eye(dims[0]) / dims[0]))
    save_basis(files[1], standard_basis(dims[1]))
    save_basis(files[2], fourier_basis(dims[2]))
    target = tmp_path / "report.csv"
    code, out, err = run(["verify", "--relation", "U_tr", "--dim", "3",
                          *FILE_FLAGS([str(f) for f in files]), "--output", str(target)],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "dim" in err
    assert not target.exists()


def test_alpha_out_of_range_is_a_cli_error(capsys):
    code, _, err = run(
        ["verify", "--relation", "U_rd", "--alpha", "0.3", "--dim", "2", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


# Each row keeps the id it was first recorded under, so a row inserted
# anywhere renames no other; a new row takes a new id of its own.
@pytest.mark.parametrize("argv, flag", [
    pytest.param(["dpi", "--divergence", "trace", "--samples", "0"],
                 "--samples", id="argv0---samples"),
    pytest.param(["dpi", "--divergence", "trace", "--dim", "1"], "--dim", id="argv1---dim"),
    pytest.param(["search", "--relation", "U_tr", "--samples", "0"],
                 "--samples", id="argv2---samples"),
    pytest.param(["search", "--relation", "U_tr", "--dim", "1"], "--dim", id="argv3---dim"),
    pytest.param(["verify", "--relation", "U_tr", "--dim", "1"], "--dim", id="argv4---dim"),
    pytest.param(["coherence", "--dim", "1"], "--dim", id="argv5---dim"),
    pytest.param(["shots", "--dim", "1"], "--dim", id="argv6---dim"),
    pytest.param(["volume", "--relation", "U_tr", "--samples", "1000", "--workers", "0"],
                 "--workers", id="argv7---workers"),
    pytest.param(["volume", "--relation", "U_tr", "--samples", "1000", "--workers", "-3"],
                 "--workers", id="argv8---workers"),
    pytest.param(["table2", "--samples", "1000", "--workers", "0"],
                 "--workers", id="argv9---workers"),
    pytest.param(["dpi", "--divergence", "trace", "--seed", "-1"],
                 "--seed", id="argv10---seed"),
    pytest.param(["search", "--relation", "U_tr", "--seed", "-1"],
                 "--seed", id="argv11---seed"),
    pytest.param(["verify", "--relation", "U_tr", "--seed", "-1"],
                 "--seed", id="argv12---seed"),
    pytest.param(["volume", "--relation", "U_tr", "--seed", "-1"],
                 "--seed", id="argv13---seed"),
    pytest.param(["table2", "--seed", "-1"], "--seed", id="argv14---seed"),
    pytest.param(["coherence", "--seed", "-1"], "--seed", id="argv15---seed"),
    pytest.param(["shots", "--seed", "-1"], "--seed", id="argv16---seed"),
    pytest.param(["dpi", "--divergence", "trace", "--samples", "ten"],
                 "--samples", id="argv17---samples"),
    pytest.param(["volume", "--relation", "U_tr", "--dim", "4"], "--dim", id="argv18---dim"),
    pytest.param(["table2", "--dim", "1"], "--dim", id="argv19---dim"),
    pytest.param(["volume", "--relation", "U_tr", "--samples", "999"],
                 "--samples", id="argv20---samples"),
    pytest.param(["table2", "--samples", "0"], "--samples", id="argv21---samples"),
    pytest.param(["region", "--relation", "U_tr", "--c00", "0.5", "--resolution", "1"],
                 "--resolution", id="argv22---resolution"),
    pytest.param(["coherence", "--shots", "0"], "--shots", id="argv23---shots"),
    pytest.param(["shots", "--n", "-1"], "--n", id="argv24---n"),
    # numpy's multinomial takes at most 2^63 - 1 shots
    pytest.param(["shots", "--n", str(2**63)], "--n", id="argv25---n"),
    pytest.param(["shots", "--kind", "sequential_AB", "--n", "1" + "0" * 400],
                 "--n", id="argv26---n"),
    pytest.param(["coherence", "--shots", str(2**63)], "--shots", id="argv27---shots"),
    # at most 32 pool threads, each holding one chunk
    pytest.param(["volume", "--relation", "U_tr", "--samples", "1000", "--workers", "33"],
                 "--workers", id="argv28---workers"),
    pytest.param(["table2", "--samples", "1000", "--workers", "33"],
                 "--workers", id="argv29---workers"),
    # the float flags: finite and in range, read or not
    pytest.param(["coherence", "--dim", "2", "--smoothing", "nan"],
                 "--smoothing", id="argv30---smoothing"),
    pytest.param(["coherence", "--dim", "2", "--smoothing", "-1"],
                 "--smoothing", id="argv31---smoothing"),
    pytest.param(["coherence", "--dim", "2", "--seed", "1", "--shots", "100",
                  "--smoothing", "nan"], "--smoothing", id="argv32---smoothing"),
    pytest.param(["coherence", "--dim", "2", "--seed", "1", "--shots", "100",
                  "--smoothing", "inf"], "--smoothing", id="argv33---smoothing"),
    pytest.param(["coherence", "--dim", "2", "--smoothing", "half"],
                 "--smoothing", id="argv34---smoothing"),
    pytest.param(["region", "--relation", "U_tr", "--c00", "nan"], "--c00", id="argv35---c00"),
    pytest.param(["region", "--relation", "U_tr", "--c00", "-0.1"],
                 "--c00", id="argv36---c00"),
    pytest.param(["region", "--relation", "U_tr", "--c00", "1.5"], "--c00", id="argv37---c00"),
    pytest.param(["region", "--relation", "U_tr", "--c00", "inf"], "--c00", id="argv38---c00"),
    # smoothing acts on shot counts, so without --shots it is refused
    pytest.param(["coherence", "--dim", "2", "--seed", "1", "--smoothing", "7"],
                 "--smoothing", id="argv39---smoothing"),
    # an instance comes from all three files or from a draw, never from some
    # files; the flag named is the first one given, and no file is opened
    pytest.param(["verify", "--relation", "U_tr", "--dim", "2", "--state", "rho.json"],
                 "--state", id="argv40---state"),
    pytest.param(["verify", "--relation", "U_tr", "--state", "rho.json", "--basis-b", "b.json"],
                 "--state", id="argv41---state"),
    pytest.param(["coherence", "--basis-a", "a.json", "--basis-b", "b.json"],
                 "--basis-a", id="argv42---basis-a"),
    pytest.param(["shots", "--kind", "sequential_AB", "--basis-b", "b.json"],
                 "--basis-b", id="argv43---basis-b"),
])
def test_bad_integer_is_rejected_at_parse_time(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err
    # argparse's refusals and main's own both show the subcommand's usage
    assert captured.err.startswith(f"usage: qud {argv[0]} ")


@pytest.mark.parametrize("argv", [
    ["verify", "--relation", "EUR_MU", "--alpha", "nan", "--beta", "0.5", "--dim", "2",
     "--seed", "3"],
    ["verify", "--relation", "EUR_MU", "--alpha", "0.5", "--beta", "nan", "--dim", "2",
     "--seed", "3"],
    ["verify", "--relation", "EUR_MU", "--alpha", "inf", "--beta", "0.5", "--dim", "2",
     "--seed", "3"],
    ["verify", "--relation", "EUR_MU", "--alpha", "0.5", "--beta", "inf", "--dim", "2",
     "--seed", "3"],
])
def test_non_finite_float_is_an_input_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_non_finite_file_entry_is_an_input_error(instance_files, tmp_path, which, bad,
                                                 capsys):
    # json reads NaN and Infinity, so the file loads and the validators must refuse it
    files = list(instance_files)
    text = Path(files[which]).read_text(encoding="utf-8")
    files[which] = str(tmp_path / "bad.json")
    Path(files[which]).write_text(text.replace("0.0", bad, 1), encoding="utf-8")
    code, out, err = run(["verify", "--relation", "U_tr", *FILE_FLAGS(files)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {files[which]}: ")
    assert "non-finite" in err


@pytest.mark.parametrize("which", [0, 1, 2])
def test_oversized_file_entry_is_an_input_error(instance_files, tmp_path, which, capsys):
    # json reads 1 followed by 400 zeros as an int, which no float can hold
    files = list(instance_files)
    text = Path(files[which]).read_text(encoding="utf-8")
    files[which] = str(tmp_path / "big.json")
    Path(files[which]).write_text(text.replace("0.0", "1" + "0" * 400, 1), encoding="utf-8")
    code, out, err = run(["verify", "--relation", "U_tr", *FILE_FLAGS(files)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {files[which]}: '")
    assert "too large for a float" in err


@pytest.mark.parametrize("argv", [
    ["volume", "--relation", "U_tr", "--samples", "1000"],
    ["table2", "--samples", "1000"],
    ["region", "--relation", "U_tr", "--c00", "0.5", "--resolution", "2"],
    ["shots", "--dim", "2"],
])
def test_log_base_is_refused_where_no_log_is_taken(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--log-base", "e"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --log-base" in captured.err


def test_unknown_relation_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--relation", "U_zz", "--dim", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# report writer

ORACLE_ROWS = 10_000  # three of the writer's 4096-row blocks, the last one ragged


def _oracle_table():
    """Constants of every cell type, and varying columns that hold non-finite
    floats, None, bools, ints and strings CSV has to quote."""
    k = np.arange(ORACLE_ROWS)
    margin = np.sin(k.astype(float))
    margin[k % 11 == 0] = np.inf
    margin[k % 13 == 0] = -np.inf
    margin[k % 17 == 0] = np.nan
    return {
        "relation": "U_ts{1/2}",
        "record": {"dim": 2, "note": "{not a field}", "real": [[1.0, 0.0], [0.0, 1.0]]},
        "index": k,
        "margin": margin,
        "maybe": [None if i % 3 == 0 else i / 8 for i in range(ORACLE_ROWS)],
        "found": [i % 2 == 0 for i in range(ORACLE_ROWS)],
        "label": [f'a,"b" {{{i}}}' for i in range(ORACLE_ROWS)],
        "alpha": 0.75,
        "absent": None,
        "seed": 12,
        "clean": True,
    }


def _oracle_rows(table):
    """The table as one list of Python values per row."""
    columns = [v.tolist() if isinstance(v, np.ndarray) else v for v in table.values()]
    rows = max((len(c) for c in columns if isinstance(c, list)), default=1)
    return [[c[i] if isinstance(c, list) else c for c in columns] for i in range(rows)]


def _oracle_json(table):
    def cell(value):
        return str(value) if isinstance(value, float) and not math.isfinite(value) else value

    rows = [{k: cell(v) for k, v in zip(table, row)} for row in _oracle_rows(table)]
    return json.dumps({"columns": list(table), "rows": rows}, indent=2, sort_keys=True) + "\n"


def _oracle_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(table))
    writer.writerows([_cell(v) for v in row] for row in _oracle_rows(table))
    return buf.getvalue()


def _write_report(table, fmt, tmp_path, to_file, capsys):
    target = tmp_path / f"report.{fmt}"
    _emit(table, argparse.Namespace(format=fmt, output=str(target) if to_file else None))
    out = capsys.readouterr().out
    if to_file:
        assert out == ""
        return target.read_text(encoding="utf-8")
    assert not target.exists()
    return out


@pytest.mark.parametrize("constants_only", [False, True], ids=["blocks", "one_row"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_writer_matches_the_one_shot_writers(fmt, to_file, constants_only,
                                                    tmp_path, capsys):
    table = _oracle_table()
    if constants_only:  # every cell of the first row as a constant
        table = {k: row0 for k, row0 in zip(table, _oracle_rows(table)[0])}
    expected = (_oracle_json if fmt == "json" else _oracle_csv)(table)
    # line lists, so a failure reports its first differing line, not a diff of ~1 MB
    text = _write_report(table, fmt, tmp_path, to_file, capsys)
    assert text.split("\n") == expected.split("\n")


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_writer_writes_nothing_for_a_ragged_table(fmt, to_file, tmp_path, capsys):
    table = {"index": np.arange(5), "seed": 3, "margin": [0.5] * 4}
    target = tmp_path / f"report.{fmt}"
    with pytest.raises(ValueError):
        _emit(table, argparse.Namespace(format=fmt, output=str(target) if to_file else None))
    assert capsys.readouterr().out == ""
    assert not target.exists()


def test_report_emission_memory_is_bounded(tmp_path):
    # a 2^16-row dpi report: the writer holds one block of rows at a time, so
    # its traced peak is a small fraction of the report it writes
    rows = 1 << 16
    table = {"divergence": "renyi_sandwiched", "alpha": 0.75, "dim": 3, "samples": rows,
             "seed": 4, "index": np.arange(rows),
             "margin": np.random.default_rng(4).exponential(size=rows), "log_base": "2"}
    target = tmp_path / "dpi.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _emit(table, argparse.Namespace(format="json", output=str(target)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert peak <= size / 4, f"traced peak {peak} B for a {size} B report"


def _edge_tables():
    """Tables that reach each path of the block renderer, by name."""
    rows = 2 * 4096 + 123  # three blocks, the last one ragged
    k = np.arange(rows)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 0.1,
                         1 / 3, 123456789012345.0, 2.0**60])
    floats = specials[k % len(specials)]
    flagged = floats.copy()  # inf and nan in the middle block only
    flagged[4096 + 7] = np.inf
    flagged[4096 + 11] = -np.inf
    flagged[4096 + 13] = np.nan
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1])
    return {
        "dpi": {"divergence": "trace", "alpha": None, "dim": 3, "samples": rows, "seed": 1,
                "index": k, "margin": np.random.default_rng(1).normal(size=rows),
                "log_base": "2"},
        "floats": {"finite": floats, "flagged": flagged,
                   "float32": np.random.default_rng(2).normal(size=rows).astype(np.float32)},
        "ints": {"int64": extremes[k % 4], "uint64": np.full(rows, 2**64 - 1, np.uint64),
                 "int8": (k % 256 - 128).astype(np.int8)},
        "bools": {"admissible": k % 3 == 0, "p0": floats, "c00": 0.5},
        "constants": {"50%": '100% {x}, "q" %s %d', "record": {"note": "%(a)s {}"},
                      "index": k, "label": [f"{i}%" for i in range(rows)],
                      "rate": "5%"},
        "one_column": {"index": k},
        "one_list_column": {"cell": [None if i % 5 == 0 else f"{i}," for i in range(rows)]},
        "one_constant": {"absent": None},
    }


@pytest.mark.parametrize("name", list(_edge_tables()))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_block_renderer_edge_cases_match_the_one_shot_writers(fmt, name, tmp_path,
                                                              capsys):
    table = _edge_tables()[name]
    expected = (_oracle_json if fmt == "json" else _oracle_csv)(table)
    # compared as lines, so a mismatch names its first line instead of diffing megabytes
    written = _write_report(table, fmt, tmp_path, False, capsys)
    assert written.split("\n") == expected.split("\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_numeric_cells_are_rendered_per_block_not_per_cell(fmt, tmp_path, monkeypatch):
    # the one-cell renderers see only the six constants of a 2^16-row dpi
    # table, never one of its 2^17 numeric cells
    calls = []
    for name in ("_cell", "_json_cell"):
        render = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda v, render=render: calls.append(v) or render(v))
    rows = 1 << 16
    table = {"divergence": "tsallis", "alpha": 0.5, "dim": 3, "samples": rows, "seed": 4,
             "index": np.arange(rows),
             "margin": np.random.default_rng(4).exponential(size=rows), "log_base": "2"}
    _emit(table, argparse.Namespace(format=fmt, output=str(tmp_path / f"dpi.{fmt}")))
    assert sorted(map(str, calls)) == sorted(
        str(v) for k, v in table.items() if k not in ("index", "margin"))


def _qud_process(argv, stdout):
    # stdout block-buffered, as it is by default when it is not a terminal
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "qud.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


def test_closed_pipe_exits_141_without_a_diagnostic():
    # a report far larger than a pipe's 64 KiB buffer, read for one line
    proc = _qud_process(["dpi", "--divergence", "trace", "--dim", "2", "--samples", "20000"],
                        subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"divergence,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_pipe_closed_before_a_short_report_exits_141():
    # a one-row report sits in stdout's buffer until the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _qud_process(["coherence", "--dim", "2"], write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("target", ["missing_dir/x.csv", "", "file/x.csv"])
def test_bad_output_is_refused_before_any_work(target, tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")

    def draw(*args, **kwargs):
        raise AssertionError("the ensemble was drawn")

    monkeypatch.setattr(cli, "dpi_scan", draw)
    path = tmp_path / target  # "" names tmp_path itself, a directory
    code, out, err = run(["dpi", "--divergence", "trace", "--samples", "10", "--output",
                          str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --output: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_empty_output_is_refused(tmp_path, monkeypatch, capsys):
    # only a missing --output means stdout; an empty path names no file
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["verify", "--relation", "U_tr", "--dim", "2", "--output", ""],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --output: ")
    assert list(tmp_path.iterdir()) == []


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 14.6 TiB for an array")


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("argv", [
    ["dpi", "--divergence", "trace", "--dim", "1000000", "--samples", "1"],
    ["table2", "--dim", "3", "--samples", "1000"],
    ["volume", "--relation", "U_re", "--dim", "3", "--samples", "1000"],
], ids=["dpi", "table2", "volume"])
def test_out_of_memory_is_an_input_error(argv, to_file, tmp_path, monkeypatch, capsys):
    # exit 1 means a violation was found; a draw too large to hold is exit 2
    monkeypatch.setattr(cli, "dpi_scan", _no_memory)
    monkeypatch.setattr(cli, "estimate_volumes", _no_memory)
    target = tmp_path / "report.csv"
    code, out, err = run([*argv, *(["--output", str(target)] if to_file else [])], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 14.6 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []
