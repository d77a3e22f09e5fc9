"""Golden CLI reports: seeded commands whose stdout and exit code are fixed.

Every report is a pure function of its argv, so these files pin the
determinism contract byte for byte. A change that moves any of them must
say why in CHANGES.md and regenerate the files with

    PYTHONPATH=src python tests/test_cli_golden.py

Given golden names, the script rewrites only those files and their exit
codes, so a new golden can be captured without touching the others:

    PYTHONPATH=src python tests/test_cli_golden.py table2_d3_workers2_multichunk
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

from qud.cli import _cell, main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "verify_d2_csv": ["verify", "--relation", "U_ts", "--alpha", "0.5", "--dim", "2",
                      "--seed", "11"],
    "verify_d3_json": ["verify", "--relation", "EUR_MU", "--alpha", "1", "--beta", "1",
                       "--dim", "3", "--seed", "5", "--format", "json"],
    "search_uts_printed_hit6": ["search", "--relation", "U_ts", "--variant", "printed",
                                "--alpha", "0.5", "--dim", "2", "--samples", "2000",
                                "--seed", "143"],
    "search_uts_printed_hit17": ["search", "--relation", "U_ts", "--variant", "printed",
                                 "--alpha", "0.5", "--dim", "2", "--samples", "10000",
                                 "--seed", "16"],
    "search_eur_ts_printed_hit242": ["search", "--relation", "EUR_TS", "--variant",
                                     "printed", "--alpha", "0.5", "--dim", "2",
                                     "--samples", "10000", "--seed", "1", "--format",
                                     "json"],
    "search_canonical_d3": ["search", "--relation", "U_ts", "--alpha", "0.5", "--dim",
                            "3", "--samples", "20000", "--seed", "2"],
    "search_canonical_d3_json": ["search", "--relation", "U_ts", "--alpha", "0.5",
                                 "--dim", "3", "--samples", "20000", "--seed", "2",
                                 "--format", "json"],
    "dpi_renyi_sandwiched_d3": ["dpi", "--divergence", "renyi_sandwiched", "--alpha",
                                "0.75", "--dim", "3", "--samples", "100", "--seed", "4"],
    "dpi_tsallis_d4_json": ["dpi", "--divergence", "tsallis", "--alpha", "0.5", "--dim",
                            "4", "--samples", "40", "--seed", "5", "--format", "json"],
    "volume_d3_workers2": ["volume", "--relation", "U_re", "--dim", "3", "--samples",
                           "100000", "--seed", "6", "--workers", "2"],
    "table2_d2_compare": ["table2", "--dim", "2", "--samples", "20000", "--seed", "1",
                          "--compare"],
    "table2_d3_json": ["table2", "--dim", "3", "--samples", "20000", "--seed", "1",
                       "--format", "json"],
    "table2_d3_workers2_multichunk": ["table2", "--dim", "3", "--samples", "140000",
                                      "--seed", "3", "--workers", "2"],
    "region_u_tr": ["region", "--relation", "U_tr", "--c00", "0.3", "--resolution", "11"],
    "coherence_exact": ["coherence", "--dim", "3", "--seed", "7"],
    "coherence_shots": ["coherence", "--dim", "3", "--seed", "7", "--shots", "5000"],
    "shots_sequential_ab": ["shots", "--kind", "sequential_AB", "--dim", "3", "--n",
                            "1000", "--seed", "8"],
    "coherence_shots_inf_json": ["coherence", "--dim", "3", "--seed", "8", "--shots",
                                 "3", "--smoothing", "0", "--format", "json"],
    "region_u_tr_json": ["region", "--relation", "U_tr", "--c00", "0.3", "--resolution",
                         "5", "--format", "json"],
    "shots_direct_json": ["shots", "--kind", "direct_B", "--dim", "3", "--n", "200",
                          "--seed", "8", "--format", "json"],
    "table2_d2_compare_json": ["table2", "--dim", "2", "--samples", "20000", "--seed",
                               "1", "--compare", "--format", "json"],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name):
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    code, out = _run(COMMANDS[name])
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_every_golden_file_has_a_command():
    # a renamed or dropped command cannot leave a stale golden behind
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    stems = {path.stem for path in GOLDEN.glob("*.txt")}
    assert stems == set(COMMANDS) == set(codes)


def _other_format(argv):
    if "--format" in argv:
        at = argv.index("--format")
        return argv[:at] + argv[at + 2:]
    return [*argv, "--format", "json"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_and_csv_reports_hold_the_same_table(name):
    # every JSON row carries every listed column, and each JSON cell, written
    # by the CSV cell rule, is the CSV cell
    argv = COMMANDS[name]
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    other = _run(_other_format(argv))[1]
    text_json, text_csv = (golden, other) if "--format" in argv else (other, golden)
    payload = json.loads(text_json)
    header, *rows = csv.reader(io.StringIO(text_csv))
    assert payload["columns"] == header
    assert len(payload["rows"]) == len(rows)
    for record, row in zip(payload["rows"], rows):
        assert sorted(record) == sorted(header)
        assert [_cell(record[column]) for column in header] == row


def _rewrite(names):
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        raise SystemExit(f"unknown golden names: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    codes_path = GOLDEN / "exit_codes.json"
    old = json.loads(codes_path.read_text(encoding="utf-8")) if codes_path.exists() else {}
    codes = {name: code for name, code in old.items() if name in COMMANDS}
    for name in sorted(names):
        codes[name], out = _run(COMMANDS[name])
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
    codes_path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    _rewrite(sys.argv[1:] or COMMANDS)
