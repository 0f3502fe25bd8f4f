import csv
import io
import json
import re
import sys

import pytest

from cubesteiner import autgroup, domination
from cubesteiner.cli import main
from cubesteiner.cube import Dimension


@pytest.fixture()
def run(capsys):
    def _run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def _parse_text(out):
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


def test_exact_inline_example(run):
    code, out, err = run(["exact", "--n", "3", "--set", "inline:000,011,101"])
    assert code == 0
    assert err == ""
    fields = _parse_text(out)
    assert fields["distance"] == "3"
    assert fields["set_size"] == "3"
    assert "001" in fields["tree_vertices"].split()
    assert len(fields["tree_edges"].split()) == 3

    # The chosen witness trees are pinned: overlap statistics depend on them.
    witnesses = {
        # an all-even 10-set of Q_5
        "11000,10100,01100,10010,01010,10001,01001,00101,10111,01111": (
            "13",
            "11000-01000 11000-11010 10100-10101 01100-01000 10010-11010 "
            "01010-01000 10001-10101 01001-01101 01001-01000 00101-10101 "
            "00101-01101 10111-10101 01111-01101",
        ),
        # a random 5-set of Q_10
        "0110000100,1101000010,1110011110,1010111101,0101001111": (
            "14",
            "0100000100-0110000100 0100000100-0101000100 1110000100-0110000100 "
            "1110000100-1110010100 1110011100-1110010100 1110011100-1110011110 "
            "1110011100-1110011101 1101000010-0101000010 0101000110-0101000010 "
            "0101000110-0101000100 0101000110-0101000111 1110111101-1010111101 "
            "1110111101-1110011101 0101001111-0101000111",
        ),
    }
    for terminals, (distance, edges) in witnesses.items():
        n = str(len(terminals.split(",")[0]))
        code, out, _ = run(["exact", "--n", n, "--set", "inline:" + terminals])
        assert code == 0
        fields = _parse_text(out)
        assert (fields["distance"], fields["tree_edges"]) == (distance, edges)


def test_exact_even_class(run):
    witnesses = {
        "3": ("5", "000-010 000-001 110-010 101-001 011-001"),
        "4": (
            "10",
            "0000-1000 0000-0001 1100-1000 1010-1000 0110-0111 1001-0001 "
            "0101-0001 0011-0111 0011-0001 1111-0111",
        ),
    }
    for n, (distance, edges) in witnesses.items():
        code, out, _ = run(["exact", "--n", n, "--set", "even"])
        assert code == 0
        fields = _parse_text(out)
        assert (fields["distance"], fields["tree_edges"]) == (distance, edges)


# Full stdout pinned: the witness tree, and through it the overlap
# statistics, must not change with how the DP is organised.
PINNED_REPORTS = [
    (
        [
            "exact",
            "--n",
            "6",
            "--set",
            "inline:000000,000011,000101,001001,010001,100001,001111,011011,110101,111111",
        ],
        "command: exact\n"
        "seed: 0\n"
        "budget_states: 4194304\n"
        "n: 6\n"
        "terminals: 000000 100001 010001 001001 000101 110101 000011 011011 001111 111111\n"
        "set_size: 10\n"
        "distance: 13\n"
        "tree_vertices: 000000 000001 100001 010001 001001 000101 110101 111101 000011 "
        "010011 011011 001111 011111 111111\n"
        "tree_edges: 000000-000001 100001-000001 010001-000001 001001-000001 "
        "000101-000001 110101-111101 000011-010011 000011-000001 011011-010011 "
        "011011-011111 001111-011111 111111-011111 111111-111101\n",
    ),
    (
        [
            "experiment",
            "--n",
            "5",
            "--set",
            "inline:11000,10100,01100,10010,01010,10001,01001,00101,10111,01111",
            "--exhaustive",
        ],
        "command: experiment\n"
        "seed: 0\n"
        "budget_states: 4194304\n"
        "n: 5\n"
        "terminals: 11000 10100 01100 10010 01010 10001 01001 00101 10111 01111\n"
        "set_size: 10\n"
        "distance: 13\n"
        "mode: exhaustive\n"
        "pair_count: 6400\n"
        "mean: 169/80\n"
        "expected_mean: 169/80\n"
        "max_overlap: 4\n"
        "min_lhs: 22\n"
        "pair_bound_rhs: 14\n"
        "pair_bound_ok: true\n",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_REPORTS, ids=["exact-q6", "experiment-q5"])
def test_witness_dependent_reports_are_pinned(run, argv, expected):
    assert run(argv) == (0, expected, "")


def test_group_verify_summary_line(run):
    code, out, _ = run(["group-verify", "--n", "4"])
    assert code == 0
    assert (
        "sharp edge transitivity: OK (32 elements, 32 edges, 1024 ordered pairs)\n"
        in out
    )


def test_group_verify_prints_fail_and_counterexample(run, monkeypatch):
    # The last element of Q_3's group acts like the one before it, s=2;m=101,
    # which maps 000-100 to 101-111.
    *_, g_prev, g_last = autgroup.enumerate_group(Dimension(3))
    real = autgroup._edge_image
    monkeypatch.setattr(
        autgroup,
        "_edge_image",
        lambda dim, g, e: real(dim, g_prev if g == g_last else g, e),
    )
    code, out, err = run(["group-verify", "--n", "3"])
    assert (code, err) == (0, "")
    assert out.endswith(
        "sharp edge transitivity: FAIL (12 elements, 12 edges, 144 ordered pairs)\n"
        "counterexample: 000-100 -> 101-111\n"
    )


def test_bound_even_q3(run):
    code, out, _ = run(["bound", "--n", "3", "--set", "even"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["lower"] == "8/3"
    assert fields["lower_floor"] == "4"
    assert fields["certified_lower"] == "4"
    assert fields["exact"] == "5"
    assert fields["upper"] == "5"
    assert fields["cds_method"] == "exact"
    assert fields["cds_connected"] == "true"


def test_bound_reports_budget_omission(run):
    code, out, _ = run(["bound", "--n", "7", "--set", "even"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["exact"] == "omitted"
    assert fields["exact_reason"].startswith("budget:")
    assert fields["lower"] == "452/7"


def test_bound_mixed_parity_has_no_quadratic_lower(run):
    code, out, _ = run(["bound", "--n", "3", "--set", "inline:000,111"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["lower"] == "none"
    assert fields["exact"] == "3"

    code, out, _ = run(
        ["bound", "--n", "4", "--set", "inline:1000,0010,0110,1110,1101"]
    )
    assert code == 0
    fields = _parse_text(out)
    assert fields["lower"] == "none"
    assert (fields["exact"], fields["upper"]) == ("5", "8")
    assert fields["cds_vertices"] == "0000 1000 0100 1010 0101 1011"
    assert fields["tree_edges"] == (
        "0000-1000 0000-0100 0000-0010 1010-1110 1010-1000 0110-0100 "
        "0101-1101 0101-0100"
    )

    # A single terminal has d = 0, below the quadratic bound (1/2 at n = 1).
    for spec in ("even", "inline:0"):
        code, out, _ = run(["bound", "--n", "1", "--set", spec])
        assert code == 0
        fields = _parse_text(out)
        assert fields["lower"] == "none"
        assert (fields["certified_lower"], fields["exact"]) == ("0", "0")


def test_cds_q3_fields(run):
    code, out, _ = run(["cds", "--n", "3"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["greedy_size"] == "2"
    assert fields["greedy_connected"] == "false"
    assert fields["hamming_size"] == "2"
    assert fields["exact_size"] == "4"
    assert fields["best_method"] == "exact"
    assert fields["best_size"] == "4"
    assert fields["best_vertices"] == "000 100 010 110"


# `cds --n <n>` bodies after the command/seed/budget_states/n header lines
CDS_REPORTS = {
    1: "greedy_size: 1\ngreedy_connected: true\nsteinerized_greedy_size: 1\n"
    "hamming_size: 1\nhamming_connected: true\nsteinerized_hamming_size: 1\n"
    "exact_size: 1\nbest_method: exact\nbest_size: 1\nbest_vertices: 0\n",
    2: "greedy_size: 2\ngreedy_connected: true\nsteinerized_greedy_size: 2\n"
    "exact_size: 2\nbest_method: exact\nbest_size: 2\nbest_vertices: 00 10\n",
    3: "greedy_size: 2\ngreedy_connected: false\nsteinerized_greedy_size: 4\n"
    "hamming_size: 2\nhamming_connected: false\nsteinerized_hamming_size: 4\n"
    "exact_size: 4\nbest_method: exact\nbest_size: 4\n"
    "best_vertices: 000 100 010 110\n",
    4: "greedy_size: 4\ngreedy_connected: false\nsteinerized_greedy_size: 6\n"
    "exact_size: 6\nbest_method: exact\nbest_size: 6\n"
    "best_vertices: 0000 1000 0100 1010 0101 1011\n",
    5: "greedy_size: 8\ngreedy_connected: false\nsteinerized_greedy_size: 12\n"
    "best_method: steinerized\nbest_size: 12\n"
    "best_vertices: 00000 10000 01000 11000 00100 10100 01100 11100 10010 01110 "
    "10011 01111\n",
    6: "greedy_size: 16\ngreedy_connected: false\nsteinerized_greedy_size: 22\n"
    "best_method: steinerized\nbest_size: 22\n"
    "best_vertices: 000000 100000 010000 110000 001000 101000 011000 111000 000100 "
    "010100 101100 011100 110010 001010 000110 100110 011110 111110 010101 101101 "
    "110011 001011\n",
    7: "greedy_size: 16\ngreedy_connected: false\nsteinerized_greedy_size: 36\n"
    "hamming_size: 16\nhamming_connected: false\nsteinerized_hamming_size: 36\n"
    "best_method: steinerized\nbest_size: 36\n"
    "best_vertices: 0000000 1000000 1100000 0010000 0110000 1110000 1001000 0101000 "
    "1101000 0011000 1011000 0111000 0100100 1100100 0010100 1010100 0001100 "
    "1001100 0111100 1111100 1000010 0110010 0101010 1011010 1100110 0010110 "
    "0001110 1111110 1101001 0011001 0100101 1010101 1000011 0110011 0001111 "
    "1111111\n",
}


@pytest.mark.parametrize("n", sorted(CDS_REPORTS))
def test_cds_report_is_pinned(run, n):
    code, out, err = run(["cds", "--n", str(n)])
    assert (code, err) == (0, "")
    header = f"command: cds\nseed: 0\nbudget_states: 4194304\nn: {n}\n"
    assert out == header + CDS_REPORTS[n]


def test_cds_builds_each_construction_once(run, monkeypatch):
    # wrap each construction in every package module that holds it
    holders = [m for k, m in sys.modules.items() if k.split(".")[0] == "cubesteiner"]
    names = (
        "greedy_dominating_set",
        "hamming_code_dominating_set",
        "exact_connected_dominating_set",
        "steinerize",
    )
    calls: dict[str, int] = {}
    for fname in names:
        orig = getattr(domination, fname)

        def counted(*args, _name=fname, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for holder in holders:
            if vars(holder).get(fname) is orig:
                monkeypatch.setattr(holder, fname, counted)

    for n, hamming in ((3, 1), (4, 0)):
        calls.update(dict.fromkeys(names, 0))
        code, _, _ = run(["cds", "--n", str(n)])
        assert code == 0
        assert calls == {
            "greedy_dominating_set": 1,
            "hamming_code_dominating_set": hamming,
            "exact_connected_dominating_set": 1,
            "steinerize": 1 + hamming,
        }


def test_sdiam_q3(run):
    code, out, _ = run(["sdiam", "--n", "3", "--k", "4"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["exact"] == "5"
    assert fields["lower"] == "8/3"
    assert fields["upper"] == "7"
    assert fields["worst_set"] == "000 110 101 011"


def test_sdiam_n1_lower_is_the_counting_floor(run):
    # the quadratic bound needs s = min(k, 2^(n-1)) >= 2; at n = 1 the
    # counting floor k - 1 is reported instead
    code, out, _ = run(["sdiam", "--n", "1", "--k", "2"])
    assert code == 0
    fields = _parse_text(out)
    assert (fields["lower"], fields["exact"], fields["upper"]) == ("1/1", "1", "2")


def test_sdiam_budget_omission(run):
    code, out, _ = run(["sdiam", "--n", "4", "--k", "8"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["exact"] == "omitted"
    assert fields["exact_reason"].startswith("budget:")
    assert "worst_set" not in fields


def test_experiment_exhaustive_default(run):
    code, out, _ = run(["experiment", "--n", "3", "--set", "even"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["mode"] == "exhaustive"
    assert fields["pair_count"] == "144"
    assert fields["mean"] == "25/12"
    assert fields["expected_mean"] == "25/12"
    assert fields["max_overlap"] == "3"
    assert fields["min_lhs"] == "7"
    assert fields["pair_bound_rhs"] == "4"
    assert fields["pair_bound_ok"] == "true"


def test_experiment_sampled(run):
    code, out, _ = run(
        ["experiment", "--n", "3", "--set", "even", "--samples", "500", "--seed", "7"]
    )
    assert code == 0
    fields = _parse_text(out)
    assert fields["mode"] == "sampled"
    assert fields["pair_count"] == "500"
    assert fields["mean"] == "1037/500"
    assert fields["seed"] == "7"


def test_json_format(run):
    code, out, _ = run(["bound", "--n", "3", "--set", "even", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["lower"] == "8/3"
    assert payload["exact"] == 5
    assert re.fullmatch(r"\d+/\d+", payload["lower"])
    keys = [line.split('"')[1] for line in out.splitlines() if '":' in line]
    assert keys == sorted(keys)


def test_csv_format(run):
    code, out, _ = run(["cds", "--n", "4", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["exact_size"] == "6"
    assert record["greedy_connected"] == "false"


def test_experiment_csv_is_the_transcript(run):
    code, out, _ = run(
        [
            "experiment",
            "--n",
            "3",
            "--set",
            "inline:000,110",
            "--samples",
            "25",
            "--seed",
            "3",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda1", "lambda2", "x"]
    assert len(rows) == 26
    for g1, g2, x in rows[1:]:
        assert re.fullmatch(r"s=\d+;m=[01]{3}", g1)
        assert re.fullmatch(r"s=\d+;m=[01]{3}", g2)
        assert 0 <= int(x) <= 2


def test_instance_file_round_trip(run, tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("n=3\n# three terminals\n000\n011\n101\n")
    code, out, _ = run(["exact", "--set", str(path)])
    assert code == 0
    assert _parse_text(out)["distance"] == "3"

    code, _, err = run(["exact", "--n", "4", "--set", str(path)])
    assert code == 2
    assert "error[parse]" in err


def test_missing_file_is_a_parse_error(run, tmp_path):
    code, _, err = run(["exact", "--set", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "error[parse]" in err

    path = tmp_path / "latin1.txt"
    path.write_bytes(b"n=3\n# caf\xe9\n000\n011\n")
    code, _, err = run(["exact", "--set", str(path)])
    assert code == 2
    assert "error[parse]" in err and "not UTF-8" in err


def test_inline_duplicates_rejected(run):
    code, _, err = run(["exact", "--n", "3", "--set", "inline:000,000"])
    assert code == 2
    assert "duplicate" in err


def test_named_set_requires_n(run):
    code, _, err = run(["exact", "--set", "even"])
    assert code == 2
    assert "--n" in err


def test_budget_exit_code(run):
    code, _, err = run(
        ["exact", "--n", "4", "--set", "even", "--budget-states", "100"]
    )
    assert code == 3
    assert "error[budget]" in err
    assert "exceeds budget 100" in err

    # 2^15 terminals project 2^32784 DP states, past int-to-str's digit cap
    code, _, err = run(["exact", "--n", "16", "--set", "even"])
    assert code == 3
    assert "error[budget]" in err
    assert "projected 2^32784+ units" in err

    # --set all is charged before its 2^22 vertices are enumerated
    code, _, err = run(
        ["exact", "--n", "22", "--set", "all", "--budget-states", "1000"]
    )
    assert code == 3
    assert "error[budget]: vertex set enumeration: projected 4194304" in err

    # the connected domination search is charged per node, 441 on Q_4
    code, _, err = run(["cds", "--n", "4", "--budget-states", "100"])
    assert code == 3
    assert "error[budget]: connected domination search" in err
    code, out, _ = run(["cds", "--n", "4", "--budget-states", "1000"])
    assert code == 0
    assert _parse_text(out)["exact_size"] == "6"


def test_precondition_exit_codes(run):
    code, _, err = run(["sdiam", "--n", "3", "--k", "99"])
    assert code == 4
    assert "error[precondition]" in err

    code, _, err = run(["experiment", "--n", "3", "--set", "inline:000,100"])
    assert code == 4
    assert "all-even" in err

    code, _, err = run(["exact", "--n", "3", "--set", "even", "--budget-states", "0"])
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--n", "x", "--set", "even"],
        ["experiment", "--n", "3", "--set", "even", "--exhaustive", "--samples", "3"],
        ["bogus"],
        [],
        ["cds", "--n", "3", "--k", "2"],
        ["cds"],
        ["sdiam", "--n", "3"],
        ["exact", "--n", "3"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_argparse_failures_are_parse_errors(run, argv):
    # one error line through main's table: no usage block, no SystemExit
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error[parse]:")
    assert err.count("\n") == 1
    assert "usage:" not in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cds", "--n", "3", "--help"])
    assert exc.value.code == 0
    assert "--budget-states" in capsys.readouterr().out


def test_seed_always_recorded(run):
    _, out, _ = run(["cds", "--n", "3", "--seed", "42"])
    assert _parse_text(out)["seed"] == "42"


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--n", "3", "--set", "inline:000,011,101"],
        ["bound", "--n", "4", "--set", "even"],
        ["cds", "--n", "5"],
        ["group-verify", "--n", "3"],
        ["experiment", "--n", "3", "--set", "even", "--samples", "200", "--seed", "11"],
        ["experiment", "--n", "3", "--set", "even", "--exhaustive"],
        ["sdiam", "--n", "3", "--k", "5"],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_repeat_runs_are_byte_identical(run, argv, fmt):
    first = run(argv + ["--format", fmt])
    second = run(argv + ["--format", fmt])
    assert first == second
    assert first[0] == 0
