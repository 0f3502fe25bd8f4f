import csv
import hashlib
import io
import json
import random
import re
import shlex
import sys
from pathlib import Path

import pytest

from cubesteiner import autgroup, cli, domination, steiner
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

    # The chosen witness trees are pinned. The all-even set is answered by
    # the Steiner-vertex search, so its tree is the BFS tree of S + A; the
    # sparse set exhausts the search's allowance, and its tree is the DP's
    # one on the weighted cube of its 8 column classes, lifted back to Q_10.
    # (The overlap experiment always uses the unit-weight DP's tree on S
    # itself, see experiment-q5.)
    witnesses = {
        # an all-even 10-set of Q_5
        "11000,10100,01100,10010,01010,10001,01001,00101,10111,01111": (
            "13",
            "11000-01000 11000-10000 10100-00100 10100-10000 01100-01000 "
            "10010-10000 01010-01000 10001-10000 01001-01000 00101-00111 "
            "00101-00100 10111-00111 01111-00111",
        ),
        # a random 5-set of Q_10
        "0110000100,1101000010,1110011110,1010111101,0101001111": (
            "14",
            "0100000100-0110000100 0100000100-0101000100 1110000100-0110000100 "
            "1110000100-1110010100 1110011100-1110010100 1110011100-1110011110 "
            "1110011100-1110011101 1101000010-0101000010 0101000110-0101000010 "
            "0101000110-0101000100 0101000110-0101000111 1010011101-1110011101 "
            "1010011101-1010111101 0101001111-0101000111",
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
        "3": ("5", "000-100 000-010 110-100 101-100 011-010"),
        "4": (
            "10",
            "0000-1000 0000-0100 1100-1000 1010-1000 1010-1011 0110-0100 "
            "1001-1000 0101-0100 0011-1011 1111-1011",
        ),
    }
    for n, (distance, edges) in witnesses.items():
        code, out, _ = run(["exact", "--n", n, "--set", "even"])
        assert code == 0
        fields = _parse_text(out)
        assert (fields["distance"], fields["tree_edges"]) == (distance, edges)


@pytest.mark.parametrize(
    "selector, size, distance", [("odd", "4", "5"), ("all", "8", "7")]
)
def test_exact_odd_and_all_sets(run, selector, size, distance):
    code, out, err = run(["exact", "--n", "3", "--set", selector])
    assert (code, err) == (0, "")
    fields = _parse_text(out)
    assert (fields["set_size"], fields["distance"]) == (size, distance)


def test_exact_even_class_of_q5_by_search_alone(run, monkeypatch):
    # the rooted DP over the other 15 terminals takes about 5 s here
    calls = []
    monkeypatch.setattr(steiner, "_subset_dp", lambda *a: calls.append(a))
    code, out, err = run(["exact", "--n", "5", "--set", "even"])
    assert (code, err, calls) == (0, "", [])
    fields = _parse_text(out)
    assert fields["distance"] == "20"
    assert len(fields["tree_edges"].split()) == 20


def test_exact_reaches_a_four_block_set_of_q20(run, monkeypatch):
    # 0 and four disjoint blocks of five ones: four column classes of
    # weight 5, so the DP builds 16 rows of 2^4 fields, where the DP on
    # Q_20 would build 16 rows of 2^20 fields, and is charged those
    # 2^4 * 2^4 units. n = 20 >= 5 leaves the search out.
    terminals = ["0" * 20] + ["0" * (5 * i) + "1" * 5 + "0" * (15 - 5 * i) for i in range(4)]
    argv = ["exact", "--n", "20", "--set", "inline:" + ",".join(terminals)]
    calls = []
    subset_dp = steiner._subset_dp

    def recording(terms, weights):
        calls.append((len(terms), weights))
        return subset_dp(terms, weights)

    monkeypatch.setattr(steiner, "_subset_dp", recording)
    code, out, err = run(argv)
    assert (code, err, calls) == (0, "", [(4, (5, 5, 5, 5))])
    fields = _parse_text(out)
    assert fields["distance"] == "20"
    assert len(fields["tree_edges"].split()) == 20
    code, _, err = run(argv + ["--budget-states", "255"])
    assert code == 3 and "projected 256 units exceeds budget 255" in err
    assert run(argv + ["--budget-states", "256"])[0] == 0


def test_exact_refuses_a_six_set_of_q64_before_any_dp_row(run, monkeypatch):
    # random 6-sets of Q_64 have 26-30 column classes; this one has 26, so
    # 2^5 rows of 2^26 fields, out of reach
    rng = random.Random(6)
    terminals = [format(rng.getrandbits(64), "064b") for _ in range(6)]
    calls = []
    monkeypatch.setattr(steiner, "_subset_dp", lambda *a: calls.append(a))
    code, out, err = run(["exact", "--n", "64", "--set", "inline:" + ",".join(terminals)])
    assert (code, out, calls) == (3, "", [])
    assert "projected 2147483648 units exceeds budget" in err


def _six_set_of_q64_on_classes(c):
    """0 and five terminals whose coordinate b copies the column
    cols[b % c] over them, for c distinct nonzero 5-bit columns: c column
    classes of 64 // c or 64 // c + 1 coordinates each."""
    cols = random.Random(c).sample(range(1, 32), c)
    terminals = [0] + [sum(1 << b for b in range(64) if cols[b % c] >> j & 1) for j in range(5)]
    return [format(v, "064b")[::-1] for v in terminals]


@pytest.mark.parametrize("c", [12, 17])
def test_exact_answers_a_six_set_of_q64_on_few_classes(run, monkeypatch, c):
    # 2^5 rows of 2^c fields: 131072 units at c = 12, and the default
    # budget itself at c = 17
    calls = []
    subset_dp = steiner._subset_dp

    def recording(terms, weights):
        calls.append((len(terms), len(weights)))
        return subset_dp(terms, weights)

    monkeypatch.setattr(steiner, "_subset_dp", recording)
    terminals = _six_set_of_q64_on_classes(c)
    code, out, err = run(["exact", "--n", "64", "--set", "inline:" + ",".join(terminals)])
    assert (code, err, calls) == (0, "", [(5, c)])
    fields = _parse_text(out)
    assert len(fields["tree_edges"].split()) == int(fields["distance"])
    assert set(terminals) <= set(fields["tree_vertices"].split())


def test_exact_refuses_a_six_set_of_q64_on_18_classes(run, monkeypatch):
    calls = []
    monkeypatch.setattr(steiner, "_subset_dp", lambda *a: calls.append(a))
    terminals = _six_set_of_q64_on_classes(18)
    code, out, err = run(["exact", "--n", "64", "--set", "inline:" + ",".join(terminals)])
    assert (code, out, calls) == (3, "", [])
    assert err == (
        "error[budget]: subset DP states: projected 8388608 units exceeds budget 4194304\n"
    )


def test_exact_refuses_the_even_class_of_q6_at_its_ceiling(run):
    # 32 terminals of Q_6: n < k, so the dispatch charges 2^31 rows of
    # 2^6 fields before its search
    assert run(["exact", "--n", "6", "--set", "even"]) == (
        3,
        "",
        "error[budget]: subset DP states: projected 137438953472 units "
        "exceeds budget 4194304\n",
    )


# Full stdout pinned. exact-q6 prints the BFS tree of S + A found by the
# Steiner-vertex search; experiment-q5's overlap statistics depend on the
# DP's tree, which must not change with how the DP is organised.
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
        "tree_vertices: 000000 000001 100001 010001 110001 001001 011001 000101 110101 "
        "000011 011011 001111 011111 111111\n"
        "tree_edges: 000000-000001 100001-000001 100001-110001 010001-000001 "
        "010001-011001 001001-000001 000101-000001 110101-110001 000011-000001 "
        "011011-011111 011011-011001 001111-011111 111111-011111\n",
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


# Every report opens with command, seed, budget_states and n; the --set
# commands follow with terminals and set_size.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["sdiam", "--n", "3", "--k", "4"],
            "command: sdiam\n"
            "seed: 0\n"
            "budget_states: 4194304\n"
            "n: 3\n"
            "k: 4\n"
            "lower: 8/3\n"
            "upper: 7\n"
            "exact: 5\n"
            "exact_reason: computed\n"
            "cds_method: exact\n"
            "cds_size: 4\n"
            "worst_set: 000 110 101 011\n",
        ),
        (
            ["group-verify", "--n", "3"],
            "command: group-verify\n"
            "seed: 0\n"
            "budget_states: 4194304\n"
            "n: 3\n"
            "group_order: 12\n"
            "edge_count: 12\n"
            "ordered_pairs: 144\n"
            "sharp edge transitivity: OK (12 elements, 12 edges, 144 ordered pairs)\n",
        ),
    ],
    ids=["sdiam-q3-k4", "group-verify-q3"],
)
def test_set_free_reports_are_pinned(run, argv, expected):
    assert run(argv) == (0, expected, "")


# csv header row of each subcommand; experiment's csv is its transcript
CSV_HEADERS = {
    "exact": (
        ["--n", "3", "--set", "inline:000,011,101"],
        "command,seed,budget_states,n,terminals,set_size,distance,tree_vertices,"
        "tree_edges",
    ),
    "bound": (
        ["--n", "3", "--set", "even"],
        "command,seed,budget_states,n,terminals,set_size,lower,lower_floor,"
        "certified_lower,upper,exact,exact_reason,cds_method,cds_size,cds_connected,"
        "cds_vertices,tree_edge_count,tree_edges",
    ),
    "cds": (
        ["--n", "3"],
        "command,seed,budget_states,n,greedy_size,greedy_connected,"
        "steinerized_greedy_size,hamming_size,hamming_connected,"
        "steinerized_hamming_size,exact_size,best_method,best_size,best_vertices",
    ),
    "group-verify": (
        ["--n", "3"],
        "command,seed,budget_states,n,group_order,edge_count,ordered_pairs,"
        "sharp edge transitivity",
    ),
    "experiment": (["--n", "3", "--set", "even"], "lambda1,lambda2,x"),
    "sdiam": (
        ["--n", "3", "--k", "4"],
        "command,seed,budget_states,n,k,lower,upper,exact,exact_reason,cds_method,"
        "cds_size,worst_set",
    ),
}


@pytest.mark.parametrize("command", CSV_HEADERS)
def test_csv_header_rows_are_pinned(run, command):
    args, header = CSV_HEADERS[command]
    code, out, err = run([command, *args, "--format", "csv"])
    assert (code, err) == (0, "")
    assert out.split("\n", 1)[0] == header


def test_group_verify_summary_line(run):
    code, out, _ = run(["group-verify", "--n", "4"])
    assert code == 0
    assert (
        "sharp edge transitivity: OK (32 elements, 32 edges, 1024 ordered pairs)\n"
        in out
    )


def test_group_verify_prints_fail_and_counterexample(run, monkeypatch):
    # The last element of Q_3's group is replaced by the one before it,
    # s=2;m=101, which maps 000-100 to 101-111.
    *rest, g_prev, _ = autgroup.enumerate_group(Dimension(3))
    group = [*rest, g_prev, g_prev]
    monkeypatch.setattr(autgroup, "enumerate_group", lambda dim, *, budget: group)
    code, out, err = run(["group-verify", "--n", "3"])
    assert (code, err) == (0, "")
    assert out.endswith(
        "sharp edge transitivity: FAIL (12 elements, 12 edges, 144 ordered pairs)\n"
        "counterexample: 000-100 -> 101-111\n"
    )


def test_group_verify_q8_json_is_pinned(run):
    code, out, err = run(["group-verify", "--n", "8", "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["group_order"] == payload["edge_count"] == 1024
    assert payload["ordered_pairs"] == 1048576
    assert payload["sharp edge transitivity"] == (
        "OK (1024 elements, 1024 edges, 1048576 ordered pairs)"
    )


def test_group_verify_q16_exceeds_the_default_budget(run):
    # charged its n * |E| = 16 * 2^19 shift images
    code, out, err = run(["group-verify", "--n", "16"])
    assert (code, out) == (3, "")
    assert (
        "edge-pair transitivity sweep: projected 8388608 units exceeds budget 4194304"
        in err
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


def test_bound_even_q5_report_is_pinned(run):
    # the exact value comes from the Steiner-vertex search, the tree from
    # the dominating-set construction; neither may drift
    expected = (
        "command: bound\n"
        "seed: 0\n"
        "budget_states: 4194304\n"
        "n: 5\n"
        "terminals: 00000 11000 10100 01100 10010 01010 00110 11110 10001 01001 "
        "00101 11101 00011 11011 10111 01111\n"
        "set_size: 16\n"
        "lower: 73/5\n"
        "lower_floor: 16\n"
        "certified_lower: 16\n"
        "upper: 21\n"
        "exact: 20\n"
        "exact_reason: computed\n"
        "cds_method: steinerized\n"
        "cds_size: 12\n"
        "cds_connected: true\n"
        "cds_vertices: 00000 10000 01000 11000 00100 10100 01100 11100 10010 01110 "
        "10011 01111\n"
        "tree_edge_count: 21\n"
        "tree_edges: 00000-10000 00000-01000 00000-00100 11000-10000 11000-11100 "
        "10100-10000 01100-01000 01100-01110 10010-10000 10010-10011 01010-01000 "
        "00110-00100 11110-11100 10001-10000 01001-01000 00101-00100 11101-11100 "
        "00011-10011 11011-10011 10111-10011 01111-01110\n"
    )
    assert run(["bound", "--n", "5", "--set", "even"]) == (0, expected, "")


def test_bound_reports_budget_omission(run):
    code, out, _ = run(["bound", "--n", "7", "--set", "even"])
    assert code == 0
    fields = _parse_text(out)
    assert fields["exact"] == "omitted"
    # 64 terminals of Q_7: 2^63 rows of 2^7 fields, charged before the search
    assert fields["exact_reason"] == (
        "budget: subset DP states: projected 2^70+ units exceeds budget 4194304"
    )
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


def test_cds_q12_answers_under_the_default_budget(run):
    # greedy needs 2,097,152 units and steinerizing its set 3,200,142
    code, out, err = run(["cds", "--n", "12"])
    assert (code, err) == (0, "")
    fields = _parse_text(out)
    assert fields["steinerized_greedy_size"] == "763"
    assert fields["best_size"] == "763"


def test_cds_q13_refuses_at_greedy(run):
    code, out, err = run(["cds", "--n", "13"])
    assert (code, out) == (3, "")
    assert err == (
        "error[budget]: greedy domination sweep: projected 4800512 units "
        "exceeds budget 4194304\n"
    )


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


def test_exhaustive_csv_transcript_is_pinned(run):
    # all 32^2 pairs of Q_4's group in lexicographic order, one row each
    code, out, err = run(
        ["experiment", "--n", "4", "--set", "inline:0000,1100,1010,0101", "--format", "csv"]
    )
    assert (code, err) == (0, "")
    assert out.count("\n") == 1025
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5f8ef8a551992a445fb360f8b0eeb387f9af4b50896bd3ba4b78a1ce3b635f4a"
    )


def test_sampled_csv_transcript_is_pinned(run):
    # 2,000 seeded pairs of Q_7's group for an all-even 4-set: pins the
    # draw stream and the text of each element
    code, out, err = run(
        [
            "experiment", "--n", "7", "--set", "inline:0000000,1100000,1010000,0110000",
            "--samples", "2000", "--seed", "464753112", "--format", "csv",
        ]
    )
    assert (code, err) == (0, "")
    assert out.count("\n") == 2001
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "476087a6cac8ed9d439f83e3c2638c1cb05a565d78df032ce34b15fcdb6b29e4"
    )


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

    # 2^15 terminals project 2^32767 rows of 2^16 fields, past
    # int-to-str's digit cap
    code, _, err = run(["exact", "--n", "16", "--set", "even"])
    assert code == 3
    assert "error[budget]" in err
    assert "projected 2^32783+ units" in err

    # --set all is charged before its 2^22 vertices are enumerated
    code, _, err = run(
        ["exact", "--n", "22", "--set", "all", "--budget-states", "1000"]
    )
    assert code == 3
    assert "error[budget]: vertex set enumeration: projected 4194304" in err

    # the connected domination search is charged per node, 43 on Q_4, so
    # `cds --n 4` is refused first by the greedy sweep's 4 picks x 16
    code, _, err = run(["cds", "--n", "4", "--budget-states", "63"])
    assert code == 3
    assert "error[budget]: greedy domination sweep: projected 64" in err
    code, out, _ = run(["cds", "--n", "4", "--budget-states", "64"])
    assert code == 0
    assert _parse_text(out)["exact_size"] == "6"


@pytest.mark.parametrize(
    "argv", [["cds", "--n", "16"], ["bound", "--n", "16", "--set", "even"]]
)
def test_greedy_refuses_before_building_its_masks(run, monkeypatch, argv):
    # 3,856 picks at least, each scanning 2^16 gains
    def unreachable(dim):
        raise AssertionError("masks built before the budget check")

    monkeypatch.setattr(domination, "closed_neighborhood_masks", unreachable)
    code, out, err = run(argv)
    assert (code, out) == (3, "")
    assert err == (
        "error[budget]: greedy domination sweep: projected 252706816 units "
        "exceeds budget 4194304\n"
    )


def test_steinerize_pair_scan_is_charged(run):
    # greedy on Q_9 needs 32,768 units and steinerizing its set 47,556
    code, out, err = run(["cds", "--n", "9", "--budget-states", "40000"])
    assert (code, out) == (3, "")
    assert "error[budget]: steinerize pair scan: projected" in err
    assert "exceeds budget 40000" in err


def test_sampled_experiment_fits_a_budget_below_the_edge_count(run):
    # 5 sampled pairs fit 10 units; the 12 edges of Q_3 are not enumerated
    argv = ["experiment", "--n", "3", "--set", "inline:000", "--budget-states", "10"]
    code, out, err = run(argv + ["--samples", "5"])
    assert code == 0
    assert err == ""
    assert _parse_text(out)["pair_count"] == "5"
    code, _, err = run(argv + ["--exhaustive"])
    assert code == 3
    assert err == (
        "error[budget]: group enumeration: projected 12 units exceeds budget 10\n"
    )


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_precondition_exit_codes(run):
    code, _, err = run(["sdiam", "--n", "3", "--k", "99"])
    assert code == 4
    assert "error[precondition]" in err

    code, _, err = run(["experiment", "--n", "3", "--set", "inline:000,100"])
    assert code == 4
    assert "all-even" in err

    code, _, err = run(["experiment", "--n", "3", "--set", "odd"])
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
        # integers have one spelling: ASCII digits, no sign, space, '_' or leading zero
        ["exact", "--n", " +3", "--set", "even"],
        ["exact", "--n", "0_3", "--set", "even"],
        ["exact", "--n", "03", "--set", "even"],
        ["sdiam", "--n", "3", "--k", "+3"],
        ["cds", "--n", "3", "--seed", "-7"],
        ["cds", "--n", "3", "--budget-states", "-1"],
        ["experiment", "--n", "3", "--set", "even", "--samples", "1_0"],
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
    assert "canonical_int" not in err


@pytest.mark.parametrize("text", ["03", "x"])
def test_bad_integer_option_says_what_was_expected(run, text):
    assert run(["exact", "--n", text, "--set", "even"]) == (
        2,
        "",
        f"error[parse]: argument --n: expected a plain decimal integer, got '{text}'\n",
    )


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


def _readme_block(after):
    # the first fenced block following the line `after` in README.md
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rest = text[text.index(after) :]
    start = rest.index("```\n") + 4
    return rest[start : rest.index("```", start)]


def test_readme_command_examples_run(run, tmp_path, monkeypatch):
    instance = tmp_path / "instances" / "my_set.txt"
    instance.parent.mkdir()
    instance.write_text(_readme_block("Instance files carry their own dimension:"))
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("## Command line").splitlines()
    assert len(lines) == 7
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "cubesteiner"
        code, _, err = run(argv)
        assert (code, err) == (0, ""), line
