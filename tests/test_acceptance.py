"""End-to-end gate for the build.

One test per numbered criterion. Each times itself against a pinned
limit and emits a single PASS or FAIL line (collected into the terminal
summary by conftest). Expected values are exact: rational identities
admit no tolerance, counts and bounds are integers.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from conftest import record_criterion
import cubesteiner
from cubesteiner.autgroup import group_order, verify_sharp_edge_transitivity
from cubesteiner.bounds import (
    best_connected_dominating_set,
    bootstrap_case,
    build_bounds_report,
    build_intersection_experiment,
    run_intersection_experiment,
    sdiam_sandwich,
)
from cubesteiner.cli import main
from cubesteiner.cube import Dimension, VertexSet, parity_class
from cubesteiner.domination import (
    closed_neighborhood_masks,
    exact_connected_dominating_set,
    greedy_dominating_set,
    hamming_code_dominating_set,
    steinerize,
)
from cubesteiner.steiner import SteinerInstance, steiner_brute_oracle, steiner_exact


@contextmanager
def criterion(number, description, time_limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        record_criterion(number, description, "FAIL", elapsed)
        print(f"FAIL criterion {number}: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    if time_limit is not None and elapsed >= time_limit:
        record_criterion(number, description, "FAIL", elapsed)
        print(f"FAIL criterion {number}: {description} ({elapsed:.2f}s)")
        pytest.fail(
            f"criterion {number} took {elapsed:.2f}s, limit {time_limit}s"
        )
    record_criterion(number, description, "PASS", elapsed)
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_sharp_edge_transitivity():
    with criterion(1, "sharp edge-transitivity, n = 1..5", time_limit=5.0):
        for n in range(1, 6):
            dim = Dimension(n)
            report = verify_sharp_edge_transitivity(dim)
            assert report.ok, report.counterexample
            assert report.group_size == group_order(dim) == n * 2 ** (n - 1)
            assert report.edge_count == dim.num_edges
            assert report.pair_count == report.edge_count**2


@lru_cache(maxsize=1)
def _even_set_summaries():
    """Exhaustive overlap sweeps shared by criteria 2 and 3.

    Eleven sets cover every even subset of size >= 2 in Q_3; twelve more
    are drawn without replacement from the even class of Q_4.
    """
    cases = []
    d3 = Dimension(3)
    evens3 = list(parity_class(d3, 0))
    for size in (2, 3, 4):
        for members in combinations(evens3, size):
            cases.append(VertexSet.of(d3, members))
    d4 = Dimension(4)
    evens4 = list(parity_class(d4, 0))
    rng = random.Random(41)
    chosen = set()
    while len(chosen) < 12:
        size = rng.randint(2, 8)
        chosen.add(tuple(sorted(rng.sample(evens4, size))))
    for members in sorted(chosen):
        cases.append(VertexSet.of(d4, members))
    out = []
    for terminals in cases:
        exp = build_intersection_experiment(terminals)
        out.append((exp, run_intersection_experiment(exp)))
    return tuple(out)


def test_criterion_2_expectation_identity():
    label = "exhaustive overlap mean equals d(S)^2/(n 2^(n-1)), n in {3,4}"
    with criterion(2, label, time_limit=60.0):
        per_dim = {3: 0, 4: 0}
        for exp, summary in _even_set_summaries():
            assert summary.exhaustive
            assert summary.pair_count == group_order(exp.dim) ** 2
            expected = Fraction(exp.distance**2, exp.dim.num_edges)
            assert summary.mean == expected, exp.terminals
            per_dim[exp.dim.n] += 1
        assert per_dim[3] >= 10 and per_dim[4] >= 10


def test_criterion_3_pair_inequality():
    label = "2d(S) - X >= 2|S| - (n+1) over the full group square"
    with criterion(3, label, time_limit=60.0):
        for exp, summary in _even_set_summaries():
            rhs = 2 * len(exp.terminals) - (exp.dim.n + 1)
            assert summary.min_lhs >= rhs, exp.terminals


def test_criterion_4_bound_sandwich():
    label = "quadratic/trivial lower <= d(S) <= constructed upper, n in {3,4,5}"
    with criterion(4, label, time_limit=300.0):
        for n in (3, 4, 5):
            dim = Dimension(n)
            evens = list(parity_class(dim, 0))
            rng = random.Random(400 + n)
            for _ in range(100):
                size = rng.randint(2, min(8, len(evens)))
                members = VertexSet.of(dim, rng.sample(evens, size))
                report = build_bounds_report(members)
                assert report.exact is not None
                assert report.lower is not None
                assert report.certified_lower == max(
                    report.lower_floor, math.ceil(report.lower)
                )
                assert report.certified_lower <= report.exact, members
                assert report.exact <= report.upper, members
                assert report.upper <= size + report.cds.size - 1, members


def test_criterion_5_oracle_equivalence():
    label = "subset DP matches brute-force oracle, Q_3 exhaustive + Q_4 sampled"
    with criterion(5, label, time_limit=120.0):
        d3 = Dimension(3)
        count = 0
        for size in (2, 3, 4):
            for members in combinations(range(8), size):
                inst = SteinerInstance.from_vertices(d3, members)
                assert steiner_exact(inst)[0] == steiner_brute_oracle(inst), members
                count += 1
        assert count == 154
        d4 = Dimension(4)
        rng = random.Random(500)
        for _ in range(200):
            members = rng.sample(range(16), rng.randint(2, 4))
            inst = SteinerInstance.from_vertices(d4, members)
            assert steiner_exact(inst)[0] == steiner_brute_oracle(inst), members


def test_criterion_6_diameter_sandwich():
    label = "k-set diameter sandwich, n = 3, k = 2..8"
    with criterion(6, label, time_limit=60.0):
        d3 = Dimension(3)
        for k in range(2, 9):
            report = sdiam_sandwich(d3, k)
            assert report.exact_reason == "computed"
            assert report.lower <= report.exact <= report.upper, k


def _assert_dominating(cert):
    dim = cert.dim
    members = set(cert.vertex_set)
    for v in range(dim.num_vertices):
        assert v in members or any(
            v ^ (1 << b) in members for b in range(dim.n)
        ), (cert.method, v)


def _assert_connected(cert):
    members = set(cert.vertex_set)
    seen = {min(members)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for u in frontier:
            for b in range(cert.dim.n):
                w = u ^ (1 << b)
                if w in members and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert seen == members, cert.method


def test_criterion_7_domination_certificates():
    label = "dominating certificates re-verified; perfect coverings at n in {3,7}"
    with criterion(7, label, time_limit=10.0):
        certs = []
        for n in range(1, 8):
            dim = Dimension(n)
            greedy = greedy_dominating_set(dim)
            certs += [greedy, steinerize(greedy.vertex_set)]
            certs.append(best_connected_dominating_set(dim))
            if n <= 4:
                certs.append(exact_connected_dominating_set(dim))
            if (n + 1) & n == 0:
                certs.append(hamming_code_dominating_set(dim))
        for cert in certs:
            _assert_dominating(cert)
            if cert.connected:
                _assert_connected(cert)
        for n in (3, 7):
            dim = Dimension(n)
            code = hamming_code_dominating_set(dim)
            assert code.size * (n + 1) == dim.num_vertices
            masks = closed_neighborhood_masks(dim)
            for v in range(dim.num_vertices):
                dominators = sum(
                    1 for w in code.vertex_set if (masks[w] >> v) & 1
                )
                assert dominators == 1, (n, v)


def test_criterion_8_bootstrap_grid():
    label = "excess-bound implication over the full (n, s, d) grid, n <= 8"
    with criterion(8, label, time_limit=10.0):
        cells = 0
        for n in range(1, 9):
            dim = Dimension(n)
            top = dim.num_vertices
            for s in range(1, top + 1):
                for d in range(s - 1, top):
                    case = bootstrap_case(dim, s, d)
                    assert case.holds, (n, s, d)
                    cells += 1
        assert cells > 30000


_CLI_CONFIGS = [
    ["exact", "--n", "3", "--set", "inline:000,011,101"],
    ["bound", "--n", "4", "--set", "even"],
    ["cds", "--n", "5"],
    ["group-verify", "--n", "4"],
    ["experiment", "--n", "3", "--set", "even", "--exhaustive"],
    ["experiment", "--n", "3", "--set", "even", "--samples", "300", "--seed", "9"],
    ["sdiam", "--n", "3", "--k", "4"],
]


def test_criterion_9_cli_determinism(capsys):
    label = "byte-identical CLI reports on repeated runs, all formats"
    with criterion(9, label):
        for argv in _CLI_CONFIGS:
            for fmt in ("text", "json", "csv"):
                full = argv + ["--format", fmt]
                code1 = main(full)
                out1 = capsys.readouterr()
                code2 = main(full)
                out2 = capsys.readouterr()
                assert code1 == code2 == 0, full
                assert out1 == out2, full


def test_cli_reports_match_across_processes(capsys):
    # criterion 9 repeats each run in one process; str hashing, and so any
    # set or dict order that follows it, changes only between processes
    argvs = [argv + ["--format", fmt] for argv in _CLI_CONFIGS for fmt in ("text", "json", "csv")]
    script = (
        "import json, sys\n"
        "from cubesteiner.cli import main\n"
        "for argv in json.load(sys.stdin):\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = os.path.dirname(os.path.dirname(cubesteiner.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(argvs),
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), seed
        outs.append(proc.stdout)
    for argv in argvs:
        assert main(argv) == 0, argv
    assert outs[0] == outs[1] == capsys.readouterr().out
