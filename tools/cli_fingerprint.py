"""One sha256 over the command line's output on a fixed list of runs.

Usage:

    python3 tools/cli_fingerprint.py [SRC_DIR]

Imports `cubesteiner` from SRC_DIR (default: the `src` directory of the
checkout holding this script), calls `cubesteiner.cli.main` in process on
a fixed, seeded list of argument lists, and prints the run count and one
sha256 over every run's (argv, exit code, stdout, stderr). A change that
keeps every report, error message and exit code byte-identical prints the
same line as its parent:

    python3 tools/cli_fingerprint.py
    python3 tools/cli_fingerprint.py ../parent-checkout/src

The script exits 0 once every run has returned, whatever the runs' own
exit codes were. The line it prints for the committed source is kept in
`tools/cli_fingerprint.expected`, and CI fails when the printed line
differs from it, so a change that alters any CLI output must update that
file:

    python3 tools/cli_fingerprint.py | diff tools/cli_fingerprint.expected -

The list covers `exact`, `bound` and `experiment` on the even, odd and
full vertex sets of Q_1..Q_6; `exact` and `bound` on 25 seeded inline
sets of each Q_2..Q_13; `exact` on 50 seeded dense sets (n < k <=
n + 14, where the dispatch runs the Steiner-vertex search) of each
Q_3..Q_6 and on two pinned dense sets of Q_5 and Q_6; exhaustive and
sampled overlap experiments on seeded all-even sets of Q_2..Q_7; sampled
experiments of 1025 to 2425 pairs, more than one draw block, on seeded
all-even sets of Q_5, Q_8 and Q_13, of 1025 to 2525 pairs on the even
sets of Q_1..Q_4, where randrange(n) rejects a quarter to a half of the
shift words, and of 1025 pairs on the single terminal 0 of Q_64, whose
shifts reach 63; exhaustive experiments, which read the overlap table,
on the 2-sets {0, 1^18} of Q_18, {0, 1^18 0} of Q_19 and {0, 1^20 0} of
Q_21 (text and json) and on the single terminal 0 of Q_20 and of Q_64
(text); `sdiam` for n = 2..5, k = 2..6, for
k = 3 at n = 6..8, and at n = 4, k = 5 one unit below its sweep's charge;
`cds` for n = 1..12; `group-verify` for n = 1..8; `experiment` on even
Q_3 one unit below and at the overlap table's charge of 75; and a few runs
that must fail with a parse, budget or precondition error. Every run goes
through all three formats, except `bound` at n = 12 and 13 (three sets,
one format each), `cds` at n = 10..12 and the dense `exact` sets (json
only), exhaustive csv transcripts at n = 6 and 7, and the overlap-table
runs and budget pair above.

The list ends with runs on instance files (`--set <path>`): `exact`,
`bound` and `experiment` in all three formats on three all-even sets of
Q_3, Q_4 and Q_5, one of them with a UTF-8 byte order mark, comments,
blank lines, padded vertices and CRLF line ends; `exact` with an `--n`
that agrees and one that disagrees with a file's header; files with a
duplicate terminal, no `n=` header, a non-canonical header, no
terminals, nothing but a comment, and bytes that are not UTF-8; and
`--set even` without `--n` and `--budget-states 0`. The files are written
to a temporary directory that is the working directory of every run, so
messages quote only the relative names below. A missing file is left
out: its message quotes the operating system's error text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

FORMATS = ("text", "json", "csv")

# dense sets where the search's order of components picks its minimum A
# among equal-size ones: (0, 3, 8) on the Q_5 set, (1, 7) on the Q_6 set
DENSE_TIE_SETS = (
    (5, [2, 4, 7, 9, 13, 20, 23, 24, 26]),
    (6, [3, 6, 11, 14, 16, 17, 18, 27, 30, 32, 36, 37, 39, 40, 41, 55, 56]),
)

# instance files by name, for the `--set <path>` runs at the end of the
# list: the first three hold all-even sets, and the rest must be refused
INSTANCE_FILES = {
    "q3.txt": b"n=3\n000\n011\n101\n110\n",
    "q4-bom.txt": "\ufeff# the even 4-set\r\n\r\nn=4\r\n  0000 \r\n"
    "# a comment\r\n1100\r\n\r\n0011\r\n1111\r\n".encode(),
    "q5.txt": b"n=5\n00000\n11000\n10100\n01111\n",
    "duplicate.txt": b"n=3\n000\n011\n000\n",
    "no-header.txt": b"000\n011\n",
    "leading-zero.txt": b"n=03\n000\n",
    "no-terminals.txt": b"n=3\n",
    "comment-only.txt": b"# nothing else\n\n",
    "latin1.txt": b"n=3\n\xff00\n",
}


def _inline(n: int, vertices: list[int]) -> str:
    # spelled here rather than by the package, so that the list does not
    # depend on the source being fingerprinted
    return "inline:" + ",".join(format(v, f"0{n}b")[::-1] for v in vertices)


def runs() -> list[list[str]]:
    """The fixed argument lists, in the order they are hashed."""
    out: list[list[str]] = []

    def each_format(*argv: str) -> None:
        out.extend([*argv, "--format", fmt] for fmt in FORMATS)

    for n in range(1, 7):
        for selector in ("even", "odd", "all"):
            for command in ("exact", "bound", "experiment"):
                each_format(command, "--n", str(n), "--set", selector)

    for n in range(2, 14):
        rng = random.Random(f"inline/{n}")
        for i in range(25):
            k = rng.randint(2, min(8, 1 << n))
            selector = _inline(n, rng.sample(range(1 << n), k))
            each_format("exact", "--n", str(n), "--set", selector)
            if n < 12:
                each_format("bound", "--n", str(n), "--set", selector)
            elif i < 3:
                # a connected dominating set of Q_12 takes about a second
                out.append(["bound", "--n", str(n), "--set", selector, "--format", FORMATS[i]])

    for n in range(3, 7):
        # dense sets, k > n, which the Steiner-vertex search answers with
        # its own witness tree; json only
        rng = random.Random(f"dense/{n}")
        for _ in range(50):
            k = rng.randint(n + 1, min(1 << n, n + 14))
            selector = _inline(n, rng.sample(range(1 << n), k))
            out.append(["exact", "--n", str(n), "--set", selector, "--format", "json"])
    for n, vertices in DENSE_TIE_SETS:
        out.append(["exact", "--n", str(n), "--set", _inline(n, vertices), "--format", "json"])

    for n in range(2, 8):
        rng = random.Random(f"experiment/{n}")
        evens = [v for v in range(1 << n) if v.bit_count() % 2 == 0]
        for i in range(8):
            selector = _inline(n, rng.sample(evens, rng.randint(1, min(8, len(evens)))))
            argv = ["experiment", "--n", str(n), "--set", selector]
            # an exhaustive csv transcript lists every ordered pair
            formats = FORMATS if n <= 5 else FORMATS[:2]
            out.extend([*argv, "--exhaustive", "--format", fmt] for fmt in formats)
            each_format(*argv, "--samples", str(10 + 7 * i), "--seed", str(i))

    for n in (5, 8, 13):
        # more than one block of 1024 sampled pairs; randrange(n) rejects
        # 3/8, 1/2 and 3/16 of its tries here
        rng = random.Random(f"sample-blocks/{n}")
        evens = [v for v in range(1 << n) if v.bit_count() % 2 == 0]
        for i in range(3):
            selector = _inline(n, rng.sample(evens, rng.randint(2, 5)))
            each_format(
                "experiment", "--n", str(n), "--set", selector,
                "--samples", str(1025 + 700 * i), "--seed", str(i),
            )
    for n in range(1, 5):
        # randrange(n) rejects 1/2, 1/2, 1/4 and 1/2 of its tries here
        each_format(
            "experiment", "--n", str(n), "--set", "even",
            "--samples", str(1025 + 500 * (n - 1)), "--seed", str(n),
        )
    # shift bytes up to 63, every pair reading the empty table
    each_format("experiment", "--n", "64", "--set", _inline(64, [0]), "--samples", "1025")

    # exhaustive runs that read the identity row from the overlap table
    # where the group is too large to enumerate under the default budget
    # (and at n = 18, where it is not): far 2-sets and single terminals
    for n, far in ((18, (1 << 18) - 1), (19, (1 << 18) - 1), (21, (1 << 20) - 1)):
        for fmt in FORMATS[:2]:
            argv = ["experiment", "--n", str(n), "--set", _inline(n, [0, far]), "--exhaustive"]
            out.append([*argv, "--format", fmt])
    for n in (20, 64):
        out.append(["experiment", "--n", str(n), "--set", _inline(n, [0]), "--exhaustive"])

    for n in range(2, 6):
        for k in range(2, 7):
            each_format("sdiam", "--n", str(n), "--k", str(k))
    for n in (6, 7, 8):
        each_format("sdiam", "--n", str(n), "--k", "3")
    # one unit below the sweep's charge of C(15, 4) ceilings of 2^4 * 2^4
    each_format("sdiam", "--n", "4", "--k", "5", "--budget-states", "349439")
    for n in range(1, 10):
        each_format("cds", "--n", str(n))
    for n in range(10, 13):
        # the steinerized greedy sets of 214, 398 and 763 vertices; json only
        out.append(["cds", "--n", str(n), "--format", "json"])
    for n in range(1, 9):
        each_format("group-verify", "--n", str(n))

    out += [
        ["exact", "--n", "16", "--set", "even"],
        ["exact", "--n", "4", "--set", "even", "--budget-states", "100"],
        ["bound", "--n", "13", "--set", "inline:" + "0" * 13],
        ["sdiam", "--n", "6", "--k", "4"],
        ["experiment", "--n", "3", "--set", "inline:000,011", "--samples", "0"],
        # one unit below and at the overlap table's charge, 3 * 5^2, on even Q_3
        ["experiment", "--n", "3", "--set", "even", "--budget-states", "74"],
        ["experiment", "--n", "3", "--set", "even", "--budget-states", "75"],
        ["exact", "--n", "3", "--set", "inline:000,000"],
        ["exact", "--n", "3", "--set", "inline:0001"],
        ["exact", "--n", "03", "--set", "even"],
        ["cds"],
    ]

    for name in list(INSTANCE_FILES)[:3]:
        for command in ("exact", "bound", "experiment"):
            each_format(command, "--set", name)
    out += [
        ["exact", "--n", "4", "--set", "q4-bom.txt"],
        ["exact", "--n", "4", "--set", "q3.txt"],
        *(["exact", "--set", name] for name in list(INSTANCE_FILES)[3:]),
        ["exact", "--set", "even"],
        ["cds", "--n", "3", "--budget-states", "0"],
    ]
    return out


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from cubesteiner import cli

    print(f"cubesteiner from {Path(cli.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    listed = runs()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, data in INSTANCE_FILES.items():
            Path(work, name).write_bytes(data)
        os.chdir(work)
        try:
            for run in listed:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(run))
                record = [run, code, out.getvalue(), err.getvalue()]
                total.update(json.dumps(record).encode() + b"\n")
        finally:
            os.chdir(home)
    print(f"runs: {len(listed)} sha256: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
