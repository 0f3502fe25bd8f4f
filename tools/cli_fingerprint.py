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
exit codes were.

The list covers `exact`, `bound` and `experiment` on the even, odd and
full vertex sets of Q_1..Q_6; `exact` and `bound` on 25 seeded inline
sets of each Q_2..Q_13; exhaustive and sampled overlap experiments on
seeded all-even sets of Q_2..Q_7; `sdiam` for n = 2..5, k = 2..6;
`cds` for n = 1..9; `group-verify` for n = 1..8; and a few runs that
must fail with a parse, budget or precondition error. Every run goes
through all three formats, except `bound` at n = 12 and 13 (three sets,
one format each) and exhaustive csv transcripts at n = 6 and 7.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

FORMATS = ("text", "json", "csv")


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

    for n in range(2, 6):
        for k in range(2, 7):
            each_format("sdiam", "--n", str(n), "--k", str(k))
    for n in range(1, 10):
        each_format("cds", "--n", str(n))
    for n in range(1, 9):
        each_format("group-verify", "--n", str(n))

    out += [
        ["exact", "--n", "16", "--set", "even"],
        ["exact", "--n", "4", "--set", "even", "--budget-states", "100"],
        ["bound", "--n", "13", "--set", "inline:" + "0" * 13],
        ["sdiam", "--n", "6", "--k", "4"],
        ["experiment", "--n", "3", "--set", "inline:000,011", "--samples", "0"],
        ["exact", "--n", "3", "--set", "inline:000,000"],
        ["exact", "--n", "3", "--set", "inline:0001"],
        ["exact", "--n", "03", "--set", "even"],
        ["cds"],
    ]
    return out


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from cubesteiner import cli

    print(f"cubesteiner from {Path(cli.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    listed = runs()
    for run in listed:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(run))
        total.update(json.dumps([run, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    print(f"runs: {len(listed)} sha256: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
