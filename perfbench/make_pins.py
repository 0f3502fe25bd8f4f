"""Regenerate pins.json: the benchmark's job pools and their pinned outputs.

Run from the repository root:

    python3 perfbench/make_pins.py

Every pool entry is run once through `cubesteiner.cli.main` (or its API
call), and the output fields the benchmark checks are copied into the pin.
Before a value is pinned it is cross-checked:

- every DP distance (exact, bound, experiment, anchors) against
  `steiner_brute_oracle` whenever the oracle's superset enumeration is
  predicted to stay within ORACLE_BUDGET candidates;
- each sdiam exact value against the maximum of the oracle over all k-sets;
- the known values below (anchors, sdiam, the n = 5 domination number),
  asserted outright.

The pools are drawn from a fixed generator seed, so rerunning the script
reproduces pins.json byte for byte unless the program's output changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cubesteiner import cli  # noqa: E402
from cubesteiner.cube import Dimension, parity, vertex_to_string  # noqa: E402
from cubesteiner.domination import exact_connected_domination_number  # noqa: E402
from cubesteiner.steiner import SteinerInstance, steiner_brute_oracle  # noqa: E402

from jobs import PINS_PATH, transcript_fields  # noqa: E402

POOL_SEED = 2019
ORACLE_BUDGET = 300_000

# d(even class of Q_n) for n = 1..4, and the exact k-set Steiner diameters.
EVEN_CLASS_DISTANCE = {1: 0, 2: 2, 3: 5, 4: 10}
SDIAM_EXACT = {(3, 3): 3, (3, 4): 5, (3, 5): 5, (4, 3): 4, (4, 4): 6, (4, 5): 7}
CDS_N5 = 10

EXACT_FIELDS = ("n", "set_size", "distance")
BOUND_FIELDS = ("set_size", "exact", "exact_reason", "lower", "lower_floor", "certified_lower")
CDS_FIELDS = (
    "greedy_size",
    "greedy_connected",
    "steinerized_greedy_size",
    "hamming_size",
    "hamming_connected",
    "steinerized_hamming_size",
    "exact_size",
    "best_method",
    "best_size",
)
GROUP_FIELDS = ("sharp edge transitivity", "group_order", "edge_count", "ordered_pairs")
EXPERIMENT_FIELDS = (
    "distance",
    "mode",
    "pair_count",
    "mean",
    "expected_mean",
    "max_overlap",
    "min_lhs",
    "pair_bound_ok",
)
SDIAM_FIELDS = ("exact", "exact_reason", "lower", "upper")


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"pin generation failed: {argv} exited {rc}")
    return out.getvalue()


def cli_job(argv: list[str], fields: tuple[str, ...], fmt: str = "json") -> dict:
    argv = argv + ["--format", fmt]
    text = run_cli(argv)
    got = transcript_fields(text) if fmt == "csv" else json.loads(text)
    return {
        "argv": argv,
        "format": fmt,
        "expect": {f: got[f] for f in fields if f in got},
    }


def inline(n: int, vertices) -> str:
    dim = Dimension(n)
    return "inline:" + ",".join(vertex_to_string(dim, v) for v in sorted(vertices))


def oracle_cost(n: int, k: int, d: int) -> int:
    """Candidates the oracle examines before it reaches d + 1 vertices."""
    others = (1 << n) - k
    return sum(math.comb(others, e) for e in range(d + 2 - k))


def oracle_agrees(n: int, vertices, d: int) -> bool | None:
    """True/False when the oracle is affordable, None when it is not."""
    if oracle_cost(n, len(vertices), d) > ORACLE_BUDGET:
        return None
    inst = SteinerInstance.from_vertices(Dimension(n), vertices)
    return steiner_brute_oracle(inst, budget=ORACLE_BUDGET) == d


class Pins:
    def __init__(self) -> None:
        self.rng = random.Random(POOL_SEED)
        self.oracle_checked = 0
        self.oracle_skipped = 0

    def cross_check(self, n: int, vertices, d: int, what: str) -> None:
        verdict = oracle_agrees(n, vertices, d)
        if verdict is None:
            self.oracle_skipped += 1
        elif verdict:
            self.oracle_checked += 1
        else:
            raise SystemExit(f"oracle disagrees with the DP on {what}")

    def even_sets(self, n: int, k: int, count: int) -> list[list[int]]:
        evens = [v for v in range(1 << n) if parity(v) == 0]
        return [sorted(self.rng.sample(evens, k)) for _ in range(count)]

    def any_sets(self, n: int, k: int, count: int) -> list[list[int]]:
        return [sorted(self.rng.sample(range(1 << n), k)) for _ in range(count)]

    def exact_job(self, n: int, vs: list[int]) -> dict:
        job = cli_job(["exact", "--n", str(n), "--set", inline(n, vs)], EXACT_FIELDS)
        self.cross_check(n, vs, job["expect"]["distance"], f"exact n={n} {vs}")
        return job

    def bound_job(self, n: int, vs: list[int]) -> dict:
        job = cli_job(["bound", "--n", str(n), "--set", inline(n, vs)], BOUND_FIELDS)
        self.cross_check(n, vs, job["expect"]["exact"], f"bound n={n} {vs}")
        return job

    def exact_mix(self) -> list[dict]:
        slots = []
        for n, k in [(5, 10), (5, 11), (5, 12), (6, 10), (6, 11), (6, 12)]:
            sets = self.even_sets(n, k, 8)
            slots.append(slot("a_even", [self.exact_job(n, vs) for vs in sets]))
            if (n, k) != (6, 12):
                slots.append(slot("a_even", [self.bound_job(n, vs) for vs in sets]))
        for n in (10, 11, 12, 13):
            for k in (4, 5):
                pool = [self.exact_job(n, vs) for vs in self.any_sets(n, k, 8)]
                slots.extend(slot("b_random", pool) for _ in range(3))
        return slots

    def symmetry(self) -> list[dict]:
        slots = [
            slot("all", [cli_job(["group-verify", "--n", str(n)], GROUP_FIELDS)])
            for n in (6, 7, 8)
        ]
        for n in (5, 6, 7):
            for k in (2, 4, 6, 8):
                sets = self.even_sets(n, k, 4)
                seeds = [self.rng.randrange(1 << 31) for _ in sets]
                exhaustive, sampled, transcripts = [], [], []
                for vs, s in zip(sets, seeds):
                    base = ["experiment", "--n", str(n), "--set", inline(n, vs)]
                    exhaustive.append(cli_job(base + ["--exhaustive"], EXPERIMENT_FIELDS))
                    d = exhaustive[-1]["expect"]["distance"]
                    self.cross_check(n, vs, d, f"experiment n={n} {vs}")
                    if exhaustive[-1]["expect"]["mean"] != str_fraction(
                        Fraction(d * d, n << (n - 1))
                    ):
                        raise SystemExit("exhaustive mean is not d^2/(n 2^(n-1))")
                    draw = base + ["--samples", "2000", "--seed", str(s)]
                    sampled.append(cli_job(draw, EXPERIMENT_FIELDS))
                    transcripts.append(cli_job(draw, ("pair_count", "mean"), fmt="csv"))
                    if transcripts[-1]["expect"]["mean"] != sampled[-1]["expect"]["mean"]:
                        raise SystemExit("csv transcript disagrees with the json report")
                slots += [slot("all", exhaustive), slot("all", sampled), slot("all", transcripts)]
        return slots

    def sandwich(self) -> list[dict]:
        slots = []
        for (n, k), want in SDIAM_EXACT.items():
            job = cli_job(["sdiam", "--n", str(n), "--k", str(k)], SDIAM_FIELDS)
            if job["expect"]["exact"] != want:
                raise SystemExit(f"sdiam n={n} k={k} is {job['expect']['exact']}, not {want}")
            worst = max(
                steiner_brute_oracle(SteinerInstance.from_vertices(Dimension(n), c))
                for c in combinations(range(1 << n), k)
            )
            if worst != want:
                raise SystemExit(f"oracle diameter for n={n} k={k} is {worst}")
            self.oracle_checked += 1
            slots.append(slot("all", [job]))
        for n in range(4, 10):
            slots.append(slot("all", [cli_job(["cds", "--n", str(n)], CDS_FIELDS)]))
        value = exact_connected_domination_number(Dimension(5))
        if value != CDS_N5:
            raise SystemExit(f"connected domination number of Q_5 is {value}, not {CDS_N5}")
        slots.append(
            slot("all", [{"api": "exact_connected_domination_number", "n": 5, "expect": {"value": value}}])
        )
        for n, want in EVEN_CLASS_DISTANCE.items():
            job = cli_job(["exact", "--n", str(n), "--set", "even"], EXACT_FIELDS)
            if job["expect"]["distance"] != want:
                raise SystemExit(f"d(even Q_{n}) is {job['expect']['distance']}, not {want}")
            evens = [v for v in range(1 << n) if parity(v) == 0]
            self.cross_check(n, evens, want, f"even class of Q_{n}")
            slots.append(slot("all", [job]))
        for i, (n, k) in enumerate([(4, 3), (4, 5), (5, 4), (5, 6), (6, 4), (6, 6)]):
            sets = self.even_sets(n, k, 6) if i % 2 == 0 else self.any_sets(n, k, 6)
            slots.append(slot("all", [self.bound_job(n, vs) for vs in sets]))
        return slots


def slot(family: str, pool: list[dict]) -> dict:
    return {"family": family, "pool": pool}


def str_fraction(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def main() -> int:
    pins = Pins()
    doc = {
        "exact_mix": {"slots": pins.exact_mix()},
        "symmetry": {"slots": pins.symmetry()},
        "sandwich": {"slots": pins.sandwich()},
    }
    doc["generator"] = {
        "pool_seed": POOL_SEED,
        "oracle_budget": ORACLE_BUDGET,
        "oracle_checked": pins.oracle_checked,
        "oracle_unaffordable": pins.oracle_skipped,
    }
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(doc["generator"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
