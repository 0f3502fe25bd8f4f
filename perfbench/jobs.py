"""Job pools, seeded job lists, job execution and output checks.

`pins.json` (written by make_pins.py) holds, for each workload, a list of
slots. A slot is one position in a pass of the job list and has a pool of
interchangeable jobs of the same shape (same subcommand, n and k), each with
the output fields pinned for it. A pass takes one job from every slot, so
every pass of every seed does the same kinds and sizes of work; the seed
only picks the instances and the order. Slots carry a family name, and a
pass alternates between families.

A job is either a `cubesteiner.cli.main` argument list or, where no CLI
path exists, a named public API call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import traceback
from fractions import Fraction
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def job_list(pins: dict, workload: str, seed: int, pass_index: int) -> list[dict]:
    """The jobs of one pass: one pool entry per slot, families alternating."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    families: dict[str, list[dict]] = {}
    for slot in pins[workload]["slots"]:
        families.setdefault(slot["family"], []).append(rng.choice(slot["pool"]))
    queues = [families[name] for name in sorted(families)]
    for q in queues:
        rng.shuffle(q)
    jobs = []
    for i in range(max(len(q) for q in queues)):
        jobs.extend(q[i] for q in queues if i < len(q))
    return jobs


def execute(job: dict, package) -> tuple:
    """Run one job in-process; returns what `check` needs.

    `package` is the imported cubesteiner package. Module attributes are
    looked up at call time so that the tracer's rebinding takes effect.
    """
    try:
        if "api" in job:
            fn = getattr(package.domination, job["api"])
            return ("value", fn(package.cube.Dimension(job["n"])))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = package.cli.main(job["argv"])
        return ("cli", rc, out.getvalue(), err.getvalue())
    except Exception:  # a job that raises is counted as failed, not fatal
        return ("raised", traceback.format_exc())


def transcript_fields(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["lambda1", "lambda2", "x"]:
        raise ValueError(f"unexpected transcript header {rows[0]}")
    xs = [int(r[2]) for r in rows[1:]]
    mean = Fraction(sum(xs), len(xs))
    return {"pair_count": len(xs), "mean": f"{mean.numerator}/{mean.denominator}"}


def check(job: dict, raw: tuple) -> str | None:
    """None when the output matches the pins, else a one-line reason."""
    kind = raw[0]
    if kind == "raised":
        return "raised: " + raw[1].strip().splitlines()[-1]
    if kind == "value":
        want = job["expect"]["value"]
        return None if raw[1] == want else f"value {raw[1]!r} != pinned {want!r}"
    _, rc, out, err = raw
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    try:
        got = transcript_fields(out) if job["format"] == "csv" else json.loads(out)
    except (ValueError, IndexError) as exc:
        return f"unreadable {job['format']} output: {exc}"
    for key, want in job["expect"].items():
        if got.get(key) != want:
            return f"{key} {got.get(key)!r} != pinned {want!r}"
    if job["argv"][0] == "bound" and not got["certified_lower"] <= got["exact"] <= got["upper"]:
        return "bound sandwich violated"
    return None


def describe(job: dict) -> str:
    if "api" in job:
        return f"{job['api']}(n={job['n']})"
    return " ".join(job["argv"])
