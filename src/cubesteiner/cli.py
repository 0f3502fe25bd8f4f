"""Command-line front end.

One subcommand per computation family, one instance per invocation:

    exact         Steiner distance and witness tree for a terminal set
    bound         two-sided bound report with certificates
    cds           dominating-set constructions and the best connected one
    group-verify  sharp edge-transitivity sweep of the automorphism group
    experiment    overlap statistics of randomly displaced optimal trees
    sdiam         sandwich for the k-set Steiner diameter

Reports are deterministic byte-for-byte for a fixed configuration and
seed. Formats: text (key: value lines), json (schema-versioned flat
object, sorted keys), csv (header row plus one value row; `experiment`
instead emits the per-pair transcript). Rationals print as "p/q".
Every report begins with command, seed, budget_states and n; exact,
bound and experiment, the commands that take --set, follow those with
terminals and set_size.

Failures exit with a category on stderr: parse errors 2 (argparse's own
included), budget overruns 3, precondition violations 4. `main()`
returns its exit code; only --help raises SystemExit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Optional

from .autgroup import _element_text, verify_sharp_edge_transitivity
from .bounds import (
    build_bounds_report,
    build_intersection_experiment,
    run_intersection_experiment,
    sdiam_sandwich,
)
from .cube import (
    Dimension,
    Edge,
    VertexSet,
    canonical_int,
    parity_class,
    parse_vertex,
    vertex_to_string,
)
from .domination import cds_constructions
from .errors import DEFAULT_BUDGET, BudgetExceededError, ParseError, check_budget
from .steiner import SteinerInstance, SteinerTree, load_instance, steiner_exact

FORMATS = ("text", "json", "csv")


def _fraction_text(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _vertices_text(dim: Dimension, vertices) -> str:
    return " ".join(vertex_to_string(dim, v) for v in vertices)


def _edge_text(dim: Dimension, e: Edge) -> str:
    return f"{vertex_to_string(dim, e.even_end)}-{vertex_to_string(dim, e.odd_end)}"


def _edges_text(dim: Dimension, tree: SteinerTree) -> str:
    return " ".join(_edge_text(dim, e) for e in sorted(tree.edges))


def _resolve_set(args: argparse.Namespace) -> tuple[Dimension, VertexSet]:
    """Build (dimension, terminals) from --n and --set.

    --set accepts "even", "odd", "all", "inline:v1,v2,..." (all of which
    require --n), or a path to an instance file carrying its own n.
    """
    selector: str = args.set
    if selector in ("even", "odd", "all") or selector.startswith("inline:"):
        if args.n is None:
            raise ParseError(f"--set {selector.split(':')[0]} requires --n")
        dim = Dimension(args.n)
        if selector == "even":
            return dim, parity_class(dim, 0, budget=args.budget_states)
        if selector == "odd":
            return dim, parity_class(dim, 1, budget=args.budget_states)
        if selector == "all":
            check_budget("vertex set enumeration", dim.num_vertices, args.budget_states)
            return dim, VertexSet.of(dim, range(dim.num_vertices))
        tokens = selector[len("inline:") :].split(",")
        vertices = [parse_vertex(dim, tok) for tok in tokens]
        if len(set(vertices)) != len(vertices):
            raise ParseError("duplicate vertex in inline set")
        return dim, VertexSet.of(dim, vertices)
    try:
        inst = load_instance(selector)
    except OSError as exc:
        raise ParseError(f"cannot read instance file {selector!r}: {exc}") from None
    if args.n is not None and args.n != inst.dim.n:
        raise ParseError(
            f"--n {args.n} disagrees with n={inst.dim.n} from {selector!r}"
        )
    return inst.dim, inst.terminals


def _cmd_exact(
    args: argparse.Namespace, dim: Dimension, terminals: VertexSet
) -> tuple[dict, None]:
    inst = SteinerInstance(dim, terminals)
    distance, tree = steiner_exact(inst, budget=args.budget_states)
    return {
        "distance": distance,
        "tree_vertices": _vertices_text(dim, sorted(tree.vertices)),
        "tree_edges": _edges_text(dim, tree),
    }, None


def _cmd_bound(
    args: argparse.Namespace, dim: Dimension, terminals: VertexSet
) -> tuple[dict, None]:
    report = build_bounds_report(terminals, budget=args.budget_states)
    return {
        "lower": "none" if report.lower is None else _fraction_text(report.lower),
        "lower_floor": report.lower_floor,
        "certified_lower": report.certified_lower,
        "upper": report.upper,
        "exact": "omitted" if report.exact is None else report.exact,
        "exact_reason": report.exact_reason,
        "cds_method": report.cds.method,
        "cds_size": report.cds.size,
        "cds_connected": report.cds.connected,
        "cds_vertices": _vertices_text(dim, report.cds.vertex_set),
        "tree_edge_count": len(report.tree.edges),
        "tree_edges": _edges_text(dim, report.tree),
    }, None


def _cmd_cds(args: argparse.Namespace, dim: Dimension, _) -> tuple[dict, None]:
    built, best = cds_constructions(dim, budget=args.budget_states)
    fields = {}
    for name, cert in built.items():
        fields[f"{name}_size"] = cert.size
        if name in ("greedy", "hamming"):
            fields[f"{name}_connected"] = cert.connected
    fields["best_method"] = best.method
    fields["best_size"] = best.size
    fields["best_vertices"] = _vertices_text(dim, best.vertex_set)
    return fields, None


def _cmd_group_verify(
    args: argparse.Namespace, dim: Dimension, _
) -> tuple[dict, None]:
    report = verify_sharp_edge_transitivity(dim, budget=args.budget_states)
    verdict = "OK" if report.ok else "FAIL"
    fields = {
        "group_order": report.group_size,
        "edge_count": report.edge_count,
        "ordered_pairs": report.pair_count,
        "sharp edge transitivity": (
            f"{verdict} ({report.group_size} elements, {report.edge_count} edges, "
            f"{report.pair_count} ordered pairs)"
        ),
    }
    if report.counterexample is not None:
        e1, e2 = report.counterexample
        fields["counterexample"] = f"{_edge_text(dim, e1)} -> {_edge_text(dim, e2)}"
    return fields, None


def _cmd_experiment(
    args: argparse.Namespace, dim: Dimension, terminals: VertexSet
) -> tuple[dict, Optional[list]]:
    exp = build_intersection_experiment(terminals, budget=args.budget_states)
    summary = run_intersection_experiment(
        exp,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget_states,
        keep_transcript=args.format == "csv",
    )
    expected = Fraction(exp.distance * exp.distance, dim.num_edges)
    rhs = 2 * len(terminals) - (dim.n + 1)
    fields = {
        "distance": exp.distance,
        "mode": "exhaustive" if summary.exhaustive else "sampled",
        "pair_count": summary.pair_count,
        "mean": _fraction_text(summary.mean),
        "expected_mean": _fraction_text(expected),
        "max_overlap": summary.max_overlap,
        "min_lhs": summary.min_lhs,
        "pair_bound_rhs": rhs,
        "pair_bound_ok": summary.min_lhs >= rhs,
    }
    transcript = None
    if summary.transcript is not None:
        # at most |G| distinct elements, each formatted once
        firsts, seconds, xs = zip(*summary.transcript)
        text = {g: _element_text(dim, g) for g in {*firsts, *seconds}}
        transcript = list(zip(map(text.get, firsts), map(text.get, seconds), xs))
    return fields, transcript


def _cmd_sdiam(args: argparse.Namespace, dim: Dimension, _) -> tuple[dict, None]:
    report = sdiam_sandwich(dim, args.k, budget=args.budget_states)
    fields = {
        "k": report.k,
        "lower": _fraction_text(report.lower),
        "upper": report.upper,
        "exact": "omitted" if report.exact is None else report.exact,
        "exact_reason": report.exact_reason,
        "cds_method": report.cds.method,
        "cds_size": report.cds.size,
    }
    if report.worst_set is not None:
        fields["worst_set"] = _vertices_text(dim, report.worst_set)
    return fields, None


# subcommand -> (handler, takes --set, help text). main resolves the cube
# and, for --set commands, the terminals (None otherwise); the handler
# returns its own fields and csv transcript (or None), and main writes
# the header before those fields.
_COMMANDS = {
    "exact": (_cmd_exact, True, "exact Steiner distance with a witness tree"),
    "bound": (_cmd_bound, True, "lower/upper bound report with certificates"),
    "cds": (_cmd_cds, False, "dominating-set constructions for Q_n"),
    "group-verify": (
        _cmd_group_verify,
        False,
        "verify sharp edge-transitivity of the group",
    ),
    "experiment": (_cmd_experiment, True, "overlap experiment over automorphism pairs"),
    "sdiam": (_cmd_sdiam, False, "bracket the k-set Steiner diameter"),
}


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _render(fields: dict, transcript: Optional[list], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"schema": 1, **fields}, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        if transcript is not None:
            # element texts and counts hold no comma, quote or line end, so
            # the csv module would quote no field of these rows
            return "lambda1,lambda2,x\n" + "".join([f"{a},{b},{x}\n" for a, b, x in transcript])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields.keys())
        writer.writerow([_scalar_text(v) for v in fields.values()])
        return buf.getvalue()
    return "".join(f"{k}: {_scalar_text(v)}\n" for k, v in fields.items())


# argparse failures go through main's error table instead of exiting
class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ParseError(message)


def _option_int(text: str) -> int:
    """`canonical_int` as an argparse type. argparse prints the message of
    an ArgumentTypeError, but names the type function for a ValueError."""
    try:
        return canonical_int(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubesteiner",
        description="Steiner distances, dominating sets, and automorphism "
        "experiments in hypercubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_set, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # a --set command may take n from an instance file
        p.add_argument("--n", type=_option_int, required=not takes_set, help="cube dimension")
        p.add_argument(
            "--seed", type=_option_int, default=0, help="random seed (always recorded)"
        )
        p.add_argument(
            "--budget-states",
            type=_option_int,
            default=DEFAULT_BUDGET,
            help="max states/candidates any single step may touch",
        )
        p.add_argument("--format", choices=FORMATS, default="text")
        if takes_set:
            p.add_argument(
                "--set",
                required=True,
                help="terminal set: file path, even, odd, all, or inline:v1,v2,...",
            )
        if name == "experiment":
            mode = p.add_mutually_exclusive_group()
            mode.add_argument(
                "--exhaustive",
                action="store_true",
                help="sweep all ordered automorphism pairs (default)",
            )
            mode.add_argument(
                "--samples", type=_option_int, default=None, help="sample this many pairs"
            )
        if name == "sdiam":
            p.add_argument("--k", type=_option_int, required=True, help="terminal set size")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.budget_states <= 0:
            raise ValueError("--budget-states must be positive")
        handler, takes_set, _ = _COMMANDS[args.command]
        dim, terminals = _resolve_set(args) if takes_set else (Dimension(args.n), None)
        own, transcript = handler(args, dim, terminals)
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error[budget]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error[precondition]: {exc}", file=sys.stderr)
        return 4
    fields = {key: getattr(args, key) for key in ("command", "seed", "budget_states")}
    fields["n"] = dim.n
    if terminals is not None:
        fields.update(terminals=_vertices_text(dim, terminals), set_size=len(terminals))
    fields.update(own)
    sys.stdout.write(_render(fields, transcript, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
