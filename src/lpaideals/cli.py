"""Command line front end: parse graphs and ideals, run analyses, emit reports.

Output is a single JSON document on standard output (or one DOT graph for the
rendering paths), byte-stable for fixed inputs.  Diagnostics go to standard
error.  Exit codes: 0 success, 2 invalid input, 4 resource cap exceeded, 1
internal error (always a bug).

Each call parses its argv in one argparse pass: a leading command name goes
straight to that command's subparser, which is what the top-level parser
would hand the rest of argv to anyway.  The whole parser tree parses argv
only when it starts with no command or when arguments are left over, so
that help, usage errors and `lpa: error: unrecognized arguments` keep their
text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from .classify import classify_algebra
from .errors import DegreeTooLarge, LpaError, TooLarge
from .graphs import (
    breaking_vertices,
    condition_k,
    condition_l,
    downward_directed,
    enumerate_hereditary_saturated,
    graph_from_json,
    graph_to_dot,
    maximal_tails,
    quotient_graph,
    strong_csp,
)
from .ideals import (
    enumerate_graded_primes,
    factor_completely_irreducible,
    factor_prime_powers,
    ideal_from_json,
    ideal_to_json,
    intersect,
    is_completely_irreducible,
    is_graded,
    is_prime,
    is_proper,
    multiply,
)
from .poly import FieldSpec


def _load_json(path: str):
    # Bytes decoded here, as text mode would: UTF-8 only, and "\r\n" and a
    # lone "\r" read as "\n", so a JSON error names the same line and char.
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_ideals(graph, paths, field_label):
    # --field applies to every polynomial literal in the invocation.
    field = FieldSpec.parse(field_label) if field_label else None
    return [ideal_from_json(graph, _load_json(p), field) for p in paths]


def _cycle_json(cycle):
    return None if cycle is None else cycle.to_json()


def _cmd_analyze(args, graph):
    if args.dot:
        return graph_to_dot(graph)
    l_holds, l_witness = condition_l(graph)
    k_holds, k_witness = condition_k(graph)
    dd_holds, dd_witness = downward_directed(graph)
    csp = strong_csp(graph)
    return {
        "vertices": list(graph.vertices),
        "edge_count": len(graph.edges),
        "vertex_classes": {v: graph.vertex_class(v) for v in graph.vertices},
        "condition_L": {"holds": l_holds, "witness": _cycle_json(l_witness)},
        "condition_K": {"holds": k_holds, "witness": _cycle_json(k_witness)},
        "downward_directed": {
            "holds": dd_holds,
            "witness": None if dd_witness is None else sorted(dd_witness),
        },
        "strong_csp": {"holds": csp.holds, "core": sorted(csp.witness)},
        "maximal_tails": [sorted(t) for t in maximal_tails(graph)],
    }


def _cmd_hsets(args, graph):
    sets = enumerate_hereditary_saturated(graph)
    return {
        "count": len(sets),
        "sets": [
            {"H": sorted(s), "breaking": sorted(breaking_vertices(graph, s))}
            for s in sets
        ],
    }


def _cmd_tails(args, graph):
    tails = maximal_tails(graph)
    return {"count": len(tails), "maximal_tails": [sorted(t) for t in tails]}


def _cmd_primes(args, graph):
    rows = [
        {"ideal": ideal_to_json(p), "case": is_prime(p).case}
        for p in enumerate_graded_primes(graph)
    ]
    return {"count": len(rows), "primes": rows}


def _cmd_ideal_classify(args, graph):
    (ideal,) = _load_ideals(graph, [args.ideal], args.field)
    out = {
        "ideal": ideal_to_json(ideal),
        "graded": is_graded(ideal),
        "proper": is_proper(ideal),
    }
    # Primality and complete irreducibility are defined for proper ideals.
    if is_proper(ideal):
        prime = is_prime(ideal)
        irred = is_completely_irreducible(ideal)
        out["prime"] = {"holds": prime.holds, "case": prime.case}
        out["completely_irreducible"] = {"holds": irred.holds, "case": irred.case}
    return out


def _cmd_combine(args, graph, combine):
    if len(args.ideals) < 2:
        raise ValueError("need at least two --ideal arguments")
    factors = _load_ideals(graph, args.ideals, args.field)
    return ideal_to_json(combine(factors))


def _cmd_ideal_multiply(args, graph):
    return _cmd_combine(args, graph, multiply)


def _cmd_ideal_intersect(args, graph):
    return _cmd_combine(args, graph, intersect)


def _cmd_ideal_factor(args, graph):
    (ideal,) = _load_ideals(graph, [args.ideal], args.field)
    runner = (factor_prime_powers if args.mode == "prime-powers"
              else factor_completely_irreducible)
    report = runner(ideal)
    out = {"mode": args.mode, "factorable": report is not None}
    if report is not None:
        out["report"] = report.to_json()
    return out


def _cmd_algebra_check(args, graph):
    return {"predicates": classify_algebra(graph).to_json()}


def _cmd_export_dot(args, graph):
    if args.ideal is None:
        return graph_to_dot(graph)
    (ideal,) = _load_ideals(graph, [args.ideal], args.field)
    quotient = quotient_graph(graph, ideal.pair)
    marked = sorted({v for part in ideal.parts for v in part.cycle.vertices})
    return graph_to_dot(quotient.graph, name="quotient", highlight=marked)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "hsets": _cmd_hsets,
    "tails": _cmd_tails,
    "primes": _cmd_primes,
    "ideal-classify": _cmd_ideal_classify,
    "ideal-multiply": _cmd_ideal_multiply,
    "ideal-intersect": _cmd_ideal_intersect,
    "ideal-factor": _cmd_ideal_factor,
    "algebra-check": _cmd_algebra_check,
    "export-dot": _cmd_export_dot,
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The `lpa` parser tree and each command's subparser by name.

    Built once per process: parsing never mutates a parser.
    """
    parser = argparse.ArgumentParser(
        prog="lpa",
        description="Ideal calculus for Leavitt path algebras of finite graphs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands = {}

    def command(name: str, help_text: str):
        p = commands[name] = sub.add_parser(name, help=help_text,
                                            description=help_text)
        p.add_argument("--graph", required=True, metavar="PATH",
                       help="graph JSON file")
        p.add_argument("--pretty", action="store_true",
                       help="indent JSON output")
        return p

    def field_flag(p):
        p.add_argument("--field", default=None, metavar="F",
                       help="coefficient field for every polynomial literal:"
                            " Q or GF(p)")

    p = command("analyze", "structural summary of one graph")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    command("hsets", "enumerate hereditary saturated vertex sets")

    command("tails", "list maximal tails")

    command("primes", "enumerate graded prime ideals")

    p = command("ideal-classify",
                "canonical form, primality, complete irreducibility")
    p.add_argument("--ideal", required=True, metavar="PATH",
                   help="ideal JSON file")
    field_flag(p)

    for name, noun in (("ideal-multiply", "product"),
                       ("ideal-intersect", "intersection")):
        p = command(name, f"{noun} of two or more ideals")
        p.add_argument("--ideal", action="append", required=True,
                       dest="ideals", metavar="PATH",
                       help="ideal JSON file (repeat per factor)")
        field_flag(p)

    p = command("ideal-factor", "factor into powers of distinct primes")
    p.add_argument("--ideal", required=True, metavar="PATH",
                   help="ideal JSON file")
    p.add_argument("--mode", choices=("prime-powers", "comp-irred"),
                   default="prime-powers", help="factorization target")
    field_flag(p)

    command("algebra-check", "run the five ideal-lattice predicates")

    p = command("export-dot", "DOT rendering of the graph or a quotient")
    p.add_argument("--ideal", default=None, metavar="PATH",
                   help="render the quotient by this ideal instead")
    field_flag(p)

    return parser, commands


def _serialize(output, pretty: bool) -> str:
    """The text to print: DOT as it is, JSON sorted (indented under --pretty)."""
    if isinstance(output, str):
        return output
    try:
        if pretty:
            return json.dumps(output, sort_keys=True, indent=2) + "\n"
        return json.dumps(output, sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError as exc:  # an int past the int-to-str digit limit
        raise TooLarge(f"the answer has an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits, Python's limit "
                       f"for int-to-str conversion") from exc


def _parse_args(argv) -> argparse.Namespace:
    """The command's subparser alone parses argv after a command name."""
    parser, commands = _build_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv) -> int:
    """Execute one command from an argv list (program name excluded).

    A leading command name sends the rest of argv straight to that
    command's subparser, which is all the top-level parser would do with it,
    so a call takes one argparse pass, not two; the subparser's errors and
    --help read the same.  The whole tree parses argv when it starts with no
    command (no argument, --help, an unknown command) or when arguments are
    left over, so that the top-level parser reports them (`lpa: error:
    unrecognized arguments: ...`).
    """
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        graph = graph_from_json(_load_json(args.graph))
        text = _serialize(_HANDLERS[args.command](args, graph), args.pretty)
    except (TooLarge, DegreeTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (LpaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
