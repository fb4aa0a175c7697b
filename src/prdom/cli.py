"""Command-line front end.

Five subcommands: ``solve`` (domination number, optional witness and
forced-zero set), ``stable`` (deletion deltas), ``recognize`` (family
membership with an optional certificate file), ``generate`` (random
construction walks or the full family at one order, as graph6 lines), and
``verify`` (the exhaustive sweeps).

Reports are stable JSON: identical inputs and flags reproduce the payload
byte for byte, with wall-clock timing carried in a separate key that the
determinism contract excludes. A command only computes; ``main`` starts
the one clock just before it runs and writes its report, or ``generate``'s
graph6 lines, through the one writer.

Exit codes: 0 success, 1 a verify suite failed, 2 unparseable or unusable
input (a closed standard stream included), 3 size limit, 4 internal
invariant breach or any other error.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
import time

# each command imports what it runs, so a child loads only its own modules
from . import __version__
from .graphs import Forest, InvalidStepError, ParseError, SizeLimitError, Tree, parse_edge_list

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_SIZE_LIMIT = 3
EXIT_INTERNAL = 4

# generate refuses, before any work, a member whose graph6 line is longer
GENERATE_MAX_BYTES = 64 << 20

# the options that name a file; an empty value is refused, not read as absent
_PATH_OPTIONS = ("--certificate", "--emit-certificate", "--input", "--output")


class _UsageError(ValueError):
    pass


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse an empty file path before the command does any work."""
    for flag in _PATH_OPTIONS:
        if getattr(args, flag[2:].replace("-", "_"), None) == "":
            raise _UsageError(f"{flag} needs a nonempty file path")


def _read_text(path: str | None) -> str:
    """The UTF-8 text of a file, or of stdin when ``path`` is None."""
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        if sys.stdin is None:
            raise OSError("standard input is closed")
        if isinstance(sys.stdin, io.TextIOWrapper):
            # UTF-8 mode and the C locale read stdin with surrogateescape,
            # which would pass undecodable bytes on to the parsers as text
            sys.stdin.reconfigure(errors="strict")
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"input is not valid UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}"
        ) from None


def _parse_input(args: argparse.Namespace, cls: type[Forest]) -> Forest:
    """The input graph, validated as a ``cls`` (a Forest or a Tree)."""
    text = _read_text(args.input)
    if args.format == "graph6":
        from .graph6 import parse_graph6

        # a line is blank by parse_graph6's own rule, a bytes strip of ASCII
        # whitespace, and goes to it as read, so the CLI refuses what it refuses
        lines = [line for line in text.split("\n") if line.encode().strip()]
        if len(lines) > 1:
            raise ParseError("expected a single graph6 line")
        g = parse_graph6(lines[0] if lines else "")
    else:
        g = parse_edge_list(text)
    try:
        return cls(g)
    except ValueError as exc:
        raise _UsageError(f"input is not a {cls.__name__.lower()}: {exc}") from None


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _report(args: argparse.Namespace, options: dict, parsed: Forest | None, result: dict,
            started: float) -> None:
    payload = {
        "command": args.command,
        "options": options,
        "input": None if parsed is None else _input_info(parsed),
        "result": result,
        "version": __version__,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    _write_output(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _input_info(x: Forest) -> dict:
    import hashlib

    from .canonical import canonical_forms

    forms = canonical_forms(x)
    return {
        "digest": "sha256:" + hashlib.sha256(b"|".join(sorted(forms))).hexdigest(),
        "n": x.n,
        "edges": x.m,
        "components": len(forms),
    }


_Outcome = tuple[dict, Forest | None, dict, int]  # options, parsed graph, result, exit code


def _cmd_solve(args: argparse.Namespace) -> _Outcome:
    from .solver import forced_zero_set, optimal_assignment, prd_number

    forest = _parse_input(args, Forest)
    # a witness's weight is the number, so it needs no second DP table
    witness = optimal_assignment(forest) if args.witness else None
    result: dict = {"number": prd_number(forest) if witness is None else sum(witness)}
    if witness is not None:
        result["witness"] = list(witness)
    if args.wset:
        result["forced_zero"] = sorted(forced_zero_set(forest))
    options = {"format": args.format, "witness": args.witness, "wset": args.wset}
    return options, forest, result, EXIT_OK


def _cmd_stable(args: argparse.Namespace) -> _Outcome:
    from .stability import stability_report

    tree = _parse_input(args, Tree)
    report = stability_report(tree)
    result = {"base": report.base, "deltas": list(report.deltas), "stable": report.stable}
    return {"format": args.format}, tree, result, EXIT_OK


def _cmd_recognize(args: argparse.Namespace) -> _Outcome:
    from .family import recognize, serialize_certificate

    tree = _parse_input(args, Tree)
    outcome = recognize(tree)
    result = {
        "accepted": outcome.accepted,
        "order": tree.n,
        # P3's certificate is the empty tuple
        "steps": len(outcome.certificate) if outcome.accepted else None,
        "reason": outcome.reason,
    }
    if args.emit_certificate is not None:
        if outcome.accepted:
            with open(args.emit_certificate, "w", encoding="utf-8") as fh:
                fh.write(serialize_certificate(outcome.certificate))
            result["certificate_path"] = args.emit_certificate
        else:
            result["certificate_path"] = None
    return {"format": args.format}, tree, result, EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> str:
    from .family import enumerate_family, random_certificate, replay_certificate
    from .graph6 import GRAPH6_MAX_N, emit_graph6, graph6_length

    if args.all is not None:
        if args.all < 3 or args.all % 3 != 0:
            raise _UsageError(f"--all takes a positive multiple of 3, got {args.all}")
        certificates = enumerate_family(args.all).values()
    else:
        if args.steps < 0:
            raise _UsageError(f"--steps must be non-negative, got {args.steps}")
        n = 3 + 3 * args.steps
        if n > GRAPH6_MAX_N:
            raise SizeLimitError(
                f"--steps {args.steps} builds more than the graph6 cap of {GRAPH6_MAX_N} vertices"
            )
        size = graph6_length(n)
        if size > GENERATE_MAX_BYTES:
            raise SizeLimitError(
                f"--steps {args.steps} writes a graph6 line of {size} bytes,"
                f" above the cap of {GENERATE_MAX_BYTES}"
            )
        import random

        certificates = [random_certificate(args.steps, random.Random(args.seed))]
    trees = (replay_certificate(c) for c in certificates)
    return "".join(emit_graph6(t).decode("ascii") + "\n" for t in trees)


def _cmd_verify_certificate(args: argparse.Namespace) -> _Outcome:
    from .canonical import canonical_form
    from .family import parse_certificate, replay_certificate

    text = _read_text(args.certificate)
    options = {"certificate": True, "format": args.format}
    result: dict = {"certificate_path": args.certificate}
    matches = None
    try:
        cert = parse_certificate(text)
        rebuilt = replay_certificate(cert)
    except InvalidStepError as exc:
        result.update({"valid": False, "error": str(exc)})
        return options, None, result, EXIT_PROPERTY_FAILURE
    result.update({"valid": True, "steps": len(cert), "order": rebuilt.n})
    if args.input is not None:
        tree = _parse_input(args, Tree)
        matches = canonical_form(tree) == canonical_form(rebuilt)
        result["matches_input"] = matches
    return options, None, result, EXIT_OK if matches in (None, True) else EXIT_PROPERTY_FAILURE


def _cmd_verify(args: argparse.Namespace) -> _Outcome:
    if args.certificate is not None:
        return _cmd_verify_certificate(args)
    if args.max_n < 3:
        raise _UsageError(f"--max-n must be at least 3, got {args.max_n}")
    from .sweeps import (
        ATTACHMENT_MAX_N,
        CHARACTERIZATION_MAX_N,
        OPTIMA_SWEEP_MAX_N,
        attachment_delta_sweep,
        characterization_sweep,
        optima_structure_sweep,
    )

    suites = ("theorem", "lemmas", "observation") if args.suite == "all" else (args.suite,)
    sweeps = {
        "theorem": (CHARACTERIZATION_MAX_N, characterization_sweep),
        "lemmas": (ATTACHMENT_MAX_N, lambda m: attachment_delta_sweep(max_n=m, seed=args.seed)),
        "observation": (OPTIMA_SWEEP_MAX_N, optima_structure_sweep),
    }
    results: dict = {}
    for suite in suites:
        cap, sweep = sweeps[suite]
        # an explicitly requested suite keeps its hard cap (size-limit error);
        # under "all" each suite clamps to its own cap instead
        max_n = min(args.max_n, cap) if args.suite == "all" else args.max_n
        results[suite] = sweep(max_n)
    all_passed = all(r["passed"] for r in results.values())
    options = {"suite": args.suite, "max_n": args.max_n, "seed": args.seed}
    code = EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE
    return options, None, {"suites": results, "passed": all_passed}, code


def _add_io_arguments(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("--input", help="read from this file instead of stdin")
        sub.add_argument(
            "--format",
            choices=("edgelist", "graph6"),
            default="edgelist",
            help="input format (default: edgelist)",
        )
    sub.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prdom",
        description="Perfect Roman domination on trees: solve, stability, "
        "family recognition and generation, exhaustive verification.",
    )
    parser.add_argument("--version", action="version", version=f"prdom {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="domination number of a tree or forest")
    _add_io_arguments(solve)
    solve.add_argument("--witness", action="store_true", help="include one optimal labeling")
    solve.add_argument("--wset", action="store_true", help="include the forced-zero vertex set")
    solve.set_defaults(func=_cmd_solve)

    stable = commands.add_parser("stable", help="deletion stability of a tree")
    _add_io_arguments(stable)
    stable.set_defaults(func=_cmd_stable)

    rec = commands.add_parser("recognize", help="family membership of a tree")
    _add_io_arguments(rec)
    rec.add_argument("--emit-certificate", metavar="PATH", help="write the build certificate here")
    rec.set_defaults(func=_cmd_recognize)

    gen = commands.add_parser("generate", help="emit family members as graph6 lines")
    group = gen.add_mutually_exclusive_group()
    group.add_argument("--steps", type=int, default=0, help="random construction steps from P3")
    group.add_argument("--all", type=int, help="every member of this order instead")
    gen.add_argument("--seed", type=int, default=0, help="random walk seed (default 0)")
    _add_io_arguments(gen, with_input=False)
    gen.set_defaults(func=_cmd_generate)

    verify = commands.add_parser(
        "verify", help="run exhaustive verification sweeps, or replay a certificate"
    )
    verify.add_argument(
        "--suite",
        choices=("theorem", "lemmas", "observation", "all"),
        default="all",
        help="which sweep to run (default: all)",
    )
    verify.add_argument("--max-n", type=int, default=10, help="largest tree order (default 10)")
    verify.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
    verify.add_argument(
        "--certificate",
        metavar="PATH",
        help="replay and validate this certificate file instead of sweeping; "
        "with --input, also require the rebuilt tree to match",
    )
    _add_io_arguments(verify)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command builds no reference cycles: its data are lists and tuples of
    # ints and records without a __dict__, so the cyclic collector's passes
    # over them would free nothing. It is off while the command runs and put
    # back as found, for callers that run main in-process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_paths(args)
        started = time.perf_counter()
        outcome = args.func(args)
        if isinstance(outcome, str):  # generate's graph6 lines
            _write_output(args, outcome)
            return EXIT_OK
        options, parsed, result, code = outcome
        _report(args, options, parsed, result, started)
        return code
    except ParseError as exc:
        print(f"prdom: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except _UsageError as exc:
        print(f"prdom: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except SizeLimitError as exc:
        print(f"prdom: size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except OSError as exc:
        print(f"prdom: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except InvalidStepError as exc:
        print(f"prdom: internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"prdom: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
