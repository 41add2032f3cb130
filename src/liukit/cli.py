"""Command line interface.

Exit codes: 0 success, 1 input could not be read or parsed or --out could not
be written, 2 the input parsed but failed validation, 3 an engine invariant
failed, 4 a candidate check failed.
"""
from __future__ import annotations

import argparse
import os
import sys

from .jet import StateSpaceError
from .expr import ExprError, ParseError
from .balance import ModelError, ModelSpec
from .liu import EngineError, derive, format_report, report_json_dict, report_latex, same_restrictions
from .modelfile import CheckError, FileFormatError, load_model
from .models import builtin_names, load_builtin, load_builtin_solution
from ._util import stable_json

# A process compiles only the modules its command runs: `check` imports the
# checker and the solution grammar (`liukit.solution`), `fdb` the fdb module
# and `report_latex` the LaTeX printers (`liukit.latex`), so `derive --format
# json|text` loads none of them.  `CheckError` is defined in `modelfile`, so
# `main` catches it without the solution grammar.

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ENGINE = 3
EXIT_CHECK = 4

FDB_MAX_ORDER = 8
FDB_MAX_TERMS = 3000


def _write(args, record, format_text, latex=None) -> None:
    """Write a subcommand's output in its --format, to --out or stdout.  Text is
    `format_text` of the JSON record `record()`, so the two formats say the same;
    `latex()` is derive's LaTeX, the one format rendered from the report itself."""
    if args.format == "latex":
        text = latex()
    elif args.format == "json":
        text = stable_json(record())
    else:
        text = format_text(record())
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_model(args) -> ModelSpec:
    if args.builtin:
        if args.model is not None:
            raise CliUsage("give either a model file or --builtin, not both")
        return load_builtin(args.builtin)
    if args.model is None:
        raise CliUsage("a model file or --builtin NAME is required")
    return load_model(args.model)


class CliUsage(Exception):
    pass


def _cmd_derive(args) -> int:
    model = _resolve_model(args)
    mode = "all" if args.all_extensions else "pruned"
    if args.order is not None and not args.all_extensions:
        raise CliUsage("--order only applies together with --all-extensions")
    if args.order is not None and args.order < 0:
        raise CliUsage(f"--order must be nonnegative, got {args.order}")
    order = model.space.order
    if args.verify and args.order is not None and args.order < order:
        # A lower cap drops constraints on purpose, so the two sets may differ.
        raise CliUsage(f"--verify needs --order of at least the state-space order {order}, got {args.order}")
    report = derive(model, mode=mode, max_order=args.order)
    if args.verify:
        other = derive(model, mode="all" if mode == "pruned" else "pruned")
        if not same_restrictions(report.restrictions, other.restrictions):
            raise EngineError(
                "pruned and full constraint sets emit different restrictions"
            )
    _write(args, lambda: report_json_dict(report), format_report, lambda: report_latex(report))
    return EXIT_OK


def _cmd_check(args) -> int:
    from .checker import check, check_json_dict, format_check
    from .solution import load_solution

    if args.builtin:
        if args.model is not None or args.solution is not None:
            raise CliUsage("give either file paths or --builtin, not both")
        model = load_builtin(args.builtin)
        solution = load_builtin_solution(args.builtin, model)
    else:
        if args.model is None or args.solution is None:
            raise CliUsage("check needs a model file and a solution file, or --builtin NAME")
        model = load_model(args.model)
        solution = load_solution(args.solution, model)
    report = derive(model, mode="all" if args.all_extensions else "pruned")
    result = check(
        model, report, solution, samples=args.samples, seed=args.seed, tol=args.tol
    )
    _write(args, lambda: check_json_dict(result), format_check)
    return EXIT_OK if result.ok else EXIT_CHECK


def _cmd_fdb(args) -> int:
    from .fdb import expansion_json_dict, format_expansion, term_count

    m, s = args.order, args.arity
    if m < 1 or s < 1:
        raise CliUsage("--m and --s must be positive")
    if m > FDB_MAX_ORDER:
        raise CliUsage(
            f"--m {m} exceeds the supported maximum {FDB_MAX_ORDER}; "
            "term counts grow too fast beyond it"
        )
    count = term_count(m, s)
    if count > FDB_MAX_TERMS:
        raise CliUsage(
            f"--m {m} --s {s} expands to {count} terms, more than the supported maximum {FDB_MAX_TERMS}"
        )
    record = expansion_json_dict(m, s, args.verify)
    _write(args, lambda: record, format_expansion)
    if record.get("verify") == "MISMATCH":
        print("error: expansion disagrees with the iterated total derivative", file=sys.stderr)
        return EXIT_ENGINE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liukit",
        description="Derive thermodynamic restrictions from gradient-extended "
        "entropy exploitation and check candidate constitutive equations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="derive restrictions for a model")
    d.add_argument("model", nargs="?", help="model file path")
    d.add_argument("--builtin", choices=builtin_names(), help="use a built-in model")
    d.add_argument(
        "--all-extensions",
        action="store_true",
        help="constrain with every gradient extension instead of the pruned set",
    )
    d.add_argument("--order", type=int, help="extension order cap for --all-extensions")
    d.add_argument("--format", choices=("text", "json", "latex"), default="text")
    d.add_argument("--out", help="write output to this file instead of stdout")
    d.add_argument(
        "--verify",
        action="store_true",
        help="re-derive with the other constraint set and require identical restrictions",
    )
    d.set_defaults(func=_cmd_derive)

    c = sub.add_parser("check", help="check a candidate solution against a model")
    c.add_argument("model", nargs="?", help="model file path")
    c.add_argument("solution", nargs="?", help="solution file path")
    c.add_argument("--builtin", choices=builtin_names(), help="use a built-in model and solution")
    c.add_argument(
        "--all-extensions",
        action="store_true",
        help="check against the restrictions derived with every gradient extension instead of the pruned set",
    )
    c.add_argument(
        "--sample",
        "--samples",
        dest="samples",
        type=int,
        help="override scenario sample counts",
    )
    c.add_argument("--seed", type=int, help="override scenario seeds")
    c.add_argument("--tol", type=float, help="override scenario tolerances")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--out", help="write output to this file instead of stdout")
    c.set_defaults(func=_cmd_check)

    f = sub.add_parser("fdb", help="print the expansion of an iterated total derivative")
    f.add_argument("--m", dest="order", type=int, required=True, help="derivative order")
    f.add_argument("--s", dest="arity", type=int, default=1, help="number of inner arguments")
    f.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the expansion against the iterated total-derivative operator",
    )
    f.add_argument("--format", choices=("text", "json"), default="text")
    f.add_argument("--out", help="write output to this file instead of stdout")
    f.set_defaults(func=_cmd_fdb)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CliUsage, ModelError, StateSpaceError, KeyError, ExprError, CheckError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `liukit derive | head`); park
        # stdout on devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        # A missing file, a directory, a permission: any input that cannot be
        # read, or an --out that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
