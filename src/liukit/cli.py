"""Command line interface.

Exit codes: 0 success, 1 input could not be read or parsed or --out could not
be written, 2 the input parsed but failed validation, 3 an engine invariant
failed, 4 a candidate check failed.
"""
from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .jet import StateSpaceError
from .expr import ExprError, ParseError
from .balance import ModelError, ModelSpec
from .liu import EngineError, MinorLimitError, derive, format_report, report_json_dict, report_latex, same_restrictions
from .modelfile import CheckError, FileFormatError, load_model
from .models import builtin_names, load_builtin, load_builtin_solution
from ._util import stable_json

# A process compiles only the modules its command runs: `check` imports the
# checker, the solution grammar (`liukit.solution`) and substitution
# (`liukit.subst`), `fdb` the fdb module, and `report_latex` the LaTeX report
# and printers (`liukit.latex`), so `derive --format json|text` loads none of
# them.  `CheckError` is defined in `modelfile`, so `main` catches it without
# the solution grammar.  Argparse, built from the option table `COMMANDS`,
# defines how a command line is read and prints every usage error and help;
# `parse_args` reads the common forms itself, as every argparse release
# does, so a run given one imports neither argparse nor the gettext and
# locale modules it loads.

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ENGINE = 3
EXIT_CHECK = 4

FDB_MAX_ORDER = 8
FDB_MAX_TERMS = 3000
# Each extension order multiplies derive's time by about 2.8 (korteweg, in
# process: 0.17, 0.48 and 1.3 s at orders 6, 7 and 8), so a larger --order
# would hang, and a huge one exhausts memory.
DERIVE_MAX_ORDER = 12


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
    if args.order is not None and args.order > DERIVE_MAX_ORDER:
        raise CliUsage(f"--order {args.order} exceeds the supported maximum {DERIVE_MAX_ORDER}")
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
    try:
        _write(args, lambda: report_json_dict(report), format_report, lambda: report_latex(report))
    except MinorLimitError as exc:
        raise CliUsage(f"{exc}; --format latex prints the form without them") from None
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


DESCRIPTION = (
    "Derive thermodynamic restrictions from gradient-extended "
    "entropy exploitation and check candidate constitutive equations."
)
REQUIRED = ...  # the default of an option that must be given
_OUT = (("--out",), "out", str, None, None, "write output to this file instead of stdout")

# Each subcommand's handler, help and options, one row per option: its names,
# dest, type (bool for a flag), choices, default and help.  A name without
# dashes is a positional that may be left out.  `build_parser` and the fast
# path of `parse_args` both read the rows.
COMMANDS = {
    "derive": (_cmd_derive, "derive restrictions for a model", (
        (("model",), "model", str, None, None, "model file path"),
        (("--builtin",), "builtin", str, builtin_names(), None, "use a built-in model"),
        (("--all-extensions",), "all_extensions", bool, None, False,
         "constrain with every gradient extension instead of the pruned set"),
        (("--order",), "order", int, None, None, "extension order cap for --all-extensions"),
        (("--format",), "format", str, ("text", "json", "latex"), "text", None),
        _OUT,
        (("--verify",), "verify", bool, None, False,
         "re-derive with the other constraint set and require identical restrictions"),
    )),
    "check": (_cmd_check, "check a candidate solution against a model", (
        (("model",), "model", str, None, None, "model file path"),
        (("solution",), "solution", str, None, None, "solution file path"),
        (("--builtin",), "builtin", str, builtin_names(), None, "use a built-in model and solution"),
        (("--all-extensions",), "all_extensions", bool, None, False,
         "check against the restrictions derived with every gradient extension instead of the pruned set"),
        (("--sample", "--samples"), "samples", int, None, None, "override scenario sample counts"),
        (("--seed",), "seed", int, None, None, "override scenario seeds"),
        (("--tol",), "tol", float, None, None, "override scenario tolerances"),
        (("--format",), "format", str, ("text", "json"), "text", None),
        _OUT,
    )),
    "fdb": (_cmd_fdb, "print the expansion of an iterated total derivative", (
        (("--m",), "order", int, None, REQUIRED, "derivative order"),
        (("--s",), "arity", int, None, 1, "number of inner arguments"),
        (("--verify",), "verify", bool, None, False,
         "cross-check the expansion against the iterated total-derivative operator"),
        (("--format",), "format", str, ("text", "json"), "text", None),
        _OUT,
    )),
}


def build_parser():
    """The argparse parser of the option table, which reads every command line
    the fast path of `parse_args` leaves, and prints usage, errors and help."""
    import argparse

    parser = argparse.ArgumentParser(prog="liukit", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, about, rows) in COMMANDS.items():
        command = sub.add_parser(name, help=about)
        for names, dest, kind, choices, default, text in rows:
            if names[0][0] != "-":
                command.add_argument(dest, nargs="?", help=text)
            elif kind is bool:
                command.add_argument(*names, dest=dest, action="store_true", help=text)
            else:
                command.add_argument(*names, dest=dest, type=kind, choices=choices, default=default,
                                     required=default is REQUIRED, help=text)
    return parser


def _read_common(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a command line in the common forms, or None.

    Those are a command, then exact option names, each option that takes a
    value followed by a valid one that does not start with `-`, and one run
    of at most as many positionals as the command has, with every required
    option given.  Every argparse release reads them as this does.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    rows = COMMANDS[argv[0]][2]
    options = {name: row for row in rows for name in row[0] if name[0] == "-"}
    slots = [row[1] for row in rows if row[0][0][0] != "-"]
    values = {row[1]: row[4] for row in rows}
    read = False  # whether the run of positionals has begun
    args = iter(argv[1:])
    for arg in args:
        row = options.get(arg)
        if row is None:
            if arg[:1] == "-" or not slots:
                return None
            values[slots.pop(0)] = arg
            read = True
            continue
        if read:
            slots = []  # an option ends the run
        if row[2] is bool:
            values[row[1]] = True
            continue
        text = next(args, "-")
        if text[:1] == "-":
            return None
        try:
            value = row[2](text)
        except ValueError:
            return None
        if row[3] is not None and value not in row[3]:
            return None
        values[row[1]] = value
    if REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **values)


def parse_args(argv: list[str]):
    """The command line as a namespace of `command` and the command's dests.

    Argparse reads whatever `_read_common` does not: a usage error prints the
    usage and `liukit[ CMD]: error: MSG` to stderr and raises SystemExit(2), and
    -h/--help prints help and raises SystemExit(0).
    """
    return _read_common(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args.command][0](args)
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


def run() -> None:
    """The program's entry point: `main`, then exit with its status.

    The process ends next, and finalization would otherwise collect and free
    the import-time heap of modules, functions and classes that the OS
    reclaims anyway.  `main` leaves the heap alone: tests call it in process.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
