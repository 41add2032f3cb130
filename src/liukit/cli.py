"""Command line interface.

Exit codes: 0 success, 1 input could not be read or parsed or --out could not
be written, 2 the input parsed but failed validation, 3 an engine invariant
failed, 4 a candidate check failed.
"""
from __future__ import annotations

import gc
import os
import re
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
# the solution grammar.  `parse_args` reads the command line from the option
# table `COMMANDS` as argparse would, without importing argparse and the
# gettext and locale modules it loads; `liukit._usage` formats usage and help
# from the same table, and is imported only to print them.

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
_HELP = (("-h", "--help"), "help", bool, None, False, "show this help message and exit")

# Each subcommand's handler, help and options, one row per option: its names,
# dest, type (bool for a flag), choices, default and help.  A name without
# dashes is a positional that may be left out.  `parse_args` reads the rows,
# and tests/test_cli.py builds an argparse parser from them to compare with.
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
_COMMAND = (("command",), "command", str, tuple(COMMANDS), REQUIRED, None)


def _fail(command: str | None, message: str):
    from ._usage import fail  # usage text is built only to be printed

    fail(command, message)


def _option(command: str | None, options: dict, arg: str):
    """How argparse reads `arg`: (row, name, explicit value) for an option,
    (None, arg, None) for an unknown one, None for a positional."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    if arg in options:
        return options[arg], arg, None
    name, eq, explicit = arg.partition("=")
    if eq and name in options:
        return options[name], name, explicit
    if arg[1] == "-":
        # A unique prefix of a long option names it; an exact name won above.
        hits = [o for o in options if o.startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return options[hits[0]], hits[0], explicit if eq else None
    elif arg[1] == "h":
        return _HELP, "-h", arg[2:]
    if " " in arg or re.fullmatch(r"-\d+|-\d*\.\d+", arg):
        return None
    return None, arg, None


def _value(command: str | None, row, text: str):
    names, _, kind, choices = row[:4]
    try:
        value = kind(text)
    except ValueError:
        _fail(command, f"argument {'/'.join(names)}: invalid {kind.__name__} value: {text!r}")
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        _fail(command, f"argument {'/'.join(names)}: invalid choice: {value!r} (choose from {listed})")
    return value


def _scan(command: str | None, rows, argv: list[str]) -> tuple[dict, list[str]]:
    """The values of `rows` in `argv` by dest, and the arguments left unrecognized.

    As argparse reads them: every argument is classified before any is
    consumed, the first run of positional arguments fills the positionals,
    and what follows `--` is positional.
    """
    options = {name: row for row in (_HELP, *rows) for name in row[0] if name[0] == "-"}
    positionals = [row[1] for row in rows if row[0][0][0] != "-"]
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(command, options, arg) for arg in argv[:end]] + [None] * (len(argv) - end - 1)
    argv = argv[:end] + argv[end + 1:]
    values = {row[1]: row[4] for row in rows}
    extras: list[str] = []
    i = 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if kind is None:
            if positionals:
                values[positionals.pop(0)] = arg
            else:
                extras.append(arg)
            if i < len(argv) and kinds[i] is not None:
                positionals = []  # the run ended
            continue
        row, name, explicit = kind
        if row is None:
            extras.append(name)
        elif row[2] is bool:
            if explicit is not None:
                _fail(command, f"argument {'/'.join(row[0])}: ignored explicit argument {explicit!r}")
            if row is _HELP:
                from ._usage import show_help

                show_help(command)
            values[row[1]] = True
        else:
            if explicit is None:
                if i == len(argv) or kinds[i] is not None:
                    _fail(command, f"argument {'/'.join(row[0])}: expected one argument")
                explicit = argv[i]
                i += 1
            values[row[1]] = _value(command, row, explicit)
    missing = ["/".join(row[0]) for row in rows if values[row[1]] is REQUIRED]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    return values, extras


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line as a namespace of `command` and the command's dests.

    A usage error prints the usage and `liukit[ CMD]: error: MSG` to stderr
    and raises SystemExit(2); -h/--help prints help and raises SystemExit(0).
    """
    argv = list(argv)
    top = {"-h": _HELP, "--help": _HELP}
    i = next((i for i, arg in enumerate(argv) if _option(None, top, arg) is None), len(argv))
    _, extras = _scan(None, (), argv[:i])
    if i == len(argv):
        _fail(None, "the following arguments are required: command")
    command = _value(None, _COMMAND, argv[i])
    values, more = _scan(command, COMMANDS[command][2], argv[i + 1:])
    if extras + more:
        _fail(None, "unrecognized arguments: " + " ".join(extras + more))
    return SimpleNamespace(command=command, **values)


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
