"""Usage lines and help of the command line, built from `cli.COMMANDS`.

`liukit.cli` imports this module only to print a usage error or help, so a
run whose arguments parse does not compile it.  The text is laid out as
argparse lays it out, at the terminal's width less 2 (`COLUMNS`, else 80
off a terminal): the usage wrapped as argparse wraps it, and each help
entry's text in a column at most 24 characters in.
"""
from __future__ import annotations

import shutil
import sys
import textwrap

from .cli import _HELP, COMMANDS, DESCRIPTION, REQUIRED


def _invocation(row, name: str) -> str:
    """`name` as usage and help show it: with its metavar when it takes a value."""
    dest, kind, choices = row[1:4]
    if kind is bool or name[0] != "-":
        return name
    return name + " " + ("{" + ",".join(choices) + "}" if choices else dest.upper())


def _parts(command: str | None) -> tuple[list[str], list[str]]:
    """The usage's option and positional parts, split where argparse may wrap them."""
    if command is None:
        return ["[-h]"], ["{" + ",".join(COMMANDS) + "}", "..."]
    options, positionals = ["[-h]"], []
    for row in COMMANDS[command][2]:
        text = _invocation(row, row[0][0])
        if row[0][0][0] != "-":
            positionals.append(f"[{text}]")
        elif row[4] is REQUIRED:
            options += text.split()
        else:
            options.append(f"[{text}]")
    return options, positionals


def _lines(parts: list[str], indent: str, width: int, prefix: str | None = None) -> list[str]:
    """`parts` joined by spaces into lines of at most `width`, each led by
    `indent`; the first line follows `prefix` instead when one is given."""
    lines: list[str] = []
    line: list[str] = []
    length = len(indent if prefix is None else prefix) - 1
    for part in parts:
        if length + 1 + len(part) > width and line:
            lines.append(indent + " ".join(line))
            line, length = [], len(indent) - 1
        line.append(part)
        length += len(part) + 1
    if line:
        lines.append(indent + " ".join(line))
    if prefix is not None:
        lines[0] = lines[0][len(indent):]
    return lines


def usage(command: str | None, width: int) -> str:
    prog = "liukit" if command is None else "liukit " + command
    options, positionals = _parts(command)
    prefix = "usage: "
    if len(prefix) + len(" ".join([prog, *options, *positionals])) <= width:
        return prefix + " ".join([prog, *options, *positionals])
    if len(prefix) + len(prog) <= 0.75 * width:
        indent = " " * (len(prefix) + len(prog) + 1)
        lines = _lines([prog, *options], indent, width, prefix) + _lines(positionals, indent, width)
    else:
        indent = " " * len(prefix)
        lines = _lines(options + positionals, indent, width)
        if len(lines) > 1:
            lines = _lines(options, indent, width) + _lines(positionals, indent, width)
        lines = [prog, *lines]
    return prefix + "\n".join(lines)


def fail(command: str | None, message: str):
    """Print the usage and `liukit[ CMD]: error: MESSAGE` to stderr, and exit 2."""
    prog = "liukit" if command is None else "liukit " + command
    sys.stderr.write(f"{usage(command, shutil.get_terminal_size().columns - 2)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def show_help(command: str | None):
    """Print the usage, the arguments and their help, and exit 0; the top
    level also prints the description and each command's help."""
    width = shutil.get_terminal_size().columns - 2
    blocks = [usage(command, width)]
    if command is None:
        blocks.append(textwrap.fill(DESCRIPTION, max(width, 11)))
        positionals = [("{" + ",".join(COMMANDS) + "}", None, 2)]
        positionals += [(name, text, 4) for name, (_, text, _) in COMMANDS.items()]
        options = [_HELP]
    else:
        rows = COMMANDS[command][2]
        positionals = [(row[1], row[5], 2) for row in rows if row[0][0][0] != "-"]
        options = [_HELP, *(row for row in rows if row[0][0][0] == "-")]
    sections = (
        ("positional arguments", positionals),
        ("options", [(", ".join(_invocation(row, name) for name in row[0]), row[5], 2) for row in options]),
    )
    entries = positionals + sections[1][1]
    column = min(max(len(head) + indent for head, _, indent in entries) + 2, min(24, max(width - 20, 4)))
    for title, section in sections:
        if not section:
            continue
        lines = [title + ":"]
        for head, text, indent in section:
            if not text:
                lines.append(" " * indent + head)
                continue
            wrapped = textwrap.wrap(text, max(width - column, 11))
            if len(head) <= column - indent - 2:
                lines.append(" " * indent + head.ljust(column - indent - 2) + "  " + wrapped[0])
            else:
                lines += [" " * indent + head, " " * column + wrapped[0]]
            lines += [" " * column + line for line in wrapped[1:]]
        blocks.append("\n".join(lines))
    sys.stdout.write("\n\n".join(blocks) + "\n")
    raise SystemExit(0)
