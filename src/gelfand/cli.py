"""Command line surface for the involution-module toolkit.

Conventions shared by every subcommand:
  - tabular commands print TSV and switch to JSON with --json; rs and
    model commands print JSON always
  - every JSON document leads with a schema version field
  - exact values render in cyclotomic monomial form
  - exit status 0 on success, 1 when a verification reports failure, 2
    on usage errors and resource-guard violations, 3 when an internal
    consistency check fails, 141 (128 + SIGPIPE) when the reader closes
    stdout before the output is written

For involutions and model subcommands, --r/--p/--q/--n describe the
group whose absolute involutions span the module; that module is a
representation of the dual group, obtained by exchanging p and q in
_acting_group alone.

Each subcommand is one row of _COMMANDS, its help, flags and handler,
and it imports the library modules it runs when it runs, so --help and
usage errors load none of them.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii
from math import gcd

from .errors import (
    ENUMERATION_GUARD,
    InconsistencyError,
    ResourceLimitError,
    UnsupportedGroupError,
)

SCHEMA = 1
# Least characters per stdout write, the last write excepted.  A block
# holds its chunks until it is joined, and a chunk is at most one list of
# strings, so 16 KiB keeps a block small and 1 MB of JSON still takes 60
# writes.
BLOCK = 1 << 14
# the --help description of the involutions and model subcommands
_BASIS_GROUP_HELP = (
    "--r --p --q --n name the basis group G(r,p,q,n), whose absolute "
    "involutions span the model; the group acting on it is the dual "
    "G(r,q,p,n), which exchanges p and q"
)


def _resolve_max_order(args) -> int:
    if args.max_group_order is not None:
        value, source = args.max_group_order, "--max-group-order"
    else:
        env = os.environ.get("MODEL_MAX_ORDER")
        if env is None:
            return ENUMERATION_GUARD
        try:
            value, source = int(env), "MODEL_MAX_ORDER"
        except ValueError:
            raise ValueError("MODEL_MAX_ORDER must be an integer, got %r" % env)
    if value < 1:
        raise ValueError("%s must be a positive integer, got %d" % (source, value))
    return value


def _write_blocks(chunks) -> None:
    """Write the chunks to stdout joined into blocks of at least BLOCK
    characters, the last excepted: one write per block, never the whole
    document at once.  Under PYTHONUNBUFFERED stdout writes through, so
    each write is a system call.

    The final flush makes a closed reader raise BrokenPipeError here, for
    main to report; the process's own stdout then goes to os.devnull, or
    the interpreter's flush at exit would report it again.  A stream that
    a caller put in place is left as it is."""
    stdout = sys.stdout
    block = []
    size = 0
    try:
        for chunk in chunks:
            block.append(chunk)
            size += len(chunk)
            if size >= BLOCK:
                stdout.write("".join(block))
                block.clear()
                size = 0
        if block:
            stdout.write("".join(block))
        stdout.flush()
    except BrokenPipeError:
        if stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, stdout.fileno())
            finally:
                os.close(devnull)
        raise


def _emit_rows(rows) -> None:
    _write_blocks("\t".join(str(cell) for cell in row) + "\n" for row in rows)


def _json_chunks(value, indent: str = "\n"):
    """The text of json.dumps(value, indent=2), in chunks, for nested dicts
    with str keys, lists and tuples of str, int, bool and None.

    A list whose items are all strings is one chunk, joined at once;
    strings and ints render through json's own functions.  (json's encoder
    walks in Python too once indent is set, one chunk per item.)"""
    if isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = indent + "  "
        if set(map(type, value)) == {str}:
            separator = "," + inner
            yield "[" + inner + separator.join(map(encode_basestring_ascii, value))
        else:
            separator = "["
            for item in value:
                yield separator + inner
                yield from _json_chunks(item, inner)
                separator = ","
        yield indent + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = indent + "  "
        separator = "{"
        for key, item in value.items():
            yield separator + inner + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(item, inner)
            separator = ","
        yield indent + "}"
    elif isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None:
        yield "null"
    elif isinstance(value, bool):
        yield "true" if value else "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    else:
        raise TypeError("cannot write %s as JSON" % type(value).__name__)


def _emit_json(payload) -> None:
    # the schema field leads every document
    document = {"schema": SCHEMA, **payload}
    _write_blocks(itertools.chain(_json_chunks(document), ("\n",)))


def _group_dict(r, p, q, n) -> dict:
    return {"r": r, "p": p, "q": q, "n": n}


def _cmd_group_info(args) -> int:
    from .characters import irreducible_count
    from .colored import group_order

    order = group_order(args.r, args.p, args.q, args.n)
    # for any finite group these two counts agree; both come from labels
    count = irreducible_count(args.r, args.p, args.q, args.n)
    rows = (("order", order), ("classes", count), ("irreducibles", count))
    if args.json:
        _emit_json(
            {
                "group": _group_dict(args.r, args.p, args.q, args.n),
                **dict(rows),
            }
        )
    else:
        _emit_rows(rows)
    return 0


def _acting_group(args) -> tuple[int, int, int, int]:
    """Check --r --p --q --n as the basis group, so that an error names the
    flag typed, and return the group acting on its involutions: the dual,
    with p and q exchanged.  The model commands also refuse an acting group
    with GCD(p,n) > 2 here, where its p is the basis group's q."""
    from .colored import check_group_parameters

    check_group_parameters(args.r, args.p, args.q, args.n)
    if args.command == "model" and gcd(args.q, args.n) not in (1, 2):
        raise UnsupportedGroupError(
            "only groups with GCD(q,n) in {1,2} are supported, got %d"
            % gcd(args.q, args.n)
        )
    return args.r, args.q, args.p, args.n


def _involution_classes(args):
    from .classes import enumerate_involution_classes

    return enumerate_involution_classes(*_acting_group(args), _resolve_max_order(args))


def _cmd_involutions_list(args) -> int:
    classes = _involution_classes(args)
    if args.json:
        _emit_json(
            {
                "group": _group_dict(args.r, args.p, args.q, args.n),
                "classes": [
                    {
                        "type": str(ctype),
                        "size": len(members),
                        "members": [v.rep.window_str() for v in members],
                    }
                    for ctype, members in classes
                ],
                "dimension": sum(len(members) for _, members in classes),
            }
        )
    else:
        _emit_rows(
            (v.rep.window_str(), str(ctype))
            for ctype, members in classes
            for v in members
        )
    return 0


def _cmd_involutions_types(args) -> int:
    from .classes import predicted_shapes

    rows = (
        (str(ctype), len(members), [str(o) for o in sorted(predicted_shapes(ctype))])
        for ctype, members in _involution_classes(args)
    )
    if args.json:
        _emit_json(
            {
                "group": _group_dict(args.r, args.p, args.q, args.n),
                "types": [
                    dict(zip(("type", "size", "predicted"), row)) for row in rows
                ],
            }
        )
    else:
        _emit_rows((ctype, size, " ".join(shapes)) for ctype, size, shapes in rows)
    return 0


def _cmd_rs_apply(args) -> int:
    from .colored import parse_window
    from .rs import rs
    from .shapes import multitableau_json, multitableau_shape, shape_str

    g = parse_window(args.window, args.r)
    p_tab, q_tab = rs(g)
    _emit_json(
        {
            "r": args.r,
            "window": g.window_str(),
            "p": multitableau_json(p_tab),
            "q": multitableau_json(q_tab),
            "shape": shape_str(multitableau_shape(p_tab)),
        }
    )
    return 0


def _cmd_classes_list(args) -> int:
    from .classes import class_sizes, enumerate_classes, normal_element

    labels = enumerate_classes(args.r, args.p, args.n)
    rows = (
        (str(label), size, normal_element(label).window_str())
        for label, size in zip(labels, class_sizes(args.r, args.p, args.n))
    )
    if args.json:
        _emit_json(
            {
                "group": {"r": args.r, "p": args.p, "n": args.n},
                "classes": [
                    dict(zip(("label", "size", "normal"), row)) for row in rows
                ],
            }
        )
    else:
        _emit_rows(rows)
    return 0


def _cmd_chartable(args) -> int:
    from .characters import character_table, label_degree
    from .classes import class_sizes, enumerate_classes

    table = character_table(args.r, args.p, args.q, args.n)
    labels = enumerate_classes(args.r, args.p, args.n)
    sizes = class_sizes(args.r, args.p, args.n)
    # the table shares one value object per distinct value: render each
    # once, in one pass over the cells that looks them up by id; a row goes
    # over its cells again only when it meets a value for the first time
    text: dict = {}  # id(value) -> str(value); the table keeps the values alive
    rendered = []
    for _, row in table:
        strings = list(map(text.get, map(id, row.values)))
        if None in strings:
            for j, value in enumerate(row.values):
                if strings[j] is None:
                    if id(value) not in text:
                        text[id(value)] = str(value)
                    strings[j] = text[id(value)]
        rendered.append(strings)
    if args.json:
        _emit_json(
            {
                "group": _group_dict(args.r, args.p, args.q, args.n),
                "classes": [
                    {"label": str(c), "size": size} for c, size in zip(labels, sizes)
                ],
                "rows": [
                    {
                        "label": str(row_label),
                        "degree": label_degree(row_label),
                        "values": values,
                    }
                    for (row_label, _), values in zip(table, rendered)
                ],
            }
        )
    else:
        rows = [
            ("class",) + tuple(str(c) for c in labels),
            ("size",) + sizes,
        ]
        rows += [
            (str(row_label),) + tuple(values)
            for (row_label, _), values in zip(table, rendered)
        ]
        _emit_rows(rows)
    return 0


def _cmd_model_decompose(args) -> int:
    from .classes import InvolutionClassType
    from .model import verify_class_decomposition

    r, p, q, n = _acting_group(args)
    only = None
    if args.cls is not None:
        only = InvolutionClassType.parse(args.cls, r, p)
    report = verify_class_decomposition(
        r, p, q, n, max_order=_resolve_max_order(args), only=only
    )
    _emit_json(report.to_json())
    return 0 if report.passed else 1


def _cmd_model_gelfand_check(args) -> int:
    from .characters import label_degree
    from .model import _group_pair, gelfand_check

    acting = _acting_group(args)
    rows, passed = gelfand_check(*acting, _resolve_max_order(args))
    _emit_json(
        {
            **_group_pair(*acting),
            "irreducibles": [
                {
                    "label": str(label),
                    "degree": label_degree(label),
                    "multiplicity": mult,
                }
                for label, mult in rows
            ],
            "pass": passed,
        }
    )
    return 0 if passed else 1


def _flag(*names, **options) -> tuple:
    """One argument of a parser: the arguments of its add_argument call."""
    return names, options


# the flag sets of the subcommand table
_GROUP = (
    _flag("--r", type=int, required=True, help="color order"),
    _flag("--p", type=int, required=True, help="color-sum divisor"),
    _flag("--q", type=int, required=True, help="scalar quotient order"),
    _flag("--n", type=int, required=True, help="number of letters"),
)
_GROUP_WITHOUT_Q = _GROUP[:2] + _GROUP[3:]
_GUARD = (
    _flag(
        "--max-group-order",
        type=int,
        default=None,
        help="enumeration guard on r^n*n! (default %d, or MODEL_MAX_ORDER)"
        % ENUMERATION_GUARD,
    ),
)
_JSON = (_flag("--json", action="store_true"),)
_CLASS = (
    _flag(
        "--class",
        dest="cls",
        default=None,
        help="restrict to one class type, e.g. 'sym[1,1;1,1]'",
    ),
)
_WINDOW = (_flag("window", help="window notation, e.g. [2^0,1^1]"), _GROUP[0])

# One row per command path, in help order: its words, help, description,
# flags and handler.  A row without a handler holds the subcommands of
# the rows whose words extend its own.
_COMMANDS = (
    ("group", "group-level facts", None, (), None),
    ("group info", "order, class count and irreducible count", None,
     _GROUP + _JSON, _cmd_group_info),
    ("involutions", "absolute involutions of G(r,p,q,n) and their class types",
     None, (), None),
    ("involutions list", "one row per involution", _BASIS_GROUP_HELP,
     _GROUP + _GUARD + _JSON, _cmd_involutions_list),
    ("involutions types", "one row per class type, with predicted shapes",
     _BASIS_GROUP_HELP, _GROUP + _GUARD + _JSON, _cmd_involutions_types),
    ("rs", "insertion correspondence", None, (), None),
    ("rs apply", "insert a window, print the tableau pair as JSON", None,
     _WINDOW, _cmd_rs_apply),
    ("classes", "conjugacy classes of G(r,p,n)", None, (), None),
    ("classes list", "label, size and canonical representative per class",
     None, _GROUP_WITHOUT_Q + _JSON, _cmd_classes_list),
    ("chartable", "exact irreducible character table of G(r,p,q,n)", None,
     _GROUP + _JSON, _cmd_chartable),
    ("model", "build the involution module and verify its decomposition",
     None, (), None),
    ("model decompose", "per-class-type decomposition report, checked against "
     "the predicted constituents", _BASIS_GROUP_HELP, _GROUP + _GUARD + _CLASS,
     _cmd_model_decompose),
    ("model gelfand-check", "multiplicity of every irreducible in the full "
     "module", _BASIS_GROUP_HELP, _GROUP + _GUARD, _cmd_model_gelfand_check),
)


class _Parser(argparse.ArgumentParser):
    """A parser, its subparsers too, whose help goes to stdout through
    _write_blocks: argparse's own write swallows a BrokenPipeError."""

    def print_help(self, file=None) -> None:
        if file is None:
            _write_blocks((self.format_help(),))
        else:
            super().print_help(file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gelfand",
        description="exact involution-module computations for complex "
        "reflection groups G(r,p,q,n)",
    )
    # the subcommand action of each row that holds subcommands, by its words
    holders = {"": parser.add_subparsers(dest="command", required=True)}
    for words, summary, description, flags, handler in _COMMANDS:
        above, _, name = words.rpartition(" ")
        cmd = holders[above].add_parser(name, help=summary, description=description)
        for names, options in flags:
            cmd.add_argument(*names, **options)
        if handler is None:
            holders[words] = cmd.add_subparsers(dest="subcommand", required=True)
        else:
            cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        # argparse has written help or usage
        return exc.code if isinstance(exc.code, int) else 2
    except (UnsupportedGroupError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print("inconsistency: %s" % exc, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout: end as a shell reports a writer that
        # SIGPIPE stopped, 128 + 13, with nothing on stderr
        return 141


if __name__ == "__main__":
    sys.exit(main())
