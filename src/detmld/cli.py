"""Command-line front end: every computation, JSON on stdout.

Exit codes: 0 on success (negative-infinity results are data, not errors),
1 when a library precondition rejects the input or the reader closes stdout
before the output is written (quietly, with no traceback), 2 on argument
errors.
Rational values are emitted as strings "p/q" to avoid precision loss;
negative infinity serializes as "-inf", infinite partition entries as "inf".

The commands and their options are declared once, in ``_COMMANDS``.  A
canonical argv (exact command words, then exact long flags each followed by
a value) is parsed straight from that table; every other argv, help and
errors included, goes whole to the argparse parser built from the same
table.  argparse is imported only on that second route.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from math import gcd
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .core import (
    INF,
    PreconditionError,
    _check_printable,
    format_rational,
    new_pair,
    new_partition,
    parse_rational,
)
from .forms import verify_nash
from .mld import (
    beta_coefficients,
    first_lc_violation,
    mld_along,
    mld_at_rank,
    scaled_semicontinuity_profile,
)
from .oracle import (
    ABOVE_TRUNCATION,
    LocusTarget,
    PointTarget,
    _validate_target,
    compare_with_closed_form,
    series_minor_order,
)
from .orbits import (
    contact_order_subvariety,
    nash_contact_order,
    orbit_codim,
    orbit_codim_point,
)
from .tableaux import DoubleTableau, straighten


class _InputError(Exception):
    """Malformed command-line input; reported as one error line, exit code 2."""


def _parse_alphas(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except PreconditionError:
        raise _InputError(f"--alphas takes comma-separated rationals p or p/q, got {text!r}") from None


def _parse_lambda(text: str) -> tuple:
    try:
        return tuple(INF if part.strip().lower() == "inf" else int(part) for part in text.split(","))
    except ValueError:
        raise _InputError(f"--lambda takes comma-separated integers or inf, got {text!r}") from None


def _entry_json(value):
    return "inf" if value is INF else value


def _render_pretty(data, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(data, dict):
        lines = []
        width = max((len(str(k)) for k in data), default=0)
        for key, value in data.items():
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(_render_pretty(value, indent + 2))
            else:
                rendered = json.dumps(value) if not isinstance(value, str) else value
                lines.append(f"{pad}{str(key).ljust(width)}  {rendered}")
        return "\n".join(lines)
    if isinstance(data, list):
        # A dict or nested list item opens with a "-" line; a scalar or a
        # list of scalars is one line of JSON.
        lines = []
        for item in data:
            if item and isinstance(item, (dict, list)) and not _is_scalar_list(item):
                lines += [f"{pad}-", _render_pretty(item, indent)]
            else:
                lines.append(f"{pad}{json.dumps(item)}")
        return "\n".join(lines)
    return f"{pad}{json.dumps(data)}"


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _emit(data: dict, pretty: bool) -> None:
    if pretty:
        print(_render_pretty(data))
    else:
        print(json.dumps(data))


def _mld_report(args, target) -> dict:
    """The closed-form mld at a point or locus target, with the oracle search
    when --oracle is given.

    The mld is negative infinity exactly when the pair is not log canonical
    there, so "lc" is read off it and the prefix inequalities are scanned once.
    """
    pair = new_pair(args.m, args.k, _parse_alphas(args.alphas))
    point = isinstance(target, PointTarget)
    comparison = None
    if args.oracle is not None:
        comparison = compare_with_closed_form(pair, target, args.oracle)
        value = comparison.closed_form
        betas = comparison.oracle.betas
    else:
        value = mld_at_rank(pair, target.q) if point else mld_along(pair, target.j)
        betas = beta_coefficients(pair, pair.k - target.q if point else pair.k)
    out = {
        "m": pair.m,
        "k": pair.k,
        "alphas": [format_rational(a) for a in pair.alphas],
        **({"q": target.q} if point else {"j": target.j}),
        "lc": value.is_finite,
        "mld": str(value),
        "beta": [format_rational(b) for b in betas],
    }
    if comparison is not None:
        out["oracle"] = comparison.oracle.to_json()
        out["oracle"]["L"] = args.oracle
        out["agree"] = comparison.agree
    return out


def _cmd_mld_point(args) -> dict:
    return _mld_report(args, PointTarget(args.q))


def _cmd_mld_locus(args) -> dict:
    return _mld_report(args, LocusTarget(args.j))


def _cmd_lc_check(args) -> dict:
    pair = new_pair(args.m, args.k, _parse_alphas(args.alphas))
    if (args.q is None) == (args.j is None):
        raise PreconditionError("provide exactly one of --q or --j")
    if args.q is not None:
        target, count, where = PointTarget(args.q), pair.k - args.q, {"q": args.q}
    else:
        target, count, where = LocusTarget(args.j), pair.k, {"j": args.j}
    _validate_target(pair, target)
    violation = first_lc_violation(pair, count)
    out = {"m": pair.m, "k": pair.k, **where, "lc": violation is None, "violated": None}
    if violation is not None:
        j, lhs, rhs = violation
        out["violated"] = {
            "prefix": j,
            "lhs": format_rational(lhs),
            "rhs": format_rational(rhs),
        }
    return out


def _cmd_orbit_codim(args) -> dict:
    pair = new_pair(args.m, args.k, ())
    lam = new_partition(_parse_lambda(args.lam))
    codim = orbit_codim(lam, pair)
    # The codimension bounds every entry, contact order and the Nash order,
    # and the codimension through a rank-q point exceeds it by q(2m - q) <= m**2.
    _check_printable(codim + pair.m**2, "partition entries too large: the orbit's values")
    ws = [
        _entry_json(contact_order_subvariety(lam, pair, i))
        for i in range(1, pair.k + 1)
    ]
    out = {
        "m": pair.m,
        "k": pair.k,
        "lambda": lam.to_json(),
        "codim": codim,
        "w": ws,
        "nash": _entry_json(nash_contact_order(lam, pair)),
    }
    if args.q is not None:
        out["q"] = args.q
        out["codim_point"] = orbit_codim_point(lam, pair, args.q)
    return out


def _cmd_ord(args) -> dict:
    lam = _parse_lambda(args.lam)
    order = series_minor_order(lam, args.m, args.s, args.N, seed=args.seed)
    return {
        "m": args.m,
        "s": args.s,
        "N": args.N,
        "lambda": list(lam),
        "order": "above_truncation" if order is ABOVE_TRUNCATION else order,
    }


def _cmd_straighten(args) -> dict:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep for the decoder
        raise _InputError(f"cannot read {args.file}: {exc}") from None
    try:
        dt = DoubleTableau.from_json(data)
    except (KeyError, TypeError):
        raise _InputError(
            f'{args.file} is not a double tableau: need an object with "left" and "right", '
            'each an object with "rows", a list of lists of integers'
        ) from None
    m = data.get("m")
    if m is None:
        m = max(dt.left.max_entry, dt.right.max_entry, 1)
    elif type(m) is not int:
        raise _InputError(f'{args.file}: "m" must be an integer, got {m!r}')
    expansion = straighten(dt, m, k_bound=args.kbound)
    return {
        "m": m,
        "kbound": args.kbound,
        "input": dt.to_json(),
        "terms": expansion.to_json(),
    }


def _cmd_nash_verify(args) -> dict:
    report = verify_nash(args.m, args.k)
    return report.to_json()


def _format_scaled(n: int, den: int) -> str:
    """n / den in lowest terms as format_rational writes it, with no Fraction."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _cmd_semicontinuity(args) -> dict:
    pair = new_pair(args.m, args.k, _parse_alphas(args.alphas))
    # In integers over the pair's denominator D, which the profile shares.
    den, profile = scaled_semicontinuity_profile(pair)
    base = pair.m - pair.k
    differences = []
    identity = True
    for q in range(1, pair.k + 1):
        lower, upper = profile[q - 1], profile[q]
        if lower is not None and upper is not None:
            diff = upper - lower
            # diff / D == base + alpha_prefix(k - q + 1)
            differences.append(_format_scaled(diff, den))
            identity = identity and diff == base * den + pair._scaled_prefix[pair.k - q + 1]
        else:
            differences.append(None)
    return {
        "m": pair.m,
        "k": pair.k,
        "alphas": [format_rational(a) for a in pair.alphas],
        "profile": ["-inf" if n is None else _format_scaled(n, den) for n in profile],
        "differences": differences,
        "difference_identity": identity,
    }


class _Option(NamedTuple):
    """One option of a command; an optional one reads None when left out."""

    flag: str
    dest: str
    type: type
    required: bool = True
    help: Optional[str] = None
    metavar: Optional[str] = None


_M, _K, _ALPHAS = _Option("--m", "m", int), _Option("--k", "k", int), _Option("--alphas", "alphas", str)
_LAMBDA = _Option("--lambda", "lam", str)
_ORACLE = _Option("--oracle", "oracle", int, False, metavar="L")
_GROUP_HELP = {
    "mld": "closed-form minimal log discrepancies",
    "lc": "log-canonicity criteria",
    "orbit": "orbit invariants in the arc space",
    "nash": "Nash-ideal verification",
}
# Every command, keyed by its words, in the order that help lists them:
# (handler, help, options).  Each command also takes --pretty.
_COMMANDS = {
    ("mld", "point"): (_cmd_mld_point, "mld at a matrix of given rank",
                       (_M, _K, _ALPHAS, _Option("--q", "q", int), _ORACLE)),
    ("mld", "locus"): (_cmd_mld_locus, "mld along a determinantal sublocus",
                       (_M, _K, _ALPHAS, _Option("--j", "j", int), _ORACLE)),
    ("lc", "check"): (_cmd_lc_check, "check the prefix inequalities",
                      (_M, _K, _ALPHAS, _Option("--q", "q", int, False), _Option("--j", "j", int, False))),
    ("orbit", "codim"): (_cmd_orbit_codim, "codimension and contact orders",
                         (_M, _K, _LAMBDA, _Option("--q", "q", int, False))),
    ("ord",): (_cmd_ord, "power-series contact-order oracle",
               (_LAMBDA, _M, _Option("--s", "s", int), _Option("--N", "N", int),
                _Option("--seed", "seed", int, False, help="conjugate by seeded random invertible matrices"))),
    ("straighten",): (_cmd_straighten, "standard-basis expansion of a double tableau",
                      (_Option("--file", "file", str), _Option("--kbound", "kbound", int, False))),
    ("nash", "verify"): (_cmd_nash_verify, "exhaustive top-form reduction report", (_M, _K)),
    ("semicontinuity",): (_cmd_semicontinuity, "rank-indexed mld profile", (_M, _K, _ALPHAS)),
}
# What the table route reads of each command: the handler, each option by
# its flag, the required dests, and the namespace of the others left out.
_TABLE = {
    words: (
        handler,
        {option.flag: option for option in options},
        frozenset(option.dest for option in options if option.required),
        {option.dest: None for option in options if not option.required},
    )
    for words, (handler, _, options) in _COMMANDS.items()
}


def _table_args(argv: list) -> Optional[SimpleNamespace]:
    """The namespace of a canonical argv, parsed from the command table, or
    None to hand the argv to the root parser.

    Canonical means: the exact command words, then each option as its exact
    long flag, given once, followed by a nonempty value that does not start
    with "-" and that the option's type accepts; --pretty at most once; and
    every required option present.  argparse reads the same values from
    such an argv, so both routes run the command alike.
    """
    words = tuple(argv[:2]) if argv[:1] and argv[0] in _GROUP_HELP else tuple(argv[:1])
    command = _TABLE.get(words)
    if command is None:
        return None
    handler, options, required, defaults = command
    values = {"func": handler, "pretty": False}
    tokens = iter(argv[len(words):])
    for token in tokens:
        if token == "--pretty" and not values["pretty"]:
            values["pretty"] = True
            continue
        option = options.get(token)
        value = next(tokens, "")
        if option is None or option.dest in values or not value or value[0] == "-":
            return None
        try:
            values[option.dest] = option.type(value)
        except ValueError:
            return None
    if not required <= values.keys():
        return None
    return SimpleNamespace(**{**defaults, **values})


@cache
def build_parser():
    """The root argparse parser, built from the command table with its help
    strings.

    ``main`` runs it on every argv that the table route hands over: help,
    errors, and any argv written another way than the canonical one.  It is
    built once per process, on the first such call, and reused; reuse is
    safe because ``parse_args`` returns a fresh namespace on every call.
    argparse is imported here, so that a canonical query never loads it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="detmld",
        description="Exact minimal log discrepancies of determinantal pairs, with verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (handler, help, options) in _COMMANDS.items():
        parent = sub
        if len(words) == 2:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUP_HELP[words[0]])
                groups[words[0]] = group.add_subparsers(dest="subcommand", required=True)
            parent = groups[words[0]]
        leaf = parent.add_parser(words[-1], help=help)
        for option in options:
            leaf.add_argument(
                option.flag, dest=option.dest, type=option.type, required=option.required,
                help=option.help, metavar=option.metavar,
            )
        leaf.add_argument("--pretty", action="store_true", help="render aligned tables")
        leaf.set_defaults(func=handler)
    return parser


def _root_args(argv: list):
    """The namespace of any argv, parsed whole by the root parser; argument
    errors and help exit through argparse."""
    # argparse reads `--opt=--` as an empty list up to Python 3.12 and as a
    # two-line usage error from 3.13, so it is rejected here.
    for token in argv:
        if token.startswith("--") and token.endswith("=--"):
            raise _InputError(f"option {token[:-3]!r} needs a value, got '--'")
    return build_parser().parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    """Run one command and return its exit code.

    A canonical argv (see ``_table_args``) is parsed from the command table;
    every other argv goes whole to the root parser, so that help, usage lines
    and error messages read as argparse writes them.
    """
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _table_args(argv)
        if args is None:
            args = _root_args(argv)
        out = args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(out, args.pretty)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
