"""Command-line front end: every computation, JSON on stdout.

Exit codes: 0 on success (negative-infinity results are data, not errors),
1 when a library precondition rejects the input or the reader closes stdout
before the output is written (quietly, with no traceback), 2 on argument
errors.
Rational values are emitted as strings "p/q" to avoid precision loss;
negative infinity serializes as "-inf", infinite partition entries as "inf".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from math import gcd
from typing import Optional

from .core import (
    INF,
    PreconditionError,
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


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pretty", action="store_true", help="render aligned tables")


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
    ws = [
        _entry_json(contact_order_subvariety(lam, pair, i))
        for i in range(1, pair.k + 1)
    ]
    out = {
        "m": pair.m,
        "k": pair.k,
        "lambda": lam.to_json(),
        "codim": orbit_codim(lam, pair),
        "w": ws,
        "nash": _entry_json(nash_contact_order(lam, pair)),
    }
    if args.q is not None:
        out["q"] = args.q
        out["codim_point"] = orbit_codim_point(lam, pair, args.q)
    return out


def _cmd_ord(args) -> dict:
    order = series_minor_order(
        _parse_lambda(args.lam), args.m, args.s, args.N, seed=args.seed
    )
    return {
        "m": args.m,
        "s": args.s,
        "N": args.N,
        "lambda": list(_parse_lambda(args.lam)),
        "order": "above_truncation" if order is ABOVE_TRUNCATION else order,
    }


def _cmd_straighten(args) -> dict:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand.

    It is built once per process, on the first call, and then reused:
    building it costs milliseconds, more than most queries.  Reuse is safe
    because ``parse_args`` returns a fresh namespace on every call.  It is
    not built at import time, so that importing the package stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="detmld",
        description="Exact minimal log discrepancies of determinantal pairs, with verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mld = sub.add_parser("mld", help="closed-form minimal log discrepancies")
    mld_sub = mld.add_subparsers(dest="subcommand", required=True)

    point = mld_sub.add_parser("point", help="mld at a matrix of given rank")
    point.add_argument("--m", type=int, required=True)
    point.add_argument("--k", type=int, required=True)
    point.add_argument("--alphas", type=str, required=True)
    point.add_argument("--q", type=int, required=True)
    point.add_argument("--oracle", type=int, default=None, metavar="L")
    _common_options(point)
    point.set_defaults(func=_cmd_mld_point)

    locus = mld_sub.add_parser("locus", help="mld along a determinantal sublocus")
    locus.add_argument("--m", type=int, required=True)
    locus.add_argument("--k", type=int, required=True)
    locus.add_argument("--alphas", type=str, required=True)
    locus.add_argument("--j", type=int, required=True)
    locus.add_argument("--oracle", type=int, default=None, metavar="L")
    _common_options(locus)
    locus.set_defaults(func=_cmd_mld_locus)

    lc = sub.add_parser("lc", help="log-canonicity criteria")
    lc_sub = lc.add_subparsers(dest="subcommand", required=True)
    check = lc_sub.add_parser("check", help="check the prefix inequalities")
    check.add_argument("--m", type=int, required=True)
    check.add_argument("--k", type=int, required=True)
    check.add_argument("--alphas", type=str, required=True)
    check.add_argument("--q", type=int, default=None)
    check.add_argument("--j", type=int, default=None)
    _common_options(check)
    check.set_defaults(func=_cmd_lc_check)

    orbit = sub.add_parser("orbit", help="orbit invariants in the arc space")
    orbit_sub = orbit.add_subparsers(dest="subcommand", required=True)
    codim = orbit_sub.add_parser("codim", help="codimension and contact orders")
    codim.add_argument("--m", type=int, required=True)
    codim.add_argument("--k", type=int, required=True)
    codim.add_argument("--lambda", dest="lam", type=str, required=True)
    codim.add_argument("--q", type=int, default=None)
    _common_options(codim)
    codim.set_defaults(func=_cmd_orbit_codim)

    ordp = sub.add_parser("ord", help="power-series contact-order oracle")
    ordp.add_argument("--lambda", dest="lam", type=str, required=True)
    ordp.add_argument("--m", type=int, required=True)
    ordp.add_argument("--s", type=int, required=True)
    ordp.add_argument("--N", type=int, required=True)
    ordp.add_argument("--seed", type=int, default=None, help="conjugate by seeded random invertible matrices")
    _common_options(ordp)
    ordp.set_defaults(func=_cmd_ord)

    st = sub.add_parser("straighten", help="standard-basis expansion of a double tableau")
    st.add_argument("--file", type=str, required=True)
    st.add_argument("--kbound", type=int, default=None)
    _common_options(st)
    st.set_defaults(func=_cmd_straighten)

    nash = sub.add_parser("nash", help="Nash-ideal verification")
    nash_sub = nash.add_subparsers(dest="subcommand", required=True)
    nv = nash_sub.add_parser("verify", help="exhaustive top-form reduction report")
    nv.add_argument("--m", type=int, required=True)
    nv.add_argument("--k", type=int, required=True)
    _common_options(nv)
    nv.set_defaults(func=_cmd_nash_verify)

    semi = sub.add_parser("semicontinuity", help="rank-indexed mld profile")
    semi.add_argument("--m", type=int, required=True)
    semi.add_argument("--k", type=int, required=True)
    semi.add_argument("--alphas", type=str, required=True)
    _common_options(semi)
    semi.set_defaults(func=_cmd_semicontinuity)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse reads `--opt=--` as an empty list up to Python 3.12 and
        # as a two-line usage error from 3.13, so it is rejected here.
        for token in argv:
            if token.startswith("--") and token.endswith("=--"):
                raise _InputError(f"option {token[:-3]!r} needs a value, got '--'")
        args = parser.parse_args(argv)
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
