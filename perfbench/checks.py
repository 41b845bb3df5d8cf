"""Output checks.  An op whose output fails its check counts as failed.

The closed-form references here are written from the paper's formulas with
plain Fractions and share no code with the library.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import accumulate


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- nash ---------------------------------------------------------------------


def nash_digest(report_json: dict) -> str:
    """Digest of a Nash report with its timing fields removed."""
    data = dict(report_json)
    data.pop("elapsed_seconds", None)
    data["subsets"] = [
        {key: value for key, value in subset.items() if key != "seconds"}
        for subset in data["subsets"]
    ]
    return digest(data)


def check_nash(report_json: dict, golden: str) -> list:
    problems = []
    if report_json.get("passed") is not True:
        problems.append("report did not pass")
    if nash_digest(report_json) != golden:
        problems.append("report differs from the golden digest")
    return problems


# -- straighten ---------------------------------------------------------------


def content(rows, m: int) -> list:
    """Multiplicity of each value 1..m in a tableau's rows."""
    counts = [0] * m
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return counts


def _standard(rows) -> bool:
    if any(a >= b for row in rows for a, b in zip(row, row[1:])):
        return False
    return all(
        upper[c] <= lower[c]
        for upper, lower in zip(rows, rows[1:])
        for c in range(len(lower))
    )


def check_straighten(op: dict, dt, expansion, bideterminant) -> list:
    """The expansion re-expands to the input's bideterminant, every term is
    standard, and both contents are preserved."""
    m = op["m"]
    problems = []
    left_content, right_content = content(op["left"], m), content(op["right"], m)
    for _, term in expansion:
        if not (_standard(term.left.rows) and _standard(term.right.rows)):
            problems.append(f"nonstandard term {term.to_json()}")
        if content(term.left.rows, m) != left_content or content(term.right.rows, m) != right_content:
            problems.append(f"content not preserved in {term.to_json()}")
    if expansion.to_poly(m) != bideterminant(dt, m):
        problems.append("expansion does not re-expand to the bideterminant")
    return problems


# -- queries ------------------------------------------------------------------


def padded(k: int, alphas) -> tuple:
    alphas = tuple(Fraction(a) for a in alphas)
    return alphas + (Fraction(0),) * (k - len(alphas))


def betas(m: int, k: int, alphas, count: int) -> list:
    """beta_j = (m - k) + (2j - 1) - (alpha_1 + ... + alpha_j), j = 1..count."""
    prefix = list(accumulate(padded(k, alphas), initial=Fraction(0)))
    return [Fraction(m - k + 2 * j - 1) - prefix[j] for j in range(1, count + 1)]


def first_violation(m: int, k: int, alphas, count: int):
    prefix = list(accumulate(padded(k, alphas), initial=Fraction(0)))
    for j in range(1, count + 1):
        if prefix[j] > m - k + 2 * j - 1:
            return j, prefix[j], Fraction(m - k + 2 * j - 1)
    return None


def mld_point(m: int, k: int, alphas, q: int) -> str:
    """q(m-k) + km - sum_{i<=k-q} (k-q-i+1) alpha_i, or -inf if not lc at rank q."""
    alphas = padded(k, alphas)
    if first_violation(m, k, alphas, k - q) is not None:
        return "-inf"
    correction = sum(((k - q - i + 1) * alphas[i - 1] for i in range(1, k - q + 1)), Fraction(0))
    return str(Fraction(q * (m - k) + k * m) - correction)


def mld_locus(m: int, k: int, alphas, j: int) -> str:
    """j(m-k+j) - sum_{i<=j} (j-i+1) alpha_i, or -inf if any prefix inequality fails."""
    alphas = padded(k, alphas)
    if first_violation(m, k, alphas, k) is not None:
        return "-inf"
    correction = sum(((j - i + 1) * alphas[i - 1] for i in range(1, j + 1)), Fraction(0))
    return str(Fraction(j * (m - k + j)) - correction)


def _options(argv: list) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv)) if argv[i].startswith("--")}


def _alphas(opts: dict) -> tuple:
    text = opts.get("alphas", "").strip()
    return tuple(Fraction(a) for a in text.split(",")) if text else ()


def check_query(argv: list, code: int, stdout: str) -> list:
    """Exit 0 and valid JSON, plus the command's own semantic check."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    opts = _options(argv)
    m, k = int(opts.get("m", 0)), int(opts.get("k", 0))
    command = tuple(argv[:2]) if argv[0] in ("mld", "lc") else (argv[0],)
    problems = []
    if command == ("mld", "point") or command == ("mld", "locus"):
        alphas = _alphas(opts)
        if command == ("mld", "point"):
            q = int(opts["q"])
            count, expected = k - q, mld_point(m, k, alphas, q)
        else:
            count, expected = k, mld_locus(m, k, alphas, int(opts["j"]))
        bs = betas(m, k, alphas, count)
        if out["mld"] != expected:
            problems.append(f"mld {out['mld']} != reference {expected}")
        if out["beta"] != [str(b) for b in bs]:
            problems.append("beta vector differs from the reference")
        if "oracle" in opts:
            if all(b >= 0 for b in bs) and out["agree"] is not True:
                problems.append("oracle disagrees although every beta_j >= 0")
            if any(s < 0 for s in accumulate(bs)):
                if not (out["oracle"]["minimum"] == "-inf" and out["oracle"]["prefix_unbounded"]
                        and out["mld"] == "-inf"):
                    problems.append("negative beta prefix sum but the answer is not -inf/unbounded")
    elif command == ("lc", "check"):
        alphas = _alphas(opts)
        count = k - int(opts["q"]) if "q" in opts else k
        violation = first_violation(m, k, alphas, count)
        expected = None if violation is None else {
            "prefix": violation[0], "lhs": str(violation[1]), "rhs": str(violation[2])}
        if out["lc"] != (violation is None) or out["violated"] != expected:
            problems.append("lc check differs from the reference")
    elif command == ("semicontinuity",):
        alphas = padded(k, _alphas(opts))
        profile = [mld_point(m, k, alphas, q) for q in range(k + 1)]
        if out["profile"] != profile:
            problems.append("profile differs from the reference")
        differences = [
            None if "-inf" in (lo, hi) else str(Fraction(hi) - Fraction(lo))
            for lo, hi in zip(profile, profile[1:])
        ]
        identity = all(
            d is None or Fraction(d) == (m - k) + sum(alphas[: k - q + 1])
            for q, d in enumerate(differences, start=1)
        )
        if out["differences"] != differences or out["difference_identity"] != identity:
            problems.append("profile differences differ from the reference")
    elif command == ("ord",):
        lam = sorted(int(v) for v in opts["lambda"].split(","))
        expected = sum(lam[: int(opts["s"])])
        if out["order"] != expected:
            problems.append(f"order {out['order']} != sum of the s smallest entries {expected}")
    else:
        problems.append(f"no check for {argv[:2]}")
    return problems
