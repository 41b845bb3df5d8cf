"""Run the exhaustive Nash-ideal verification for every (m, k) the guard
admits, m >= 2, and write the JSON reports.

Each line ends with the report's digest: the first 16 hex digits of the
sha256 of its sorted-key JSON without the timing fields ("elapsed_seconds"
and each subset's "seconds"), so two checkouts' outputs compare by eye.

Usage: python scripts/nash_survey.py [--out DIR]
"""

import argparse
import hashlib
import json
import pathlib

from detmld import verify_nash
from detmld.forms import VERIFY_GUARD_M

# Every 1 <= k <= m up to the guard, leaving out the trivial 1 x 1 matrix.
CASES = tuple((m, k) for m in range(2, VERIFY_GUARD_M + 1) for k in range(1, m + 1))


def report_digest(data: dict) -> str:
    """First 16 hex digits of the sha256 of the untimed, sorted-key report JSON."""
    untimed = {key: value for key, value in data.items() if key != "elapsed_seconds"}
    untimed["subsets"] = [
        {key: value for key, value in entry.items() if key != "seconds"}
        for entry in data["subsets"]
    ]
    return hashlib.sha256(json.dumps(untimed, sort_keys=True).encode()).hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=str, default=None, help="directory for JSON reports")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for m, k in CASES:
        report = verify_nash(m, k)
        data = report.to_json()
        status = "pass" if report.passed else "FAIL"
        print(
            f"(m={m}, k={k}): {status}  "
            f"subsets={len(report.subsets)} charts={len(report.charts)} "
            f"elapsed={report.elapsed:.2f}s digest={report_digest(data)}"
        )
        if out_dir:
            path = out_dir / f"nash_m{m}_k{k}.json"
            path.write_text(json.dumps(data, indent=2))
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()
