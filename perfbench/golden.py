"""Print the golden digests that run.py checks outputs against.

    PYTHONPATH=src python3 perfbench/golden.py > perfbench/golden.json

Regenerate only when a change to the program is meant to change its
outputs: the Nash reports (timing fields removed) and the query outputs of
the default seed.
"""

import contextlib
import io
import json

from detmld import cli, forms

import checks
import gen
from run import DEFAULT_SEED


def main() -> None:
    nash = {
        f"{m},{k}": checks.nash_digest(forms.verify_nash(m, k).to_json())
        for m, k in gen.NASH_CASES
    }
    digests = []
    for argv in gen.generate("queries", DEFAULT_SEED):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        digests.append(checks.digest([code, out.getvalue()]))
    print(json.dumps({"nash": nash, "queries": checks.digest(digests)}, indent=1))


if __name__ == "__main__":
    main()
