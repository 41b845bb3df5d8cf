import argparse
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import detmld
from detmld import cli
from detmld.cli import build_parser
from detmld.core import new_pair
from detmld.mld import is_lc_along, is_lc_at_rank


class TestMldCommands:
    def test_point(self, run_cli_json):
        out = run_cli_json(["mld", "point", "--m", "3", "--k", "2", "--alphas", "0,0", "--q", "0"])
        assert out["mld"] == "6"
        assert out["lc"] is True
        assert out["beta"] == ["2", "4"]

    def test_locus(self, run_cli_json):
        out = run_cli_json(["mld", "locus", "--m", "5", "--k", "2", "--alphas", "0,0", "--j", "1"])
        assert out["mld"] == "4"

    def test_point_with_oracle(self, run_cli_json):
        out = run_cli_json(
            ["mld", "point", "--m", "3", "--k", "2", "--alphas", "0,0", "--q", "0", "--oracle", "3"]
        )
        assert out["agree"] is True
        assert out["oracle"]["minimum"] == "6"
        assert out["oracle"]["argmin"] == [1, 1]

    def test_divergence_reported(self, run_cli_json):
        out = run_cli_json(
            ["mld", "point", "--m", "3", "--k", "2", "--alphas", "1,7/2", "--q", "0", "--oracle", "6"]
        )
        assert out["mld"] == "-inf"
        assert out["agree"] is False
        assert out["oracle"]["at_boundary"] is False

    def test_neg_infinity_is_data_not_error(self, run_cli):
        code, out, _ = run_cli(["mld", "point", "--m", "3", "--k", "2", "--alphas", "9,0", "--q", "0"])
        assert code == 0
        assert json.loads(out)["mld"] == "-inf"

    def test_oracle_search_at_large_rank(self, run_cli_json):
        # one tail of 2000 entries: the enumeration must not recurse per entry
        out = run_cli_json(
            ["mld", "point", "--m", "2000", "--k", "2000", "--alphas", "0", "--q", "0", "--oracle", "1"]
        )
        assert out["oracle"]["argmin"] == [1] * 2000
        assert out["agree"] is True

    def test_oracle_search_too_large_is_precondition_error(self, run_cli):
        # about 5 * 10**9 tails: rejected before the search starts
        code, out, err = run_cli(
            ["mld", "point", "--m", "3", "--k", "2", "--alphas", "0,0", "--q", "0", "--oracle", "100000"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_rationals_as_strings(self, run_cli_json):
        out = run_cli_json(["mld", "point", "--m", "4", "--k", "2", "--alphas", "1/2", "--q", "1"])
        assert isinstance(out["mld"], str)
        assert all(isinstance(b, str) for b in out["beta"])


class TestLcCheck:
    def test_violated_inequality_reported(self, run_cli_json):
        out = run_cli_json(["lc", "check", "--m", "3", "--k", "2", "--alphas", "5/2,0", "--q", "0"])
        assert out["lc"] is False
        assert out["violated"] == {"prefix": 1, "lhs": "5/2", "rhs": "2"}

    def test_ok(self, run_cli_json):
        out = run_cli_json(["lc", "check", "--m", "3", "--k", "2", "--alphas", "2,0", "--j", "1"])
        assert out["lc"] is True
        assert out["violated"] is None

    def test_requires_exactly_one_site(self, run_cli):
        code, _, err = run_cli(["lc", "check", "--m", "3", "--k", "2", "--alphas", "0,0"])
        assert code == 1
        assert "exactly one" in err


class TestOrbitCommands:
    def test_codim(self, run_cli_json):
        out = run_cli_json(["orbit", "codim", "--m", "3", "--k", "2", "--lambda", "inf,2,1"])
        assert out["codim"] == 11
        assert out["w"] == [3, 1]
        assert out["nash"] == 3

    def test_codim_with_point(self, run_cli_json):
        out = run_cli_json(
            ["orbit", "codim", "--m", "3", "--k", "2", "--lambda", "inf,1,0", "--q", "1"]
        )
        assert out["codim"] == 3
        assert out["codim_point"] == 8

    def test_not_in_jet_space_rejected(self, run_cli):
        code, _, err = run_cli(["orbit", "codim", "--m", "3", "--k", "2", "--lambda", "2,1,0"])
        assert code == 1
        assert err.startswith("error:")


class TestOrdCommand:
    def test_order(self, run_cli_json):
        out = run_cli_json(["ord", "--lambda", "2,1", "--m", "2", "--s", "2", "--N", "10"])
        assert out["order"] == 3

    def test_above_truncation(self, run_cli_json):
        out = run_cli_json(["ord", "--lambda", "7,1", "--m", "2", "--s", "2", "--N", "6"])
        assert out["order"] == "above_truncation"

    def test_seeded(self, run_cli_json):
        out = run_cli_json(
            ["ord", "--lambda", "3,2,1", "--m", "3", "--s", "2", "--N", "6", "--seed", "5"]
        )
        assert out["order"] == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["--lambda", "1", "--m", "1", "--s", "1", "--N", "100000000000000000000"],
            ["--lambda", "1", "--m", "1", "--s", "1", "--N", "65"],
            ["--lambda", ",".join(["0"] * 9), "--m", "9", "--s", "1", "--N", "3"],
        ],
        ids=["huge-N", "N-above-64", "m-above-8"],
    )
    def test_bounds_exit_one(self, run_cli, args):
        code, out, err = run_cli(["ord"] + args)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceeds the supported" in err

    @pytest.mark.parametrize("lam", ["3,2", "3,2,1,0"])
    def test_exponent_count_exits_one(self, run_cli, lam):
        code, out, err = run_cli(["ord", "--lambda", lam, "--m", "3", "--s", "1", "--N", "6"])
        assert (code, out) == (1, "")
        assert err == f"error: need m=3 exponents, got {len(lam.split(','))}\n"

    def test_largest_bounds_accepted(self, run_cli_json):
        out = run_cli_json(
            ["ord", "--lambda", ",".join(["1"] * 8), "--m", "8", "--s", "8", "--N", "64"]
        )
        assert out["order"] == 8


class TestStraightenCommand:
    def test_expansion(self, run_cli_json, tmp_path):
        path = tmp_path / "dt.json"
        path.write_text(
            json.dumps(
                {
                    "left": {"shape": [1, 1], "rows": [[1], [2]]},
                    "right": {"shape": [1, 1], "rows": [[2], [1]]},
                }
            )
        )
        out = run_cli_json(["straighten", "--file", str(path)])
        coefs = sorted(term["coef"] for term in out["terms"])
        assert coefs == ["-1", "1"]

    def test_kbound(self, run_cli_json, tmp_path):
        path = tmp_path / "dt.json"
        path.write_text(
            json.dumps(
                {
                    "left": {"shape": [1, 1], "rows": [[1], [2]]},
                    "right": {"shape": [1, 1], "rows": [[2], [1]]},
                }
            )
        )
        out = run_cli_json(["straighten", "--file", str(path), "--kbound", "1"])
        assert len(out["terms"]) == 1

    def test_negative_kbound_is_precondition_error(self, run_cli, tmp_path):
        path = tmp_path / "dt.json"
        path.write_text(json.dumps({"left": {"rows": [[1]]}, "right": {"rows": [[2]]}}))
        code, out, err = run_cli(["straighten", "--file", str(path), "--kbound", "-1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "k_bound" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"left": {"rows": [[1]]}, "right": {"rows": [[10**30]]}},
            {"left": {"rows": [[1]]}, "right": {"rows": [[1]]}, "m": 10**30},
            {"left": {"rows": [[1]]}, "right": {"rows": [[1]]}, "m": 17},
        ],
        ids=["huge-entry", "huge-m", "m-above-guard"],
    )
    def test_huge_matrix_size_is_precondition_error(self, run_cli, tmp_path, doc):
        # rejected before any exponent vector of length m * m is built; the
        # huge cases fail at once without the guard, so none allocates much
        path = tmp_path / "dt.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["straighten", "--file", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("m", [0, -3])
    def test_matrix_size_below_one_is_precondition_error(self, run_cli, tmp_path, m):
        path = tmp_path / "dt.json"
        path.write_text(json.dumps({"m": m, "left": {"rows": []}, "right": {"rows": []}}))
        code, out, err = run_cli(["straighten", "--file", str(path)])
        assert code == 1
        assert out == ""
        assert err == f"error: m must be an integer >= 1, got {m}\n"

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{", b"[" * 100_000], ids=["not-utf-8", "nested-too-deep"]
    )
    def test_undecodable_file_is_argument_error(self, run_cli, tmp_path, content):
        path = tmp_path / "dt.json"
        path.write_bytes(content)
        code, out, err = run_cli(["straighten", "--file", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_missing_file_is_argument_error(self, run_cli):
        code, _, err = run_cli(["straighten", "--file", "/nonexistent/dt.json"])
        assert code == 2
        assert "cannot read" in err


class TestNashCommand:
    def test_verify(self, run_cli_json):
        out = run_cli_json(["nash", "verify", "--m", "2", "--k", "1"])
        assert out["passed"] is True
        assert len(out["subsets"]) == 4

    def test_guard_is_reject(self, run_cli):
        code, _, err = run_cli(["nash", "verify", "--m", "5", "--k", "2"])
        assert code == 1

    def test_removed_parallelism_flag_is_rejected(self, run_cli):
        code, out, _ = run_cli(["nash", "verify", "--m", "2", "--k", "1", "--threads", "2"])
        assert code == 2
        assert out == ""


class TestSemicontinuityCommand:
    def test_profile(self, run_cli_json):
        out = run_cli_json(["semicontinuity", "--m", "3", "--k", "2", "--alphas", "1,1"])
        assert out["profile"] == ["3", "6", "8"]
        assert out["differences"] == ["3", "2"]
        assert out["difference_identity"] is True

    def test_negative_alpha_rejected(self, run_cli):
        code, _, _ = run_cli(["semicontinuity", "--m", "3", "--k", "2", "--alphas=-1,0"])
        assert code == 1

    def test_rational_profile_over_a_common_denominator(self, run_cli_json):
        out = run_cli_json(["semicontinuity", "--m", "4", "--k", "3", "--alphas", "1/2,1/3,1/4"])
        pair = new_pair(4, 3, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        profile = [detmld.mld_at_rank(pair, q).value for q in range(4)]
        assert out["profile"] == [str(v) for v in profile] == ["115/12", "35/3", "27/2", "15"]
        assert out["differences"] == [str(b - a) for a, b in zip(profile, profile[1:])]
        assert out["difference_identity"] is True

    def test_difference_identity_is_checked_against_alpha_prefix(self, run_cli_json, monkeypatch):
        # the identity's expected side comes from alpha_prefix, not from the
        # profile: a profile off by 1/D at one rank breaks it
        real = detmld.cli.scaled_semicontinuity_profile

        def shifted(pair):
            den, numerators = real(pair)
            return den, numerators[:-1] + [numerators[-1] + 1]

        monkeypatch.setattr(detmld.cli, "scaled_semicontinuity_profile", shifted)
        out = run_cli_json(["semicontinuity", "--m", "3", "--k", "2", "--alphas", "1/2,1"])
        assert out["difference_identity"] is False


class TestCliContract:
    def test_argument_error_exit_code(self, run_cli):
        code, _, _ = run_cli(["mld", "point", "--m", "3"])
        assert code == 2

    @pytest.mark.parametrize(
        "args, content",
        [
            (["orbit", "codim", "--m", "3", "--k", "2", "--lambda", "abc"], None),
            (["ord", "--m", "3", "--s", "2", "--N", "4", "--lambda", "2,x"], None),
            (["straighten", "--file"], {"left": {"rows": [[1]]}}),
            (["straighten", "--file"], [[1], [2]]),
            (["straighten", "--file"], {"left": {"rows": [[1]]}, "right": {"rows": [[1]]}, "m": "x"}),
            (["straighten", "--file"], {"left": {"rows": "ab"}, "right": {"rows": [[1]]}}),
            (["straighten", "--file"], {"left": {"rows": [["x"]]}, "right": {"rows": [[1]]}}),
            (["straighten", "--file"], {"left": {"rows": [[1.5]]}, "right": {"rows": [[1]]}}),
            (["straighten", "--file"], {"left": {"rows": [[1]]}, "right": {"rows": [[True]]}}),
            (["nash", "verify", "--m=--", "--k", "1"], None),
            (["mld", "point", "--m", "3", "--k", "2", "--alphas=--", "--q", "0"], None),
        ],
        ids=[
            "orbit-lambda", "ord-lambda", "straighten-no-right", "straighten-list", "straighten-m",
            "straighten-rows-string", "straighten-entry-string", "straighten-entry-float",
            "straighten-entry-bool",
            "int-option-dashes", "str-option-dashes",
        ],
    )
    def test_malformed_input_is_argument_error(self, run_cli, tmp_path, args, content):
        if content is not None:
            path = tmp_path / "dt.json"
            path.write_text(json.dumps(content))
            args = args + [str(path)]
        code, out, err = run_cli(args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("alphas", ["abc", "1/0", "1,,2", "0.5", "1e4400", "1e100000000"])
    @pytest.mark.parametrize(
        "args",
        [
            ["mld", "point", "--m", "3", "--k", "2", "--q", "0"],
            ["lc", "check", "--m", "3", "--k", "2", "--q", "0"],
            ["semicontinuity", "--m", "3", "--k", "2"],
        ],
        ids=["mld-point", "lc-check", "semicontinuity"],
    )
    def test_malformed_alphas_is_argument_error(self, run_cli, args, alphas):
        code, out, err = run_cli(args + ["--alphas", alphas])
        assert code == 2
        assert out == ""
        assert err.startswith("error: --alphas")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [["semicontinuity"], ["mld", "point", "--q", "0"], ["lc", "check", "--q", "0"]],
        ids=["semicontinuity", "mld-point", "lc-check"],
    )
    def test_values_too_long_to_print_are_precondition_errors(self, run_cli, args):
        # one over each of the first 1,500 primes: D has about 5,500 digits
        primes = [p for p in range(2, 12600) if all(p % d for d in range(2, int(p**0.5) + 1))][:1500]
        alphas = ",".join(f"1/{p}" for p in primes)
        code, out, err = run_cli(args + ["--m", "1500", "--k", "1500", "--alphas", alphas])
        assert code == 1
        assert out == ""
        assert err.startswith("error: coefficients too large") and err.count("\n") == 1

    @pytest.mark.parametrize("q", [None, "9"])
    def test_orbit_values_too_long_to_print_are_precondition_errors(self, run_cli, q):
        # twenty entries of 4,299 digits each parse, but their weighted sum does not print
        lam = ",".join(["inf"] + ["9" * 4299] * 20 + ["0"] * 9)
        args = ["orbit", "codim", "--m", "30", "--k", "29", "--lambda", lam]
        code, out, err = run_cli(args + (["--q", q] if q else []))
        assert code == 1
        assert out == ""
        assert err.startswith("error: partition entries too large") and err.count("\n") == 1

    def test_orbit_values_just_below_the_limit_print(self, run_cli_json):
        entry = int("9" * 4290)
        out = run_cli_json(["orbit", "codim", "--m", "2", "--k", "1", "--lambda", f"inf,{entry}", "--q", "0"])
        assert (out["codim"], out["codim_point"], out["w"], out["nash"]) == (3 * entry, 3 * entry, [entry], entry)

    def test_large_k_point_is_linear(self, run_cli):
        started = time.perf_counter()
        code, out, _ = run_cli(["mld", "point", "--m", "10000", "--k", "10000", "--alphas", "0", "--q", "0"])
        assert code == 0
        assert json.loads(out)["mld"] == str(10000 * 10000)
        assert time.perf_counter() - started < 5

    def test_closed_pipe_exits_without_traceback(self):
        # The report (about 270 kB) outgrows the pipe buffer, so the write
        # meets the closed read end.
        env = dict(os.environ, PYTHONPATH=str(Path(detmld.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "detmld.cli", "mld", "point", "--m", "20000", "--k", "20000",
             "--alphas", "0", "--q", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(50).startswith(b'{"m": 20000')
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    def test_unknown_command_exit_code(self, run_cli):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_precondition_error_exit_code(self, run_cli):
        code, _, err = run_cli(["mld", "point", "--m", "2", "--k", "3", "--alphas", "0", "--q", "0"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "args",
        [
            ["mld", "point", "--alphas", "0", "--q", "0"],
            ["mld", "locus", "--alphas", "0", "--j", "0"],
            ["lc", "check", "--alphas", "0"],
            ["orbit", "codim", "--lambda", "1"],
            ["semicontinuity", "--alphas", "0"],
        ],
    )
    def test_huge_rank_is_precondition_error(self, run_cli, args):
        # k > m, and a valid pair too large to pad
        for m in (3, 10**20):
            code, out, err = run_cli(args + ["--m", str(m), "--k", str(10**20)])
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_deterministic_output(self, run_cli):
        args = ["mld", "point", "--m", "4", "--k", "3", "--alphas", "1/2,0,1", "--q", "1", "--oracle", "2"]
        first = run_cli(args)
        second = run_cli(args)
        assert first == second

    def test_pretty_renders_text(self, run_cli):
        code, out, _ = run_cli(
            ["semicontinuity", "--m", "3", "--k", "2", "--alphas", "0,0", "--pretty"]
        )
        assert code == 0
        assert "profile" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


    def test_pretty_nested_lists(self, run_cli, run_cli_json):
        # A list of scalars inside a list is one JSON line, and each dict item
        # of a list opens with a "-" line.
        args = ["nash", "verify", "--m", "2", "--k", "1"]
        code, out, _ = run_cli(args + ["--pretty"])
        assert code == 0
        lines = out.splitlines()
        start = lines.index("  positions:")
        assert lines[start - 1:start + 4] == ["  -", "  positions:", "    [1, 1]", "    [1, 2]", "    [2, 1]"]
        data = run_cli_json(args)
        assert lines.count("  -") == len(data["subsets"]) + len(data["charts"]) == 8
        assert "        [1]" in lines


class TestParserReuse:
    """The parser is built once per process; no call may leak into the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_table_matches_tree(self):
        # every leaf the root parser reaches through the subcommand choices
        reached = {}

        def walk(parser, words):
            subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subparsers:
                reached[words] = parser
            for action in subparsers:
                for name, child in action.choices.items():
                    walk(child, words + (name,))

        walk(build_parser(), ())
        assert list(reached) == list(cli._COMMANDS) == [tuple(words) for words in _LEAF_WORDS]
        for words, parser in reached.items():
            handler, _, options = cli._COMMANDS[words]
            assert parser.get_default("func") is handler
            tree = [
                (action.option_strings, action.dest, action.type, action.required, action.default)
                for action in parser._actions if action.dest != "help"
            ]
            table = [([o.flag], o.dest, o.type, o.required, None) for o in options]
            assert tree == table + [(["--pretty"], "pretty", None, False, False)], words
            # the table route reads the argv with only the required options,
            # and the argv with every option, as the tree does
            for given in ([o for o in options if o.required], options):
                argv = list(words) + [t for o in given for t in (o.flag, "1")]
                for extra in ([], ["--pretty"]):
                    tree_args = vars(build_parser().parse_args(argv + extra))
                    del tree_args["command"]
                    tree_args.pop("subcommand", None)
                    assert vars(cli._table_args(argv + extra)) == tree_args, argv + extra

    def test_argument_error_then_valid_call(self, run_cli, run_cli_json):
        code, out, err = run_cli(["mld", "point", "--m", "3", "--k", "x"])
        assert code == 2
        assert out == ""
        assert "usage:" in err
        assert run_cli_json(["mld", "point", "--m", "3", "--k", "2", "--alphas", "0,0", "--q", "0"])["mld"] == "6"

    def test_pretty_then_plain(self, run_cli, run_cli_json):
        args = ["semicontinuity", "--m", "3", "--k", "2", "--alphas", "0,0"]
        code, pretty, _ = run_cli(args + ["--pretty"])
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(pretty)
        assert run_cli_json(args)["profile"] == ["6", "7", "8"]

    def test_oracle_then_plain(self, run_cli_json):
        args = ["mld", "locus", "--m", "3", "--k", "2", "--alphas", "0,0", "--j", "1"]
        assert "oracle" in run_cli_json(args + ["--oracle", "3"])
        plain = run_cli_json(args)
        assert "oracle" not in plain
        assert "agree" not in plain

    @pytest.mark.parametrize(
        "args",
        [
            ["mld", "point", "--m", "4", "--k", "3", "--alphas", "1/2,0,1", "--q", "1", "--oracle", "3"],
            ["mld", "locus", "--m", "5", "--k", "2", "--alphas", "3,1/2", "--j", "2"],
            ["lc", "check", "--m", "3", "--k", "2", "--alphas", "5/2,0", "--q", "0"],
            ["orbit", "codim", "--m", "3", "--k", "2", "--lambda", "inf,1,0", "--q", "1"],
            ["ord", "--lambda", "3,2,1", "--m", "3", "--s", "2", "--N", "6", "--seed", "5"],
            ["semicontinuity", "--m", "4", "--k", "3", "--alphas", "1,0,1/2"],
        ],
        ids=["mld-point", "mld-locus", "lc-check", "orbit-codim", "ord", "semicontinuity"],
    )
    def test_in_process_matches_fresh_process(self, run_cli_json, args):
        # run every case in-process after the others have reused the parser
        in_process = run_cli_json(args)
        env = dict(os.environ, PYTHONPATH=str(Path(detmld.__file__).resolve().parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-m", "detmld.cli", *args],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert json.loads(fresh.stdout) == in_process

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_lc_matches_criterion(self, run_cli_json, data):
        # "lc" is read off the mld; it must equal the prefix-inequality criterion
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, m))
        alphas = [Fraction(data.draw(st.integers(0, 12)), 2) for _ in range(k)]
        pair = new_pair(m, k, alphas)
        text = ",".join(str(a) for a in alphas)
        if data.draw(st.booleans()):
            q = data.draw(st.integers(0, k))
            out = run_cli_json(["mld", "point", "--m", str(m), "--k", str(k), "--alphas", text, "--q", str(q)])
            assert out["lc"] is is_lc_at_rank(pair, q)
        else:
            j = data.draw(st.integers(1, k))
            out = run_cli_json(["mld", "locus", "--m", str(m), "--k", str(k), "--alphas", text, "--j", str(j)])
            assert out["lc"] is is_lc_along(pair, j)


# Argv fuzzing: a well-formed call of each subcommand, then up to three
# mutations (drop a flag, replace a value with junk or an out-of-range integer,
# insert a stray token).  Values are capped (m, k <= 6, --oracle <= 4,
# --N <= 12) so that no run is slow; `nash verify` with m >= 3 is left out,
# and `straighten --file` has its own fuzz test below.
_COMMANDS = [  # (command, required flags, optional flags)
    (["mld", "point"], ["--m", "--k", "--alphas", "--q"], ["--oracle"]),
    (["mld", "locus"], ["--m", "--k", "--alphas", "--j"], ["--oracle"]),
    (["lc", "check"], ["--m", "--k", "--alphas", "--q"], []),
    (["lc", "check"], ["--m", "--k", "--alphas", "--j"], []),
    (["orbit", "codim"], ["--m", "--k", "--lambda"], ["--q"]),
    (["ord"], ["--m", "--lambda", "--s", "--N"], ["--seed"]),
    (["nash", "verify"], ["--m", "--k"], []),
    (["semicontinuity"], ["--m", "--k", "--alphas"], []),
    (["straighten"], [], ["--kbound"]),
    (["frobnicate"], [], []),
]
_FLAGS = sorted({flag for _, req, opt in _COMMANDS for flag in req + opt} | {"--pretty"})
_JUNK = st.sampled_from(["abc", "", "inf", "-", "--", "1/0", "1,,2", "2,x", "0.5", "1e2", "mld", "--q"])
_OUT_OF_RANGE = st.integers(-2, 9).map(str)
_RATIONALS = st.lists(
    st.builds(Fraction, st.integers(-2, 8), st.integers(1, 4)).map(str), max_size=6
).map(",".join)


@st.composite
def _lambda(draw, m):
    """Comma-separated entries, usually m of them and nonincreasing, INF first."""
    length = m if draw(st.sampled_from([True] * 4 + [False])) else draw(st.integers(0, 7))
    entries = draw(st.lists(st.integers(-1, 7), min_size=length, max_size=length))
    if draw(st.sampled_from([True] * 3 + [False])):
        entries.sort(reverse=True)
    return ",".join("inf" if e == 7 else str(e) for e in entries)


def _pairs(flag: str, value: str) -> list:
    # argparse reads a separate value starting with "-" as an option
    return [f"{flag}={value}"] if value.startswith("-") else [flag, value]


@st.composite
def _argv(draw):
    command, required, optional = draw(st.sampled_from(_COMMANDS))
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, m))
    valid = {
        "--m": m, "--k": k, "--q": draw(st.integers(0, k)), "--j": draw(st.integers(1, k)),
        "--s": draw(st.integers(1, m)), "--N": draw(st.integers(0, 12)),
        "--seed": draw(st.integers(0, 99)), "--oracle": draw(st.integers(1, 4)),
        "--kbound": draw(st.integers(0, 3)),
        "--alphas": draw(_RATIONALS), "--lambda": draw(_lambda(m)),
    }
    flags = required + [flag for flag in optional if draw(st.booleans())]
    pairs = [_pairs(flag, str(valid[flag])) for flag in flags]
    if draw(st.booleans()):
        pairs.append(["--pretty"])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "replace", "insert"]))
        if kind == "insert" or not pairs:
            flag = draw(st.sampled_from(_FLAGS))
            token = [flag] if flag == "--pretty" else _pairs(flag, draw(st.one_of(_JUNK, _OUT_OF_RANGE)))
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.one_of(st.just(token), _JUNK.map(lambda j: [j]))))
        elif kind == "drop":
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        else:
            i = draw(st.integers(0, len(pairs) - 1))
            flag = pairs[i][0].partition("=")[0]
            if flag != "--pretty":
                pairs[i] = _pairs(flag, draw(st.one_of(_JUNK, _OUT_OF_RANGE)))
    return command + [token for pair in pairs for token in pair]


def _slow(argv) -> bool:
    """nash verify with some --m of 3 or more: exhaustive reductions."""
    if argv[:2] != ["nash", "verify"]:
        return False
    values = [b for a, b in zip(argv, argv[1:]) if a == "--m"]
    values += [a[len("--m="):] for a in argv if a.startswith("--m=")]
    return any(v.isdigit() and int(v) >= 3 for v in values)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_argv_fuzz_exits_cleanly(run_cli, argv):
    if _slow(argv):
        return
    code, out, err = run_cli(argv)
    assert "Traceback" not in err
    if code == 0:
        if "--pretty" in argv:
            assert out
        else:
            json.loads(out)
    else:
        assert code in (1, 2), (code, err)
        assert err


# Table and root routes: main parses a canonical argv of a leaf command from
# the command table; the reference is main with the table route switched off,
# which parses every argv whole on build_parser().  Both must print and exit
# alike.
_VALID_POINT = ["mld", "point", "--m", "3", "--k", "2", "--alphas", "1,7/2", "--q", "0"]
_LEAF_WORDS = [
    ["mld", "point"], ["mld", "locus"], ["lc", "check"], ["orbit", "codim"],
    ["ord"], ["straighten"], ["nash", "verify"], ["semicontinuity"],
]
# Argvs that the table must hand to the root parser whole.
_HANDOVER_ARGVS = [
    [], ["-h"], ["mld", "-h"], *[words + ["-h"] for words in _LEAF_WORDS],
    ["frobnicate"], ["mld"], ["mld", "poin"], ["mld", "point"], ["mld", "point", "--m", "3"],
    ["ord", "ord", "--lambda", "3,2,1", "--m", "3", "--s", "2", "--N", "6"],
    ["ord", "--lambda", "3,2,1", "--m", "3", "--s", "2", "--N", "6", "extra"],
    _VALID_POINT + ["extra"], _VALID_POINT + ["--pre"],
    ["mld", "point", "--m", "3", "--k", "2", "--alphas=--", "--q", "0"],
    ["mld", "point", "--m=3", "--k", "2", "--alphas", "1,7/2", "--q", "0"],
    _VALID_POINT + ["--m", "4"],
    _VALID_POINT[:-1] + ["-1"],
    _VALID_POINT + ["--pretty", "--pretty"],
    _VALID_POINT[:-2],
    ["mld", "point", "--m", "x", "--k", "2", "--alphas", "1,7/2", "--q", "0"],
    ["mld", "point", "--m", "3", "--k", "2", "--alphas", "", "--q", "0"],
    ["mld", "point", "--m", "3", "--k", "2", "--alphas", "1,7/2", "--q"],
]
_ROUTE_ARGVS = _HANDOVER_ARGVS + [
    _VALID_POINT,
    ["nash", "verify", "--m", "2", "--k", "2", "--pretty"],
]
# the timing fields of a `nash verify` report, in JSON and --pretty
_TIMING = re.compile(r'("?(?:elapsed_)?seconds"?:?\s+)[-+.\de]+')


def _routes(run_cli, argv) -> tuple:
    """(exit code, stdout, stderr) of main, then of main on the root parser alone."""
    results = [run_cli(argv)]
    with mock.patch.object(cli, "_table_args", return_value=None):
        results.append(run_cli(argv))
    return tuple((code, _TIMING.sub(r"\1T", out), err) for code, out, err in results)


@pytest.mark.parametrize("argv", _ROUTE_ARGVS, ids=" ".join)
def test_leaf_route_matches_root_route(run_cli, argv):
    leaf, root = _routes(run_cli, argv)
    assert leaf == root


@pytest.mark.parametrize("argv", _HANDOVER_ARGVS, ids=" ".join)
def test_table_hands_over(argv):
    assert cli._table_args(argv) is None


@pytest.mark.parametrize("argv", _ROUTE_ARGVS[len(_HANDOVER_ARGVS):], ids=" ".join)
def test_table_takes_canonical_argv(argv):
    assert cli._table_args(argv) is not None


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_argv_fuzz_leaf_route_matches_root_route(run_cli, argv):
    if _slow(argv):
        return
    leaf, root = _routes(run_cli, argv)
    assert leaf == root


@pytest.mark.parametrize(
    "argv, imported",
    [(_VALID_POINT, False), (["mld", "point", "--m", "3"], True)],
    ids=["canonical", "argument-error"],
)
def test_argparse_imported_only_on_the_root_route(argv, imported):
    # in a fresh interpreter without site-packages, as a one-shot call runs
    src = str(Path(detmld.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from detmld.cli import main\n"
        f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n"
        "print('argparse' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(imported)


# Straighten file fuzzing: JSON documents with "left", "right", "rows", "shape"
# and "m" keys, built well formed and then mutated with junk values (integers
# from -1 to 7, floats, strings, bools, null, nested lists).  A well-formed
# tableau has at most five boxes, so no straightening is slow.
_JSON_LEAF = st.one_of(
    st.integers(-1, 7), st.floats(), st.text(max_size=3), st.booleans(), st.none()
)
_JSON_JUNK = st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=5)


@st.composite
def _straighten_doc(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON_JUNK)
    lengths = draw(st.lists(st.integers(1, 3), max_size=3).filter(lambda r: sum(r) <= 5))
    if draw(st.booleans()):
        lengths.sort(reverse=True)

    def side():
        rows = [
            draw(st.lists(st.integers(1, 7), min_size=n, max_size=n, unique=True)) for n in lengths
        ]
        return {"rows": rows, "shape": list(lengths)}

    doc = {"left": side(), "right": side()}
    if draw(st.booleans()):
        doc["m"] = draw(st.integers(-1, 7))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        holders = [d for d in (doc, doc.get("left"), doc.get("right")) if isinstance(d, dict)]
        holder = draw(st.sampled_from(holders))
        key = draw(st.sampled_from(["left", "right", "m"] if holder is doc else ["rows", "shape"]))
        kind = draw(st.sampled_from(["drop", "replace", "entry"]))
        rows = holder.get(key)
        if kind == "entry" and key == "rows" and isinstance(rows, list) and rows:
            row = draw(st.sampled_from(rows))
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(_JSON_LEAF)
        elif kind == "drop":
            holder.pop(key, None)
        else:
            holder[key] = draw(_JSON_JUNK)
    return doc


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_straighten_doc(), st.one_of(st.none(), st.integers(-1, 7)))
def test_straighten_file_fuzz_exits_cleanly(run_cli, tmp_path, doc, kbound):
    path = tmp_path / "dt.json"
    path.write_text(json.dumps(doc))
    argv = ["straighten", "--file", str(path)]
    if kbound is not None:
        argv.append(f"--kbound={kbound}")
    code, out, err = run_cli(argv)
    assert "Traceback" not in err
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        echoed = json.loads(out)["input"]
        for side in ("left", "right"):  # entries are taken as given, never coerced
            assert echoed[side]["rows"] == doc[side]["rows"]
    else:
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1, err
