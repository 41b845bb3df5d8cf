import json
import time

import pytest


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
        code, _, err = run_cli(["nash", "verify", "--m", "4", "--k", "2"])
        assert code == 1


class TestSemicontinuityCommand:
    def test_profile(self, run_cli_json):
        out = run_cli_json(["semicontinuity", "--m", "3", "--k", "2", "--alphas", "1,1"])
        assert out["profile"] == ["3", "6", "8"]
        assert out["differences"] == ["3", "2"]
        assert out["difference_identity"] is True

    def test_negative_alpha_rejected(self, run_cli):
        code, _, _ = run_cli(["semicontinuity", "--m", "3", "--k", "2", "--alphas=-1,0"])
        assert code == 1


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
        ],
        ids=["orbit-lambda", "ord-lambda", "straighten-no-right", "straighten-list", "straighten-m"],
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

    def test_large_k_point_is_linear(self, run_cli):
        started = time.perf_counter()
        code, out, _ = run_cli(["mld", "point", "--m", "10000", "--k", "10000", "--alphas", "0", "--q", "0"])
        assert code == 0
        assert json.loads(out)["mld"] == str(10000 * 10000)
        assert time.perf_counter() - started < 5

    def test_unknown_command_exit_code(self, run_cli):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_precondition_error_exit_code(self, run_cli):
        code, _, err = run_cli(["mld", "point", "--m", "2", "--k", "3", "--alphas", "0", "--q", "0"])
        assert code == 1
        assert err.startswith("error:")

    def test_deterministic_output(self, run_cli):
        args = ["mld", "point", "--m", "4", "--k", "3", "--alphas", "1/2,0,1", "--q", "1", "--oracle", "2"]
        first = run_cli(args)
        second = run_cli(args)
        assert first == second

    def test_threads_flag_does_not_change_values(self, run_cli):
        base = ["nash", "verify", "--m", "2", "--k", "1"]
        strip = lambda raw: _strip_timing(json.loads(raw))
        _, out1, _ = run_cli(base + ["--threads", "1"])
        _, out2, _ = run_cli(base + ["--threads", "3"])
        assert strip(out1) == strip(out2)

    def test_pretty_renders_text(self, run_cli):
        code, out, _ = run_cli(
            ["semicontinuity", "--m", "3", "--k", "2", "--alphas", "0,0", "--pretty"]
        )
        assert code == 0
        assert "profile" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def _strip_timing(data):
    if isinstance(data, dict):
        return {
            k: _strip_timing(v)
            for k, v in data.items()
            if k not in ("seconds", "elapsed_seconds")
        }
    if isinstance(data, list):
        return [_strip_timing(v) for v in data]
    return data
