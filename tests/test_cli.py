import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbituse import HIDEB, OverrideError, ScenarioValidationError, national_welfare
from orbituse import cli
from orbituse.cli import main
from orbituse.reporting import dump_bundle, load_scenario

from conftest import assert_exact, exact_rho_form

FIXTURE = Path(__file__).resolve().parent.parent / "scenarios" / "sym2.json"
SOLO_FIXTURE = FIXTURE.with_name("solo.json")


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def child_env():
    """Environment for a child process that imports the package from this
    source tree, as the test process does."""
    source = str(FIXTURE.parent.parent / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadScenario:
    def test_fixture_round_trip(self, tmp_path):
        bundle = load_scenario(FIXTURE)
        assert bundle.taxes.rates == ((0.0, 0.0), (0.0, 0.0))
        assert bundle.abatement == 0.0
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(dump_bundle(bundle)))
        reloaded = load_scenario(echo)
        assert reloaded.scenario == bundle.scenario
        assert reloaded.taxes == bundle.taxes
        assert reloaded.abatement == bundle.abatement

    def test_round_trip_preserves_full_float_precision(self, tmp_path):
        bundle = load_scenario(FIXTURE, ["scenario.k=0.30000000000000004"])
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(dump_bundle(bundle)))
        assert load_scenario(echo).scenario.collision_coeff == 0.30000000000000004

    def test_legacy_debris_override_builds_hideb(self):
        bundle = load_scenario(FIXTURE, ["scenario.D0=5"])
        assert bundle.scenario == HIDEB

    def test_tax_override_is_one_based(self):
        bundle = load_scenario(FIXTURE, ["tax.1.2=0.5"])
        assert bundle.taxes.rate(0, 1) == 0.5
        assert bundle.taxes.rate(0, 0) == 0.0

    def test_vector_length_mismatch_names_the_field(self, tmp_path):
        data = json.loads(FIXTURE.read_text())
        data["scenario"]["costs"] = [1.0]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(broken)
        assert any("costs" in line for line in exc.value.violations)

    def test_unknown_override_key(self):
        with pytest.raises(OverrideError):
            load_scenario(FIXTURE, ["scenario.nonsense=1"])
        with pytest.raises(OverrideError):
            load_scenario(FIXTURE, ["bogus=1"])


class TestCommands:
    def test_solve_reports_reference_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--scenario", str(FIXTURE))
        assert code == 0
        report = json.loads(out)
        assert report["fleets"] == pytest.approx([10.0 / 7.0] * 2, abs=1e-9)
        assert report["debris"]["stock"] == pytest.approx(20.0 / 7.0, abs=1e-9)
        assert report["welfare"] == pytest.approx([100.0 / 49.0] * 2, abs=1e-9)

    def test_solve_csv_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--scenario", str(FIXTURE), "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "fleets.0" in lines[0]

    def test_validation_failure_exits_2(self, capsys, tmp_path):
        data = json.loads(FIXTURE.read_text())
        data["scenario"]["costs"] = [0.0, 1.0]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "solve", "--scenario", str(broken))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ScenarioValidationError"
        assert any("costs" in v for v in payload["violations"])

    @pytest.mark.parametrize(
        "override, field",
        [
            ("scenario.k=NaN", "collision_coeff"),
            ("scenario.p=[1,NaN]", "prices"),
            ("scenario.D0=Infinity", "legacy_debris"),
            ("abatement=NaN", "abatement"),
        ],
    )
    def test_non_finite_input_exits_2(self, capsys, override, field):
        code, _, err = run_cli(
            capsys, "solve", "--scenario", str(FIXTURE), "--set", override
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ScenarioValidationError"
        assert any(field in v for v in payload["violations"])

    @pytest.mark.parametrize(
        "overrides, violation",
        [
            # k d overflows; with sector 1 fully taxed its rho is 0 and kd rho NaN.
            (["scenario.k=1e300", "scenario.d=1e300", "tax.1.1=1", "tax.1.2=1"],
             "collision_coeff * debris_per_sat must be finite"),
            # sum(p) overflows, and so would rev/m.
            (["scenario.k=0", "scenario.p=1e308,1e308", "scenario.m=5e-324,5e-324"],
             "sum(prices) / min(costs) must be finite"),
            # Each factor is finite, their product is not.
            (["scenario.k=1e200", "scenario.p=1e200,1e200"],
             "collision_coeff * debris_per_sat * sum(prices) / min(costs) must be finite"),
            # At k = 0 each fleet is its rho: squaring one overflows.
            (["scenario.k=0", "scenario.p=1e-10,1e-10", "scenario.m=1e-170,1"],
             "max(costs) * (sum(prices) / min(costs))**2 must be finite"),
            # Each fleet squares, but a market's price times the fleets summed
            # over both sectors overflows.
            (["scenario.k=0", "scenario.p=1e154,1e-300"],
             "n_sectors * sum(prices) * sum(prices) / min(costs) must be finite"),
            # Both: welfare and the profit residual were Infinity and NaN.
            (["scenario.k=0", "scenario.p=1e200,1e200"],
             ["max(costs) * (sum(prices) / min(costs))**2 must be finite",
              "n_sectors * sum(prices) * sum(prices) / min(costs) must be finite"]),
            # At k = 0 no bound above involves d: the debris stock was Infinity.
            (["scenario.k=0", "scenario.d=1e300", "scenario.p=1e10,1e10"],
             "legacy_debris + debris_per_sat * n_sectors * sum(prices) / min(costs) must be finite"),
            # d times the fleets summed is finite; adding the legacy debris is not.
            (["scenario.k=0", "scenario.D0=1.7e308", "scenario.d=1e157", "scenario.p=1e150,1e150"],
             "legacy_debris + debris_per_sat * n_sectors * sum(prices) / min(costs) must be finite"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "regulate", "treaty", "verify", "sweep"])
    def test_overflowing_products_exit_2(self, capsys, command, overrides, violation):
        argv = [command, "--scenario", str(FIXTURE)] + [
            part for override in overrides for part in ("--set", override)
        ]
        if command == "verify":
            argv += ["--seed", "1", "--random-count", "1"]
        if command == "sweep":
            argv += ["--sweep", "scenario.D0:0:1:2"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err, parse_constant=_reject_constant)
        assert payload["error"] == "ScenarioValidationError"
        assert payload["violations"] == (violation if isinstance(violation, list) else [violation])

    @pytest.mark.parametrize(
        "command, override, field",
        [
            ("solve", "scenario.n_markets=2.9", "n_markets"),
            ("solve", "scenario.n_sectors=1.5", "n_sectors"),
            ("treaty", "scenario.parties=1.5", "treaty_parties"),
        ],
    )
    def test_a_count_that_is_not_whole_exits_2(self, capsys, command, override, field):
        code, out, err = run_cli(capsys, command, "--scenario", str(FIXTURE), "--set", override)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        payload = json.loads(line, parse_constant=_reject_constant)
        assert payload["error"] == "ScenarioValidationError"
        assert payload["violations"] == [f"{field} must be a whole number, got {override.split('=')[1]}"]

    def test_a_whole_float_count_is_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "treaty", "--scenario", str(FIXTURE),
            "--set", "scenario.n_markets=2.0", "--set", "scenario.parties=2.0",
        )
        assert code == 0
        assert json.loads(out)["inputs"]["scenario"]["treaty_parties"] == 2

    @pytest.mark.parametrize(
        "override", ["abatement=[1]", 'abatement="x"', "tax.1.1=[0.1]", "tax.1.1=null"]
    )
    def test_malformed_override_value_exits_2(self, capsys, override):
        code, out, err = run_cli(
            capsys, "solve", "--scenario", str(FIXTURE), "--set", override
        )
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        payload = json.loads(line, parse_constant=_reject_constant)
        assert payload["error"] == "OverrideError"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("taxes", "abc"),
            ("taxes", [[0.1], [0.1, 0.2]]),
            ("taxes", [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
            ("abatement", "x"),
            ("abatement", None),
            ("abatement", [1]),
        ],
    )
    def test_malformed_file_value_exits_2(self, capsys, tmp_path, key, value):
        data = json.loads(FIXTURE.read_text())
        data[key] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "solve", "--scenario", str(broken))
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        payload = json.loads(line, parse_constant=_reject_constant)
        assert payload["error"] == "ScenarioParseError"

    @pytest.mark.parametrize("value", [[[0, 0, 0.5]], [[0, 0, "x"]], [[0, 0]]])
    def test_a_file_key_cannot_inject_tax_overrides(self, capsys, tmp_path, value):
        # Tax overrides come from --set alone: the loader keeps them apart
        # from the file's keys.
        data = json.loads(FIXTURE.read_text())
        data["_tax_overrides"] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "solve", "--scenario", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["inputs"]["taxes"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_strict_assumption_violation_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve",
            "--scenario",
            str(FIXTURE),
            "--set",
            "scenario.k=0.6",
            "--strict",
        )
        assert code == 4
        assert json.loads(err)["error"] == "AssumptionViolation"

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (
                ["verify"],
                2,
                '{"error": "MissingSeed", "message": "verify requires --seed for '
                'reproducible batches"}',
            ),
            (
                ["solve", "--set", "scenario.k=0.6", "--strict"],
                4,
                '{"error": "AssumptionViolation", "message": "structural assumptions '
                'violated under --strict", "no_crowding_out": [true, true], '
                '"bounded_marginal_risk": false}',
            ),
            (
                ["solve", "--set", "scenario.c=-1"],
                2,
                '{"error": "ScenarioValidationError", "message": "abatement_cost must be > 0", '
                '"violations": ["abatement_cost must be > 0"]}',
            ),
            (
                ["regulate", "--set", "abatement=3.5", "--set", "tax.1.1=0.5", "--set", "tax.1.2=0.5"],
                1,
                '{"error": "PhysicallyInvalidError", "message": "survival probability '
                '1.038462 outside [0, 1] at debris stock -0.384615"}',
            ),
            # A scenario value that is not an object, read from FILE.
            *(
                (
                    ["solve", {"scenario": value}, "--set", "scenario.k=0.2"],
                    2,
                    '{"error": "ScenarioParseError", "message": "FILE must contain a '
                    "'scenario' object\"}",
                )
                for value in ("x", None, [1], [["n_markets", 2]])
            ),
        ],
        ids=["missing-seed", "strict", "validation", "runtime",
             "scenario-text", "scenario-null", "scenario-list", "scenario-pairs"],
    )
    def test_every_error_is_one_pinned_json_line(self, capsys, tmp_path, argv, code, line):
        command, *rest = argv
        path = FIXTURE
        if rest and isinstance(rest[0], dict):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(rest.pop(0)))
            line = line.replace("FILE", json.dumps(str(path))[1:-1])
        assert run_cli(capsys, command, "--scenario", str(path), *rest) == (code, "", line + "\n")

    @pytest.mark.parametrize("debris_per_sat", ["1e140", "1e150", "1e250", "1e297"])
    def test_treaty_arithmetic_past_the_float_range_is_one_json_line(self, capsys, debris_per_sat):
        # At k = 0 the averting abatement grows with d; from about 1e150 on
        # the treaty payoff squares it past the float range.
        overrides = [
            "--set", "scenario.k=0", "--set", f"scenario.d={debris_per_sat}",
            "--set", "scenario.p=1e10,1e10",
        ]
        overflows = debris_per_sat != "1e140"
        code, out, err = run_cli(capsys, "treaty", "--scenario", str(FIXTURE), *overrides)
        if overflows:
            assert (code, out) == (1, "")
            (line,) = err.splitlines()
            assert json.loads(line)["error"] == "OverflowError"
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["qbar_responsive"] > 0.0
        sweep = ["sweep", "--scenario", str(FIXTURE), *overrides, "--sweep", "scenario.D0:0:1:3"]
        code, out, err = run_cli(capsys, *sweep, "--format", "json")
        assert (code, err) == (0, "")
        rows = json.loads(out, parse_constant=_reject_constant)
        expected = ["OverflowError" if overflows else ""] * 3
        assert [row["error"] for row in rows] == expected
        code, out, err = run_cli(capsys, *sweep, "--format", "csv")
        assert (code, err) == (0, "")
        assert [row["error"] for row in csv.DictReader(io.StringIO(out))] == expected

    def test_regulate_converges(self, capsys):
        code, out, _ = run_cli(capsys, "regulate", "--scenario", str(FIXTURE))
        assert code == 0
        report = json.loads(out)
        assert report["converged"]
        assert report["max_update"] < 1e-8

    def test_regulate_that_does_not_converge_exits_3(self, capsys):
        # test_regulation's one-third cycle: the damped schedule never settles.
        code, out, err = run_cli(
            capsys, "regulate", "--scenario", str(FIXTURE),
            "--set", "scenario.p=1.7456358594859416,1.9723762546357726",
            "--set", "scenario.m=0.25168967781691304,0.30662579956092023",
            "--set", "scenario.k=0.6111056137478023",
            "--set", "scenario.d=1.2221910648329655",
            "--set", "abatement=2.8740931074830227",
            "--set", "tax.1.1=1", "--set", "tax.2.1=1",
        )
        assert (code, err) == (3, "")
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["converged"] is False
        assert report["iterations"] == 10_000
        assert report["max_update"] == 0.33333333333333337

    def test_regulate_with_no_valid_tax_column_exits_1(self, capsys):
        # Abatement 5 leaves the stock negative for every tax column.
        code, out, err = run_cli(
            capsys, "regulate", "--scenario", str(FIXTURE), "--set", "abatement=5"
        )
        assert code == 1
        assert out == ""
        assert err == (
            '{"error": "PhysicallyInvalidError", "message": "survival probability '
            '1.071429 outside [0, 1] at debris stock -0.714286"}\n'
        )

    def test_regulate_from_an_invalid_start_exits_1(self, capsys):
        # The start leaves the stock negative; the iteration from it used to
        # converge to zero taxes.
        code, out, err = run_cli(
            capsys, "regulate", "--scenario", str(FIXTURE), "--set", "abatement=3.5",
            "--set", "tax.1.1=0.5", "--set", "tax.1.2=0.5",
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "PhysicallyInvalidError"

    def test_regulate_over_the_candidate_budget_exits_1(self, capsys, tmp_path):
        data = json.loads(FIXTURE.read_text())
        n = 20
        data["scenario"].update(n_markets=n, n_sectors=n, prices=[1.0] * n, costs=[1.0] * n)
        data["taxes"] = [[0.0] * n for _ in range(n)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "regulate", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "BudgetExceededError"

    def test_treaty_emits_divergence(self, capsys):
        code, out, _ = run_cli(capsys, "treaty", "--scenario", str(FIXTURE))
        assert code == 0
        report = json.loads(out)
        assert report["qbar_responsive"] == pytest.approx(1.2, abs=1e-9)
        divergence = report["divergence"][0]
        assert divergence["model"]["alpha"] == pytest.approx(20.0 / 49.0, abs=1e-9)
        assert divergence["closed_form"]["alpha"] == pytest.approx(125.0 / 630.0, abs=1e-9)
        assert not divergence["agree"]
        assert "model-derived" in report["variants"]
        assert "closed-form" in report["variants"]

    def test_sweep_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for target in (first, second):
            code, _, _ = run_cli(
                capsys,
                "sweep",
                "--scenario",
                str(FIXTURE),
                "--sweep",
                "scenario.D0:0:4:5",
                "--format",
                "csv",
                "--out",
                str(target),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_rows_track_the_axis(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--scenario",
            str(FIXTURE),
            "--sweep",
            "scenario.D0:0:4:5",
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["scenario.D0"] for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert rows[0]["qbar_responsive"] == pytest.approx(1.2, abs=1e-9)

    def test_sweep_json_is_strict_with_failed_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--scenario",
            str(FIXTURE),
            "--sweep",
            "scenario.D0:0:20:3",
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rows = json.loads(out, parse_constant=reject)
        failed = [row for row in rows if row["error"]]
        assert failed
        assert all(row["fleet_0"] is None for row in failed)
        assert rows[0]["error"] == ""
        # D0 = 10 puts phi = 1 - k*D0 exactly at zero: every fleet is pinned
        # at zero abatement and re-enters once abatement is positive.
        assert rows[1]["scenario.D0"] == 10.0
        assert rows[1]["error"] == "ActiveSetChangeError"

    @pytest.mark.parametrize("override", ["scenario.X=1e308", "scenario.c=1e308"])
    def test_treaty_json_is_strict_when_the_shortfall_overflows(self, capsys, override):
        # 2 c X overflows, so each party's shortfall is infinite and its raw
        # response qbar - shortfall is -inf: written as null.
        code, out, err = run_cli(
            capsys, "treaty", "--scenario", str(FIXTURE), "--set", override
        )
        assert code == 0, err
        report = json.loads(out, parse_constant=_reject_constant)

        def nulls(value, path=()):
            if value is None:
                yield path
            elif isinstance(value, dict):
                for key, item in value.items():
                    yield from nulls(item, (*path, key))
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    yield from nulls(item, (*path, index))

        assert sorted(nulls(report)) == [
            ("variants", variant, "responses", party, "raw")
            for variant in sorted(report["variants"])
            for party in range(2)
        ]

    def test_treaty_needs_no_debris_headroom_beyond_zero_abatement(self, capsys):
        # Debris stock 20/27 at zero abatement: probing welfare at
        # abatement 1 or 2 would drive it below zero.
        code, out, err = run_cli(
            capsys, "treaty", "--scenario", str(FIXTURE), "--set", "scenario.p=0.2,0.2"
        )
        assert code == 0, err
        coefficients = json.loads(out)["variants"]["model-derived"]["coefficients"]
        assert all(entry["fit_residual"] < 1e-10 for entry in coefficients)

    def test_treaty_with_more_parties_than_markets(self, capsys):
        code, out, err = run_cli(
            capsys, "treaty", "--scenario", str(FIXTURE), "--set", "scenario.parties=4"
        )
        assert code == 0, err
        report = json.loads(out)
        for variant in report["variants"].values():
            assert len(variant["coefficients"]) == 4
            assert variant["coefficients"][3]["alpha"] == 0.0
        assert len(report["divergence"]) == 4

    def test_treaty_fit_residual_probe_keeps_the_stock_valid(self, capsys):
        # Debris stock 0.196 at zero abatement falls by 1/1.02 per unit of
        # abatement: a probe at abatement 0.5 would drive it below zero.
        overrides = ["scenario.p=0.05,0.05"]
        code, out, err = run_cli(
            capsys, "treaty", "--scenario", str(FIXTURE), "--set", overrides[0]
        )
        assert code == 0, err
        bundle = load_scenario(FIXTURE, overrides)
        w0 = national_welfare(bundle.scenario, bundle.taxes).welfare
        coefficients = json.loads(out)["variants"]["model-derived"]["coefficients"]
        for party, entry in enumerate(coefficients):
            assert entry["fit_residual"] <= 1e-12 * max(1.0, abs(w0[party]))

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["solve", "--strict"], ["treaty"], ["regulate"]],
        ids=["solve", "solve-strict", "treaty", "regulate"],
    )
    def test_huge_revenue_per_cost_runs_every_command(self, capsys, argv):
        # kd*r rounds to exactly 1 here, so any form dividing by 1 - kd*r
        # fails; share = 1 + 0.4*4e17 and each fleet is 2e17/share = 1.25.
        code, out, err = run_cli(
            capsys,
            *argv,
            "--scenario",
            str(FIXTURE),
            "--set",
            "scenario.k=0.4",
            "--set",
            "scenario.p=1e10,1e10",
            "--set",
            "scenario.m=1e-7,1e-7",
        )
        assert code == 0, err
        assert err == ""
        report = json.loads(out, parse_constant=_reject_constant)
        if argv[0] == "solve":
            assert report["fleets"] == pytest.approx([1.25, 1.25], rel=1e-12)
            assert report["assumptions"]["no_crowding_out"] == [True, True]
        if argv[0] == "regulate":
            assert report["equilibrium"]["fleets"] == pytest.approx([1.25, 1.25], rel=1e-12)

    def test_tiny_determinant_solves_exactly(self, capsys):
        overrides = ["scenario.d=1e7", "scenario.m=[1e-6,1e-6]", "scenario.p=[10,10]"]
        code, out, err = run_cli(
            capsys,
            "solve",
            "--scenario",
            str(FIXTURE),
            *(arg for override in overrides for arg in ("--set", override)),
        )
        assert code == 0, err
        report = json.loads(out, parse_constant=_reject_constant)
        bundle = load_scenario(FIXTURE, overrides)
        exact = exact_rho_form(bundle.scenario, bundle.taxes)
        for fleet, expected in zip(report["fleets"], exact["fleets"]):
            assert_exact(fleet, expected, floor=0)
        assert_exact(report["debris"]["survival"], exact["survival"], floor=0)
        assert_exact(report["determinant"], exact["determinant"], floor=0)

    def test_sweep_collision_rate_on_solo_has_no_failed_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--scenario",
            str(SOLO_FIXTURE),
            "--sweep",
            "scenario.k:0:0.3:13",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 13
        assert [row["error"] for row in rows] == [""] * 13

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("bogus:0:1:3", "unknown override key 'bogus'"),
            ("tax.3.1:0:1:3", "tax override (3, 1) outside the 2x2 schedule"),
            ("scenario.X:0:nan:3", "sweep bounds must be finite, got 0.0 and nan"),
        ],
        ids=["unknown-key", "tax-outside-schedule", "non-finite-bound"],
    )
    def test_sweep_axis_no_row_can_apply_exits_2(self, capsys, axis, message):
        code, out, err = run_cli(capsys, "sweep", "--scenario", str(FIXTURE), "--sweep", axis)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line, parse_constant=_reject_constant) == {
            "error": "OverrideError",
            "message": message,
        }

    def test_sweep_value_failing_at_some_rows_fails_only_those_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--scenario", str(FIXTURE), "--sweep", "scenario.n_markets:1:3:3"
        )
        assert code == 0, err
        rows = json.loads(out, parse_constant=_reject_constant)
        assert [row["scenario.n_markets"] for row in rows] == [1.0, 2.0, 3.0]
        assert [row["error"] for row in rows] == ["ScenarioValidationError", "", "ScenarioValidationError"]

    def test_verify_passes_on_reference_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--scenario",
            str(FIXTURE),
            "--seed",
            "42",
            "--random-count",
            "8",
        )
        assert code == 0
        digest_lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(digest_lines) == 9
        assert all(line.startswith("PASS") for line in digest_lines)

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_verify_rejects_a_random_count_below_one(self, capsys, count):
        # An empty batch would hand the checkers no bundle and pass vacuously.
        with pytest.raises(SystemExit) as stop:
            main(["verify", "--scenario", str(FIXTURE), "--seed", "1", "--random-count", count])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "random count must be at least 1" in captured.err

    def test_verify_rejects_a_negative_seed(self, capsys):
        # numpy's seed sequence takes no negative entropy.
        with pytest.raises(SystemExit) as stop:
            main(["verify", "--scenario", str(FIXTURE), "--seed", "-1", "--random-count", "1"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be non-negative" in captured.err

    @pytest.mark.parametrize("command", ["solve", "regulate", "treaty", "sweep"])
    def test_only_verify_takes_a_seed(self, capsys, command):
        # The other commands draw nothing, so --seed is a parse error there.
        argv = [command, "--scenario", str(FIXTURE), "--seed", "5"]
        if command == "sweep":
            argv += ["--sweep", "scenario.k:0:0.2:3"]
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed 5" in captured.err

    def test_verify_takes_no_format(self, capsys):
        # verify prints PASS/FAIL lines and a JSON digest whatever the format.
        argv = ["verify", "--scenario", str(FIXTURE), "--seed", "1", "--format", "csv"]
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --format csv" in captured.err

    def test_repeated_calls_share_one_parser_and_no_state(self, capsys):
        plain = ["solve", "--scenario", str(FIXTURE)]
        first = run_cli(capsys, *plain)
        overridden = run_cli(capsys, *plain, "--set", "scenario.k=0.2", "--set", "tax.1.1=0.5")
        assert overridden[0] == 0 and overridden[1] != first[1]
        assert run_cli(capsys, *plain) == first
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(["solve", "--scenario", str(FIXTURE), "--bogus"])
            assert stop.value.code == 2
            assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run_cli(capsys, *plain) == first
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "orbituse", "solve", "--scenario", str(FIXTURE)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["fleets"]

    def test_regulate_loads_no_scipy(self):
        script = (
            "import contextlib, io, sys\n"
            "from orbituse.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['regulate', '--scenario', {str(FIXTURE)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0 []\n"


def test_scripts_run_and_the_legacy_sweep_flips_at_two(tmp_path):
    scripts = FIXTURE.parent.parent / "scripts"
    sweep = subprocess.run(
        [sys.executable, str(scripts / "legacy_debris_sweep.py"), "--out", str(tmp_path / "sweep.csv")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert sweep.returncode == 0, sweep.stderr
    assert "condition flip at legacy debris 2.000:" in sweep.stdout
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 18
    report = subprocess.run(
        [sys.executable, str(scripts / "reference_report.py")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert report.returncode == 0, report.stderr
    assert report.stdout.count("== ") == 3
    ops = ["regulate/0", "verify/sym2-1"]
    digests = subprocess.run(
        [sys.executable, str(scripts / "pool_digests.py"), *ops],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert digests.returncode == 0, digests.stderr
    found = json.loads(digests.stdout)
    assert list(found) == ops
    assert all(len(value) == 64 and int(value, 16) >= 0 for value in found.values())
