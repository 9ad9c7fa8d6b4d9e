import json
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from trotterkit import bl_metric
from trotterkit.cli import (
    ScenarioError,
    build_witnesses,
    load_scenario,
    main,
    run_diagnostics,
    run_identities,
    run_study,
)


def scenario_path(name):
    return str(resources.files("trotterkit").joinpath(f"scenarios/{name}.json"))


class TestScenarioLoading:
    def test_loads_bundled_scenarios(self):
        for name in ("three_state", "commuting", "translation", "linear_flow"):
            scn = load_scenario(scenario_path(name))
            assert scn.name == name
            assert scn.schedule

    def test_rejects_bad_schema_version(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schemaVersion": 2}')
        with pytest.raises(ScenarioError):
            load_scenario(str(p))

    def test_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(p))

    @pytest.mark.parametrize("name, edit, message", [
        ("three_state", lambda d: d["study"].update(metric="bogus"), "unknown metric 'bogus'"),
        ("three_state", lambda d: d["study"].update(order="bogus"), "unknown order 'bogus'"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "coordinate", "index": -1}),
         "-1 is not a state"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "coordinate", "index": 7}),
         "7 is not a state"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "indicator", "subset": [0, -1]}),
         "-1 is not a state"),
        ("three_state", lambda d: d["study"].update(schedule={"dyadic": 1}),
         "at least 3 entries"),
        ("three_state", lambda d: d["study"].update(t=-1), "t must be finite and nonnegative"),
        ("three_state", lambda d: d["mu0"]["atoms"][0].update(weight=float("nan")),
         "weights must be finite"),
        ("linear_flow", lambda d: d["mu0"]["atoms"][0].update(weight=float("inf")),
         "weights must be finite"),
        ("three_state", lambda d: d["study"].update(t=float("nan")),
         "t must be finite and nonnegative"),
        ("linear_flow", lambda d: d["witnesses"].append({"kind": "coordinate", "index": -1}),
         "coordinate index -1 outside R\\^2"),
        ("linear_flow", lambda d: d["witnesses"].append({"kind": "coordinate", "index": 2}),
         "coordinate index 2 outside R\\^2"),
        ("linear_flow", lambda d: d["mu0"]["atoms"].append({"point": [1.0, 0.0, 5.0], "weight": 1}),
         "not a point of R\\^2"),
        ("linear_flow", lambda d: d["witnesses"][2].update(center=[0.5]), "not a point of R\\^2"),
        ("translation", lambda d: d["g1"].update(map="rotation"), "rotation flow"),
        ("three_state", lambda d: d["g1"]["Q"][1].__setitem__(0, float("nan")),
         "generator has non-finite entries"),
        ("linear_flow", lambda d: d["g2"]["A"][1].__setitem__(0, float("nan")),
         "flow matrix has non-finite entries"),
        ("translation", lambda d: d["g1"]["params"].update(velocity=[float("nan")]),
         "translation flow .* non-finite velocity or rate"),
        # exp(1000) overflows, and the angle 1e300 * 1e10 is not finite
        ("translation", lambda d: d.update(g1={"kind": "map_flow", "map": "contraction",
                                               "params": {"rate": -1000}}),
         r"g1 contraction flow \{'rate': -1000\} overflows at time t = 1.0"),
        ("linear_flow", lambda d: d["study"].update(t=1e10) or d.update(
            g2={"kind": "map_flow", "map": "rotation", "params": {"rate": 1e300}}),
         r"g2 rotation flow \{'rate': 1e\+300\} overflows at time t = 10000000000.0"),
        ("linear_flow", lambda d: d["g1"].update(auxiliaryNormWeight="bogus"),
         "unknown auxiliaryNormWeight 'bogus'"),
        ("three_state", lambda d: d["g2"].update(auxiliaryNormWeight="bogus"),
         "unknown auxiliaryNormWeight 'bogus'"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "bogus"}),
         "unknown witness kind 'bogus'"),
        ("linear_flow", lambda d: d["witnesses"].append({"kind": "bogus"}),
         "unknown witness kind 'bogus'"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "random", "count": "x"}),
         "witness count must be an integer >= 1, got 'x'"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "random", "count": -3}),
         "witness count must be an integer >= 1, got -3"),
        ("linear_flow", lambda d: d["witnesses"].append({"kind": "random", "count": 0}),
         "witness count must be an integer >= 1, got 0"),
        ("linear_flow", lambda d: d["witnesses"][2].update(radius=0),
         "indicator radius must be finite and positive, got 0"),
        ("linear_flow", lambda d: d["witnesses"][2].update(radius=-1),
         "indicator radius must be finite and positive, got -1"),
        ("three_state", lambda d: d["mu0"].update(atoms=[]), "mu0 has no mass"),
        ("linear_flow", lambda d: d["mu0"].update(atoms=[]), "mu0 has no mass"),
        ("three_state", lambda d: d["mu0"].update(atoms=[{"point": 0, "weight": 0.0},
                                                         {"point": 2, "weight": 0}]),
         "mu0 has no mass"),
        ("three_state", lambda d: d.update(g1={"kind": "map_flow", "map": "translation",
                                               "params": {"velocity": [1.0]}}),
         "translation flow needs a Euclidean space, not a finite one"),
        # an edit that returns a value replaces the whole document
        ("three_state", lambda d: [], "invalid scenario: the top level is a JSON list"),
        ("three_state", lambda d: "x", "invalid scenario: the top level is a JSON str"),
        ("three_state", lambda d: 5, "invalid scenario: the top level is a JSON int"),
    ])
    def test_rejects_invalid_fields_with_one_message(self, tmp_path, name, edit, message):
        doc = json.loads(Path(scenario_path(name)).read_text())
        replaced = edit(doc)
        doc = doc if replaced is None else replaced
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(str(bad))
        result = CliRunner().invoke(main, ["study", "--scenario", str(bad),
                                           "--out", str(tmp_path / "out")])
        assert (result.exit_code, type(result.exception)) == (1, SystemExit)
        lines = result.output.strip().splitlines()  # one message, no traceback
        assert len(lines) == 1 and lines[0].startswith(f"{bad}: ")
        assert re.search(message, lines[0])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, message", [
        (["--dyadic", "1"], "at least 3 entries"),
        (["--linear", "2"], "at least 3 entries"),
        (["--t", "-1"], "t must be finite and nonnegative, got -1.0"),
        (["--t", "0"], "study needs a time horizon t > 0"),
        (["--t", "5e-324"], r"study needs t / 2\^12 > 0, got t = 5e-324"),
    ])
    def test_rejects_invalid_overrides_with_one_message(self, tmp_path, override, message):
        scenario = scenario_path("three_state")
        result = CliRunner().invoke(main, ["study", "--scenario", scenario,
                                           "--out", str(tmp_path / "out")] + override)
        assert (result.exit_code, type(result.exception)) == (1, SystemExit)
        lines = result.output.strip().splitlines()  # one message, no traceback
        assert len(lines) == 1 and lines[0].startswith(f"{scenario}: ")
        assert re.search(message, lines[0])
        assert not (tmp_path / "out").exists()

    def test_rejects_a_horizon_override_that_overflows_a_flow(self, tmp_path):
        doc = json.loads(Path(scenario_path("translation")).read_text())
        doc["g2"] = {"kind": "map_flow", "map": "contraction", "params": {"rate": -500.0}}
        path = tmp_path / "expanding.json"
        path.write_text(json.dumps(doc))
        assert load_scenario(str(path)).t == 1.0  # exp(500) is finite, exp(1000) is not
        result = CliRunner().invoke(main, ["study", "--scenario", str(path), "--t", "2",
                                           "--out", str(tmp_path / "out")])
        assert (result.exit_code, type(result.exception)) == (1, SystemExit)
        lines = result.output.strip().splitlines()  # one message, no traceback
        assert len(lines) == 1 and lines[0].startswith(f"{path}: ")
        assert "g2 contraction flow {'rate': -500.0} overflows at time t = 2.0" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_accepts_auxiliary_norm_weight(self, tmp_path):
        # the bundled lifts set "euclidean_norm" and "one"; a rate matrix may too
        doc = json.loads(Path(scenario_path("three_state")).read_text())
        doc["g1"]["auxiliaryNormWeight"] = "one"
        path = tmp_path / "aux.json"
        path.write_text(json.dumps(doc))
        assert load_scenario(str(path)).g1.kind == "matrix_exponential"

    def test_with_overrides_checks_again_and_keeps_the_original(self):
        scn = load_scenario(scenario_path("three_state"))
        fields = (scn.t, scn.schedule, scn.order, scn.metric)
        assert scn.dyadic and scn.schedule == tuple(2 ** j for j in range(11))
        for changes, message in [
            ({"schedule": (1, 2)}, "schedule needs at least 3 entries"),
            ({"t": -1.0}, "t must be finite and nonnegative, got -1.0"),
            ({"t": float("inf")}, "t must be finite and nonnegative, got inf"),
            ({"order": "21"}, "unknown order '21'"),
            ({"metric": "bogus"}, "unknown metric 'bogus'"),
        ]:
            with pytest.raises(ScenarioError, match=message) as info:
                scn.with_overrides(**changes)
            assert str(info.value).startswith(f"{scenario_path('three_state')}: ")
        assert (scn.t, scn.schedule, scn.order, scn.metric) == fields
        linear = scn.with_overrides(schedule=(1, 2, 3, 4), t=0.5)
        assert (linear.dyadic, linear.t, scn.dyadic, scn.t) == (False, 0.5, True, 1.0)
        assert linear.with_overrides(schedule=(1, 2, 4)).dyadic

    def test_witnesses_lie_in_unit_ball(self):
        scn = load_scenario(scenario_path("three_state"))
        rng = np.random.default_rng(0)
        for w in build_witnesses(scn.space, scn.witness_specs, rng):
            assert w.sup_bound + w.lip_bound <= 1.0 + 1e-12
            assert w.check_feasible(scn.space)


def _huge_coordinates(tmp_path, rate, t, points=None):
    """translation.json with g1 a contraction of ``rate`` up to time ``t``,
    and optionally mu0 on ``points`` (the bundled mu0 is a Dirac at 0)."""
    doc = json.loads(Path(scenario_path("translation")).read_text())
    doc["g1"] = {"kind": "map_flow", "map": "contraction", "params": {"rate": rate}}
    doc["study"]["t"] = t
    if points is not None:
        doc["mu0"]["atoms"] = [{"point": [x], "weight": 0.5} for x in points]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


def _assert_refused(result, prefix, message):
    assert (result.exit_code, type(result.exception)) == (1, SystemExit)
    lines = result.output.strip().splitlines()  # one message, no traceback
    assert len(lines) == 1 and lines[0].startswith(f"{prefix}: ")
    assert re.search(message, lines[0])


class TestStudy:
    # a warning would print a second line on stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate, t, points, message", [
        # exp(705) is finite, but the atoms at 100 exp(705) are not
        (-705.0, 1.0, [100.0, -100.0], "support points lie inf apart"),
        # exp(20000 * 0.01) is finite; the translation moves the Dirac off 0 first
        (-20000.0, 0.01, None, r"support points lie 3\.5\d*e\+84 apart"),
    ])
    def test_refuses_distances_the_norm_lp_cannot_take(self, tmp_path, rate, t, points,
                                                       message):
        path = _huge_coordinates(tmp_path, rate, t, points)
        result = CliRunner().invoke(main, ["study", "--scenario", str(path),
                                           "--out", str(tmp_path / "out")])
        _assert_refused(result, path, message + "; the BL norm LP needs distances below 1e\\+15")
        assert not (tmp_path / "out").exists()

    def test_three_state_exit_zero_and_reports(self, tmp_path):
        code = run_study(scenario_path("three_state"), tmp_path, seed=42)
        assert code == 0
        for f in ("report.csv", "summary.json", "modulus.csv", "bounds.csv"):
            assert (tmp_path / f).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["fittedRate"] == pytest.approx(1.0, abs=0.05)
        assert summary["violations"] == []

    def test_commuting_distances_tiny(self, tmp_path):
        code = run_study(scenario_path("commuting"), tmp_path, seed=42)
        assert code == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()[2:]
        assert all(float(line.split(",")[1]) <= 1e-9 for line in lines)

    def test_outputs_byte_deterministic(self, tmp_path):
        run_study(scenario_path("three_state"), tmp_path / "a", seed=7)
        run_study(scenario_path("three_state"), tmp_path / "b", seed=7)
        for f in ("report.csv", "summary.json", "modulus.csv", "bounds.csv"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_header_lines_carry_hash_and_version(self, tmp_path):
        run_study(scenario_path("three_state"), tmp_path, seed=0)
        first = (tmp_path / "report.csv").read_text().splitlines()[0]
        header = json.loads(first.lstrip("# "))
        assert {"scenarioHash", "toolVersion", "scenario", "seed"} <= header.keys()

    def test_cli_exit_code_on_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        runner = CliRunner()
        result = runner.invoke(main, ["study", "--scenario", str(bad),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1

    def test_order_and_schedule_overrides(self, tmp_path):
        code = run_study(scenario_path("three_state"), tmp_path, seed=0,
                         overrides={"dyadic": 6, "order": "21", "t": 0.5})
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["order"] == "g2_first"

    def test_study_solves_at_most_ten_lps(self, tmp_path, lp_calls):
        assert run_study(scenario_path("three_state"), tmp_path, seed=0) == 0
        assert 1 <= len(lp_calls) <= 10  # one batched solve per group of norms

    def test_study_solves_the_base_modulus_once(self, tmp_path, lp_calls, monkeypatch):
        blocks = []
        flow_lp = bl_metric._flow_lp
        monkeypatch.setattr(bl_metric, "_flow_lp",
                            lambda batch: blocks.append(len(batch)) or flow_lp(batch))
        assert run_study(scenario_path("three_state"), tmp_path, seed=0) == 0
        # the schedule's 11 distances, omega on its 13-point grid, the five
        # sampled operators' pushed moduli on that grid (without omega's 13
        # again: 103 blocks in all before), the swap-order distance
        assert blocks == [11, 13, 5 * 13, 1] and len(lp_calls) == 4

    def test_envelope_metric_option(self, tmp_path):
        code = run_study(scenario_path("three_state"), tmp_path, seed=0,
                         overrides={"metric": "envelope", "dyadic": 5})
        assert code == 0
        assert json.loads((tmp_path / "summary.json").read_text())["metric"] == "envelope"


class TestIdentitiesCommand:
    def test_exit_zero_and_payload(self, tmp_path):
        out = tmp_path / "identities.json"
        assert run_identities(seed=42, trials=2, max_states=4, out_path=out) == 0
        payload = json.loads(out.read_text())
        assert payload["failures"] == []
        assert all(r["passed"] for r in payload["results"])

    def test_out_in_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.json"
        result = CliRunner().invoke(main, ["identities", "--trials", "1", "--max-states", "3",
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["trials"] == 1

    def test_cli_rejects_zero_trials(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["identities", "--trials", "0",
                                      "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1


class TestDiagnosticsCommand:
    def test_stochastic_translation_exact(self, tmp_path):
        code = run_diagnostics(scenario_path("translation"), "stochastic",
                               tmp_path, seed=0)
        assert code == 0
        lines = (tmp_path / "stochastic.csv").read_text().splitlines()[2:]
        h, d = map(float, lines[0].split(","))
        assert d == pytest.approx(2 * h / (2 + h), abs=1e-9)

    def test_stochastic_grid_past_the_horizon_refuses_an_overflow(self, tmp_path):
        # exp(20000 * 0.01) is finite, but the h grid starts at 0.1
        doc = json.loads(Path(scenario_path("translation")).read_text())
        doc["g1"] = {"kind": "map_flow", "map": "contraction", "params": {"rate": -20000.0}}
        doc["study"]["t"] = 0.01
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["diagnostics", "--scenario", str(path), "--probe",
                                           "stochastic", "--out", str(tmp_path / "out")])
        assert (result.exit_code, type(result.exception)) == (1, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{path}: ")
        assert lines[0].endswith("overflows at time h = 0.1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("probe", ["equicontinuity", "feller", "semigroup", "stochastic"])
    def test_refuses_distances_the_norm_lp_cannot_take(self, tmp_path, probe):
        path = _huge_coordinates(tmp_path, -705.0, 1.0, [100.0, -100.0])
        result = CliRunner().invoke(main, ["diagnostics", "--scenario", str(path), "--probe",
                                           probe, "--out", str(tmp_path / "out")])
        _assert_refused(result, path, r"apart; the BL norm LP needs distances below 1e\+15")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_tightness_takes_distances_past_the_float_range(self, tmp_path):
        """The tightness probe solves no LP: every operator of its family
        carries the atoms at +-100 so far out that their distance from the
        centroid overflows to inf, outside every radius, and the run gives
        no warning."""
        path = _huge_coordinates(tmp_path, -705.0, 1.0, [100.0, -100.0])
        result = CliRunner().invoke(main, ["diagnostics", "--scenario", str(path), "--probe",
                                           "tightness", "--out", str(tmp_path / "out")])
        assert (result.exit_code, result.output) == (0, "")
        lines = (tmp_path / "out" / "tightness.csv").read_text().splitlines()
        assert lines[1] == "operator,radius,massOutside"
        rows = [line.split(",") for line in lines[2:]]
        assert len({row[0] for row in rows}) == 3 and len({row[1] for row in rows}) == 16
        assert {row[2] for row in rows} == {"1.0"}

    def test_tightness_finite_all_zero(self, tmp_path):
        code = run_diagnostics(scenario_path("three_state"), "tightness",
                               tmp_path, seed=0)
        assert code == 0
        lines = (tmp_path / "tightness.csv").read_text().splitlines()[2:]
        assert all(float(line.split(",")[2]) == 0.0 for line in lines)

    def test_feller_table_written(self, tmp_path):
        code = run_diagnostics(scenario_path("three_state"), "feller",
                               tmp_path, seed=0)
        assert code == 0
        assert (tmp_path / "feller.csv").exists()


class TestNormCommand:
    def test_distance_between_measure_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"atoms": [{"point": 0, "weight": 1.0}]}')
        b.write_text('{"atoms": [{"point": 2, "weight": 1.0}]}')
        runner = CliRunner()
        result = runner.invoke(main, ["norm", "--scenario",
                                      scenario_path("three_state"), str(a), str(b)])
        assert result.exit_code == 0
        assert float(result.output.strip()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("atoms, message", [
        ('[{"point": 0, "weight": NaN}]', "weights must be finite"),
        ('[{"point": 0, "weight": 1e400}]', "weights must be finite"),
        ('[{"point": 7, "weight": 1.0}]', "7 is not a state"),
        ('[{"point": 0}]', "missing key 'weight'"),
        ('[{"point": 0, "weight": 1.0}', "line 1 column"),
        ('5', "not iterable"),
        (None, "No such file"),
    ])
    def test_rejects_bad_measure_file_with_one_message(self, tmp_path, atoms, message):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        if atoms is not None:
            a.write_text(f'{{"atoms": {atoms}}}')
        b.write_text('{"atoms": [{"point": 2, "weight": 1.0}]}')
        result = CliRunner().invoke(main, ["norm", "--scenario",
                                           scenario_path("three_state"), str(a), str(b)])
        assert (result.exit_code, type(result.exception)) == (1, SystemExit)
        lines = result.output.strip().splitlines()  # one message, no traceback
        assert len(lines) == 1 and re.search(message, lines[0])
        assert lines[0].startswith(f"{a}: ")  # the message names the file

    @pytest.mark.parametrize("far", [1e14, 1e15])
    def test_three_atoms_far_apart(self, tmp_path, far):
        """HiGHS takes no matrix entry of 1e15 or more: at 1e14 the norm
        solves, at 1e15 it is refused with one line."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"atoms": [{"point": [0.0], "weight": 1.0}]}')
        b.write_text(json.dumps({"atoms": [{"point": [far], "weight": 0.5},
                                           {"point": [2 * far], "weight": 0.5}]}))
        result = CliRunner().invoke(main, ["norm", "--scenario",
                                           scenario_path("translation"), str(a), str(b)])
        if far < bl_metric.MAX_DISTANCE:
            assert result.exit_code == 0
            assert float(result.output.strip()) == pytest.approx(2.0, rel=1e-9)
        else:
            _assert_refused(result, f"{a}, {b}", r"support points lie 2000000000000000\.0 apart")
