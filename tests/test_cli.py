import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from trotterkit import bl_metric, cli, identities
from trotterkit.bl_metric import bl_distances
from trotterkit.cli import (
    MAX_SCHEDULE_BLOCKS,
    ScenarioError,
    _schedule,
    build_witnesses,
    load_scenario,
    main,
    run_diagnostics,
    run_identities,
    run_study,
)
from trotterkit.diagnostics import perturb_measures
from trotterkit.measures import StateSpace
from trotterkit.splitting import (
    SplittingStudy,
    commutator_modulus,
    estimate_limit,
    extended_commutator_constant,
    fit_rate,
    sample_scheme_family,
    swap_order_limit_distance,
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
        # a JSON boolean is not a state, nor a coordinate index
        ("three_state", lambda d: d["mu0"]["atoms"][0].update(point=True), "True is not a state"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "coordinate", "index": True}),
         "True is not a state"),
        ("three_state", lambda d: d["witnesses"].append({"kind": "indicator",
                                                         "subset": [False, True]}),
         "False is not a state"),
        ("linear_flow", lambda d: d["witnesses"].append({"kind": "coordinate", "index": False}),
         "coordinate index False outside R\\^2"),
        # nor a weight, a coordinate, a radius or a time horizon
        ("three_state", lambda d: d["mu0"]["atoms"][0].update(weight=True),
         "weight must be a number, got true"),
        ("linear_flow", lambda d: d["mu0"]["atoms"][0].update(weight=False),
         "weight must be a number, got false"),
        ("linear_flow", lambda d: d["mu0"]["atoms"][0].update(point=[True, False]),
         r"coordinates must be numbers, got point \[true, false\]"),
        ("linear_flow", lambda d: d["witnesses"][2].update(center=[0.5, True]),
         r"coordinates must be numbers, got point \[0.5, true\]"),
        ("linear_flow", lambda d: d["witnesses"][2].update(radius=True),
         "indicator radius must be a number, got true"),
        ("three_state", lambda d: d["study"].update(t=True),
         "time horizon t must be a number, got true"),
        ("three_state", lambda d: d["study"].update(schedule={"dyadic": 1}),
         "at least 3 entries"),
        ("three_state", lambda d: d["study"].update(schedule={"dyadic": 2000}),
         "a dyadic schedule count of 2000 asks for more than 2097152 Trotter blocks"),
        # nor an entry of a distance, generator or flow matrix, a velocity
        # (or one of its coordinates) or a rate
        ("three_state", lambda d: d["space"]["dist"][0].__setitem__(1, True),
         "distance matrix entry must be a number, got true"),
        ("three_state", lambda d: d["g1"]["Q"][0].__setitem__(1, True),
         "generator entry must be a number, got true"),
        ("linear_flow", lambda d: d["g2"]["A"][1].__setitem__(0, False),
         "flow matrix entry must be a number, got false"),
        ("translation", lambda d: d["g1"]["params"].update(velocity=[True]),
         "flow velocity must be a number, got true"),
        ("translation", lambda d: d["g2"]["params"].update(velocity=True),
         "flow velocity must be a number, got true"),
        ("translation", lambda d: d.update(g1={"kind": "map_flow", "map": "contraction",
                                               "params": {"rate": True}}),
         "flow rate must be a number, got true"),
        # the dimension and the schedule counts are JSON integers
        ("translation", lambda d: d["space"].update(dim=True),
         "space dim must be an integer, got true"),
        ("linear_flow", lambda d: d["space"].update(dim=2.0),
         "space dim must be an integer, got 2.0"),
        ("three_state", lambda d: d["study"].update(schedule={"dyadic": True}),
         "dyadic schedule count must be an integer, got true"),
        ("three_state", lambda d: d["study"].update(schedule={"dyadic": 3.7}),
         "dyadic schedule count must be an integer, got 3.7"),
        ("three_state", lambda d: d["study"].update(schedule={"dyadic": "4"}),
         'dyadic schedule count must be an integer, got "4"'),
        ("three_state", lambda d: d["study"].update(schedule={"linear": 4.0}),
         "linear schedule count must be an integer, got 4.0"),
        ("three_state", lambda d: d["space"].update(dist=5),
         r"distance matrix shape \(\) does not match size 0"),
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
        (["--dyadic", "2000"], "a dyadic schedule count of 2000 asks for more than 2097152"),
        (["--linear", "2048"], "a linear schedule count of 2048 asks for more than 2097152"),
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

    def test_schedule_counts_up_to_the_block_bound(self):
        """2^21 - 1 blocks for "dyadic": 20 and 2047 * 2048 / 2 for "linear":
        2047 are within MAX_SCHEDULE_BLOCKS = 2^21; one more count is not."""
        assert MAX_SCHEDULE_BLOCKS == 2 ** 21
        assert _schedule("s.json", "dyadic", 20)[-1] == 2 ** 20
        assert _schedule("s.json", "linear", 2047)[-1] == 2047
        for kind, n in (("dyadic", 21), ("linear", 2048), ("dyadic", 10 ** 18)):
            with pytest.raises(ScenarioError, match=f"^s.json: a {kind} schedule count of {n} "):
                _schedule("s.json", kind, n)

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

    def test_random_witnesses_on_euclidean_space(self):
        space = StateSpace.euclidean(3)
        specs = [{"kind": "random", "count": 4}]
        x = np.random.default_rng(0).normal(size=(60, 3)) * 3.0

        def values(seed):
            witnesses = build_witnesses(space, specs, np.random.default_rng(seed))
            assert len(witnesses) == 4
            return witnesses, np.array([[w.value_at(space, p) for p in x] for w in witnesses])

        witnesses, v = values(5)
        for w, row in zip(witnesses, v):
            assert w.sup_bound + w.lip_bound <= 1.0
            assert np.all(np.abs(row) <= w.sup_bound)
            gaps = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
            assert np.all(np.abs(row[:, None] - row[None, :]) <= w.lip_bound * gaps + 1e-15)
        assert np.array_equal(v, values(5)[1])  # equal seeds, equal witnesses
        assert not np.array_equal(v, values(6)[1])


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


def _table(path):
    """The rows of a command's CSV file, below its comment and column lines, as floats."""
    return [[float(cell) for cell in line.split(",")]
            for line in path.read_text().splitlines()[2:]]


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

    def test_study_solves_one_lp(self, tmp_path, lp_calls, block_solves):
        # every norm of the study in one batch: three_state's blocks are all
        # stars, solved without an LP; linear_flow's 4-point commutator
        # blocks are not, and share one LP
        for name, lps in (("three_state", 0), ("linear_flow", 1)):
            del lp_calls[:], block_solves[:]
            assert run_study(scenario_path(name), tmp_path / name, seed=0) == 0
            assert len(block_solves) == 1 and len(lp_calls) == lps

    def test_study_solves_the_base_modulus_once(self, tmp_path, block_solves):
        assert run_study(scenario_path("three_state"), tmp_path, seed=0) == 0
        # the schedule's 11 distances, omega on its 13-point grid, the five
        # sampled operators' pushed moduli on that grid (without omega's 13
        # again: 103 blocks in all before), the swap-order distance
        assert block_solves == [11 + 13 + 5 * 13 + 1]

    @pytest.mark.parametrize("name", ["three_state", "linear_flow"])
    def test_batched_values_match_the_standalone_functions(self, tmp_path, name):
        """The study's one batch gives the values of the splitting functions'
        own solves, up to solver rounding; C_hat is a ratio of small omega
        values, so it gets a looser bound."""
        assert run_study(scenario_path(name), tmp_path, seed=42) == 0
        scn = load_scenario(scenario_path(name))
        rng = np.random.default_rng(42)
        build_witnesses(scn.space, scn.witness_specs, rng)  # the draws before the family
        study = SplittingStudy(g1=scn.g1, g2=scn.g2, mu0=scn.mu0, t=scn.t,
                               schedule=scn.schedule, order=scn.order)
        modulus = _table(tmp_path / "modulus.csv")
        omega = commutator_modulus(scn.g1, scn.g2, scn.mu0, [row[0] for row in modulus])
        family = sample_scheme_family(scn.g1, scn.g2, scn.t / scn.schedule[-1], 5, rng,
                                      scn.order)
        c_hat, flags = extended_commutator_constant(scn.g1, scn.g2, scn.mu0, omega, family)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [row[1] for row in _table(tmp_path / "report.csv")] == pytest.approx(
            estimate_limit(study)[1].distances, rel=0, abs=1e-12)
        assert [row[1] for row in modulus] == pytest.approx(omega.values, rel=0, abs=1e-12)
        assert summary["swapDistance"] == pytest.approx(swap_order_limit_distance(study),
                                                        rel=0, abs=1e-12)
        assert summary["C_hat"] == pytest.approx(c_hat, rel=0, abs=1e-10)
        assert summary["C_hat_flags"] == flags

    def test_a_refuted_bound_exits_2_and_still_writes_every_report(self, tmp_path,
                                                                  monkeypatch):
        # C_hat forced to 0 makes every right side 0, so each refinement and
        # dyadic Cauchy bound whose left side exceeds 1e-12 is a violation
        monkeypatch.setattr(cli, "_pushed_constant", lambda omega, distances: (0.0, []))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["study", "--scenario", scenario_path("three_state"),
                                           "--out", str(out), "--seed", "42"])
        assert result.exit_code == 2, result.output
        for f in ("report.csv", "summary.json", "modulus.csv", "bounds.csv"):
            assert (out / f).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["C_hat"], summary["C_hat_flags"]) == (0.0, [])
        expected = []
        for line in (out / "bounds.csv").read_text().splitlines()[2:]:
            check, witness, a, b, lhs, rhs = line.split(",")
            assert float(rhs) == 0.0
            if float(lhs) > 1e-12:
                names = ("n", "k") if check == "refinement" else ("i", "j")
                expected.append({"kind": check, "witness": int(witness), names[0]: int(a),
                                 names[1]: int(b), "lhs": float(lhs), "rhs": 0.0})
        assert summary["violations"] == expected
        assert {v["kind"] for v in expected} == {"refinement", "dyadic_cauchy"}

    @pytest.mark.parametrize("g2", [None, {"kind": "map_flow", "map": "contraction",
                                           "params": {"rate": 1.0}}])
    def test_without_a_closed_form_limit_the_finest_iterate_is_the_reference(self, tmp_path,
                                                                              g2):
        # named flows have no closed-form limit; translation's two commute,
        # a contraction does not commute with a translation
        path = scenario_path("translation")
        if g2 is not None:
            doc = json.loads(Path(path).read_text())
            doc["g2"] = g2
            path = tmp_path / "contraction.json"
            path.write_text(json.dumps(doc))
        assert run_study(path, tmp_path / "out", seed=42) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["referenceKind"] == "finest_iterate"
        rows = _table(tmp_path / "out" / "report.csv")
        schedule, distances = [int(row[0]) for row in rows], [row[1] for row in rows]
        assert schedule == list(load_scenario(path).schedule) and distances[-1] == 0.0
        rate, saturated = fit_rate(schedule[:-1], distances[:-1])
        assert (summary["fittedRate"], summary["rateSaturated"]) == (rate, saturated)
        assert saturated == (g2 is None)

    def test_envelope_metric_option(self, tmp_path):
        code = run_study(scenario_path("three_state"), tmp_path, seed=0,
                         overrides={"metric": "envelope", "dyadic": 5})
        assert code == 0
        assert json.loads((tmp_path / "summary.json").read_text())["metric"] == "envelope"


class TestUsageErrors:
    """A usage error exits 1, as every input error does (2 is a quantitative
    finding), with click's message and without writing a file."""

    @pytest.mark.parametrize("args", [
        ["diagnostics", "--scenario", scenario_path("three_state"), "--probe", "bogus",
         "--out", "out"],
        ["study", "--scenario", scenario_path("three_state")],
        ["study", "--scenario", scenario_path("three_state"), "--out", "out", "--seed", "-1"],
        ["identities", "--out", "out/identities.json", "--seed", "-1"],
        ["diagnostics", "--scenario", scenario_path("three_state"), "--probe", "tightness",
         "--out", "out", "--seed", "-1"],
    ])
    def test_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, args)
        assert (result.exit_code, type(result.exception)) == (1, SystemExit)
        assert "Error: " in result.output and "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []


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

    def test_a_failed_check_exits_2_with_its_replay_data(self, tmp_path, monkeypatch):
        # a tolerance below 0 fails every check on matrix exponentials
        monkeypatch.setattr(identities, "MATRIX_TOL", -1.0)
        out = tmp_path / "identities.json"
        result = CliRunner().invoke(main, ["identities", "--seed", "42", "--trials", "2",
                                           "--max-states", "3", "--out", str(out)])
        assert result.exit_code == 2, result.output
        payload = json.loads(out.read_text())
        results, failures = payload["results"], payload["failures"]
        assert len(results) == 12 and not any(r["passed"] for r in results)
        assert [f["identity"] for f in failures] == [r["identityName"] for r in results]
        assert [f["deviation"] for f in failures] == [r["maxDeviation"] for r in results]
        assert [f["trial"] for f in failures] == [0] * 6 + [1] * 6
        for f in failures:
            assert f.keys() == {"trial", "seed", "states", "t", "n", "k", "j", "identity",
                                "deviation"}
            assert f["seed"] == 42 and 2 <= f["states"] <= 3 and 0.2 <= f["t"] <= 1.5
            assert 1 <= f["n"] <= 8 and 1 <= f["k"] <= 8 and 1 <= f["j"] <= f["n"] * f["k"]
        for trial in (failures[:6], failures[6:]):  # one instance per trial
            assert len({(f["states"], f["t"], f["n"], f["k"], f["j"]) for f in trial}) == 1

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

    def test_a_closed_form_mismatch_exits_2_and_still_writes_the_table(self, tmp_path,
                                                                      monkeypatch):
        args = ["diagnostics", "--scenario", scenario_path("translation"), "--probe",
                "stochastic", "--out"]
        assert CliRunner().invoke(main, args + [str(tmp_path / "exact")]).exit_code == 0
        # a closed form 1e-8 off, beyond the check's 1e-9
        monkeypatch.setattr(cli, "dirac_distance_exact", lambda d: 2.0 * d / (2.0 + d) + 1e-8)
        result = CliRunner().invoke(main, args + [str(tmp_path / "off")])
        assert result.exit_code == 2, result.output
        table = (tmp_path / "off" / "stochastic.csv").read_text()
        assert table == (tmp_path / "exact" / "stochastic.csv").read_text()
        assert [row[0] for row in _table(tmp_path / "off" / "stochastic.csv")] == list(
            cli.STOCHASTIC_H_GRID)

    def test_semigroup_table_written(self, tmp_path):
        assert run_diagnostics(scenario_path("three_state"), "semigroup", tmp_path, seed=0) == 0
        lines = (tmp_path / "semigroup.csv").read_text().splitlines()[2:]
        rows = [line.split(",") for line in lines]
        assert [name for name, _ in rows] == ["distPower", "distAdditive", "selfConvergence"]
        assert all(math.isfinite(float(v)) and float(v) >= 0.0 for _, v in rows)

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

    @pytest.mark.parametrize("name", ["three_state", "linear_flow"])
    @pytest.mark.parametrize("probe", ["equicontinuity", "feller"])
    def test_input_distances_match_a_fresh_solve(self, tmp_path, name, probe):
        """The probes reuse the perturbation search's distances; each probe
        draws its perturbations first, so the same seed redraws them."""
        assert run_diagnostics(scenario_path(name), probe, tmp_path, seed=42) == 0
        mu0 = load_scenario(scenario_path(name)).mu0
        perts = perturb_measures(mu0, [10.0 ** -e for e in range(1, 5)],
                                 np.random.default_rng(42))
        fresh = bl_distances([(mu0, nu) for nu in perts], mu0.space)
        reused = [row[0] for row in _table(tmp_path / f"{probe}.csv")]
        assert reused == pytest.approx(sorted(fresh), rel=0, abs=1e-12)


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
        ('[{"point": true, "weight": 1.0}]', "True is not a state"),
        ('[{"point": 0, "weight": true}]', "weight must be a number, got true"),
        ('[{"point": 1, "weight": 0.5}, {"point": 0, "weight": false}]',
         "weight must be a number, got false"),
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

    def test_rejects_boolean_coordinates_with_one_message(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"atoms": [{"point": [0.5], "weight": 1.0}]}')
        b.write_text('{"atoms": [{"point": [true], "weight": 1.0}]}')
        result = CliRunner().invoke(main, ["norm", "--scenario",
                                           scenario_path("translation"), str(a), str(b)])
        _assert_refused(result, b, r"coordinates must be numbers, got point \[true\]")

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
