import copy
import functools
import json
import operator
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import rebuild_chain
from cremeq import projection
from cremeq.cli import main
from cremeq.feasibility import replay_chain
from cremeq.scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    ScenarioConfigError,
    _parse_scenario,
    builtin_scenario,
    load_scenario,
    run_scenario,
)
from cremeq.surfaces import make_f0_sextic


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


_DROP = object()


def inline_f0(*path, value=_DROP):
    """A config edit: sextic-ruled's surface as an inline F0 model, with the
    field at path set to value, or dropped."""
    def mutate(cfg):
        model = make_f0_sextic().to_json_dict()
        if path:
            *parents, last = path
            where = model
            for key in parents:
                where = where[key]
            if value is _DROP:
                del where[last]
            else:
                where[last] = value
        cfg["surface"] = model

    return mutate


def perturbed_sextic(deg_gamma=11):
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    cfg["deg_gamma"] = deg_gamma
    return Scenario(cfg)


# --- configuration loading and validation ----------------------------------


def test_builtin_names_all_load():
    for name in BUILTIN_SCENARIOS:
        sc = builtin_scenario(name)
        assert sc.name == name


def test_builtin_unknown_name():
    with pytest.raises(ScenarioConfigError, match="no built-in"):
        builtin_scenario("quintic")


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioConfigError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioConfigError, match="not valid JSON"):
        load_scenario(p)


def test_load_scenario_nested_too_deeply(tmp_path):
    # the JSON parser gives up with RecursionError, which must not escape
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    with pytest.raises(ScenarioConfigError, match="not valid JSON: maximum recursion depth"):
        load_scenario(p)


def test_load_scenario_top_level_must_be_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    with pytest.raises(ScenarioConfigError, match="top level"):
        load_scenario(p)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: c.pop("surface"), "missing field 'surface'"),
        (lambda c: c.pop("classes"), "missing field 'classes'"),
        (lambda c: c.pop("expected"), "missing field 'expected'"),
        (lambda c: c.update(kind="other"), "field 'kind'"),
        (lambda c: c.update(verdict_rule="magic"), "field 'verdict_rule'"),
        (lambda c: c.update(surface="unknown_builder"), "names no builder"),
        (lambda c: c.update(second_ray="nope"), "unknown label 'nope'"),
        (lambda c: c.update(curve_cone=["nope"]), "unknown label 'nope'"),
        (lambda c: c.update(second_ray=["line_ruling"]), "field 'second_ray' must be"),
        (
            lambda c: c["classes"][0].update(label={"x": 1}),
            "field 'classes\\[0\\].label' must be",
        ),
        (
            lambda c: c["classes"].append({"label": "line_ruling", "coeffs": [1, 1]}),
            "field 'classes\\[2\\].label' repeats label 'line_ruling'",
        ),
        (lambda c: c.update(curve_cone=[["a"]]), "field 'curve_cone\\[0\\]' must be"),
        (lambda c: c.update(deg_gamma="ten"), "field 'deg_gamma'"),
        (lambda c: c.update(deg_gamma=0), "field 'deg_gamma' must be a positive integer, got 0"),
        (lambda c: c.update(deg_gamma=-3), "field 'deg_gamma' must be a positive integer, got -3"),
        (lambda c: c.update(contracting_divisor={"h": 1}), "contracting_divisor"),
        (
            lambda c: c["classes"].append({"label": "bad", "coeffs": [1, 0.5]}),
            "list of integers",
        ),
        (
            lambda c: c["expected"].update(degree={"value": 6}),
            "expected.degree.provenance",
        ),
        (inline_f0("lattice", "gram"), "missing field 'surface.lattice.gram'"),
        (inline_f0("name"), "missing field 'surface.name'"),
        (inline_f0("name", value=""), "field 'surface.name' must be"),
        (inline_f0("lattice", value=[1]), "field 'surface.lattice' must be a map"),
        (inline_f0("lattice", "name", value=7), "field 'surface.lattice.name'"),
        (inline_f0("lattice", "basis", value=[]), "field 'surface.lattice.basis'"),
        (inline_f0("lattice", "basis", value=["f1", 2]), "field 'surface.lattice.basis'"),
        (inline_f0("lattice", "gram", value=[[0, 1.5], [1.5, 0]]), "field 'surface.lattice.gram'"),
        (inline_f0("lattice", "gram", value=[[0, True], [True, 0]]), "field 'surface.lattice.gram'"),
        (inline_f0("lattice", "gram", value=[[0, 1]]), "field 'surface.lattice.gram' must be a 2x2"),
        (inline_f0("lattice", "gram", value=[[0, 1], [2, 0]]), "field 'surface.lattice.gram' must be symmetric"),
        (inline_f0("lattice", "canonical", value=[-2]), "field 'surface.lattice.canonical'"),
        (inline_f0("lattice", "canonical", value=[-2.0, -2]), "field 'surface.lattice.canonical'"),
        (inline_f0("polarization", value=[1.9, 3]), "field 'surface.polarization'"),
        (inline_f0("polarization", value="13"), "field 'surface.polarization'"),
        (inline_f0("polarization", value=[1, 3, 0]), "field 'surface.polarization'"),
    ],
)
def test_projection_config_validation(tmp_path, mutate, message):
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    mutate(cfg)
    p = write_config(tmp_path, cfg)
    with pytest.raises(ScenarioConfigError, match=message):
        load_scenario(p)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: c.update(verdict_rule="obstruction"), "field 'verdict_rule'"),
        (lambda c: c.pop("monoid"), "needs 'monoid' or 'dominance'"),
        (lambda c: c.update(monoid={"degree": 6}), "field 'monoid'"),
        (lambda c: c.update(grassmannian=[3]), "must be \\[k, n\\]"),
        (lambda c: c.update(grassmannian=[7, 3]), "field 'grassmannian' must be \\[k, n\\] with"),
        (
            lambda c: c.update(monoid={"degree": 3, "point_multiplicity": 5}),
            "field 'monoid.point_multiplicity'",
        ),
        (
            lambda c: c.update(monoid={"degree": 0, "point_multiplicity": 0}),
            "field 'monoid.degree'",
        ),
        (
            lambda c: c.update(dominance={"param_space_dims": [6, -1], "grassmannian": [3, 7]}),
            "field 'dominance.param_space_dims'",
        ),
        (
            lambda c: c.update(dominance={"param_space_dims": [1, 2], "grassmannian": [7, 3]}),
            "field 'dominance.grassmannian'",
        ),
    ],
)
def test_family_config_validation(tmp_path, mutate, message):
    cfg = json.loads(json.dumps(builtin_scenario("family-open").config))
    mutate(cfg)
    p = write_config(tmp_path, cfg)
    with pytest.raises(ScenarioConfigError, match=message):
        load_scenario(p)


# Values that configs get wrong: wrong types, empty values, unhashable ones,
# and integers on either side of a bound.
_POOL = (None, True, 1.5, "", [], {}, [7, 3], [[0, 1], [1, 0]], {"h": 1}, ["nope"], 0, -1)


def _nodes(cfg) -> list:
    """Every (path, value) inside a JSON value, the value itself excepted."""
    found, todo = [], [((), cfg)]
    while todo:
        path, node = todo.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
            node, list) else ()
        for key, value in items:
            todo.append(((*path, key), value))
            found.append(todo[-1])
    return found


def _mutant(base: str, rng: random.Random) -> dict:
    """The JSON config base with one or two edits: a key or element deleted, a
    value replaced from _POOL, or a value from _POOL appended to a list."""
    cfg = json.loads(base)
    for _ in range(rng.randint(1, 2)):
        nodes = _nodes(cfg)
        op = rng.choice(("delete", "append", "replace"))
        lists = [value for _, value in nodes if isinstance(value, list)]
        if op == "append" and lists:
            rng.choice(lists).append(copy.deepcopy(rng.choice(_POOL)))
            continue
        path, _ = rng.choice(nodes)
        where = functools.reduce(operator.getitem, path[:-1], cfg)
        if op == "delete":
            del where[path[-1]]
        else:
            where[path[-1]] = copy.deepcopy(rng.choice(_POOL))
    return cfg


def test_smallest_double_curve_degree_loads():
    # deg_gamma is bounded below by 1, and 1 itself loads
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    cfg["deg_gamma"] = 1
    assert _parse_scenario(json.dumps(cfg), "deg_gamma-1").config["deg_gamma"] == 1


def test_config_mutants_load_or_name_a_field():
    # a bad config fails with a ScenarioConfigError that names the field,
    # never with another exception, whatever JSON types it holds; the text
    # goes through the loader that load_scenario and builtin_scenario share
    inline = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    inline_f0()(inline)
    bases = [json.dumps(builtin_scenario(name).config) for name in BUILTIN_SCENARIOS]
    bases.append(json.dumps(inline))
    rng = random.Random(23)
    named = re.compile("mutant: (missing field '|field '|top level )")
    outcomes = Counter()
    for _ in range(1500):
        try:
            _parse_scenario(json.dumps(_mutant(rng.choice(bases), rng)), "mutant")
            outcomes["loaded"] += 1
        except ScenarioConfigError as exc:
            assert named.match(str(exc)), str(exc)
            outcomes["refused"] += 1
    # the counts follow from the bases: the built-in configs as shipped
    assert outcomes == {"loaded": 268, "refused": 1232}


# --- running ----------------------------------------------------------------


def test_all_builtins_pass():
    for name in BUILTIN_SCENARIOS:
        report = run_scenario(builtin_scenario(name))
        assert report.overall == "PASS", (name, report.verdicts)


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_builtin_report_matches_golden_file(name):
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    assert run_scenario(builtin_scenario(name)).to_json().encode() == golden.read_bytes()


def test_report_is_deterministic():
    a = run_scenario(builtin_scenario("bordiga")).to_json()
    b = run_scenario(builtin_scenario("bordiga")).to_json()
    assert a == b


def test_file_copy_reproduces_builtin_byte_for_byte(tmp_path):
    cfg = builtin_scenario("dp6").config
    p = write_config(tmp_path, cfg)
    from_file = run_scenario(load_scenario(p))
    builtin = run_scenario(builtin_scenario("dp6"))
    assert from_file.to_json() == builtin.to_json()
    assert from_file.to_markdown() == builtin.to_markdown()


def test_inline_surface_model_reproduces_builtin(tmp_path):
    # the inline model that config validation checks is exactly to_json_dict()
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    inline_f0()(cfg)
    inline = run_scenario(load_scenario(write_config(tmp_path, cfg)))
    assert inline.to_json() == run_scenario(builtin_scenario("sextic-ruled")).to_json()


def test_perturbed_double_curve_fails_exactly_where_expected():
    report = run_scenario(perturbed_sextic())
    assert report.overall == "FAIL"
    # still infeasible, but by a different derivation than the pinned one
    assert report.verdicts["obstruction_status"] == "PASS"
    assert report.verdicts["obstruction_final_line"] == "FAIL"
    assert report.verdicts["double_point_class"] == "FAIL"
    assert report.computed["double_point_class"] == [4, 10]
    assert report.computed["obstruction_final_line"] != "e = -2 - b2"


def test_broken_step_is_captured_not_raised():
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    cfg["incidence_classes"] = ["cubic_ruling"]  # degree-3 image: not planar
    report = run_scenario(Scenario(cfg))
    assert report.overall == "FAIL"
    assert report.computed["double_point_class"].startswith("ERROR: NotPlanarError")
    assert report.computed["final_verdict"] == "INCONCLUSIVE"
    # the surface-level numbers are still computed
    assert report.computed["degree"] == 6


def test_bad_class_fails_the_surface_stage_by_field():
    cfg = json.loads(json.dumps(builtin_scenario("dp6").config))
    i = next(i for i, e in enumerate(cfg["classes"]) if e["label"] == "l23")
    cfg["classes"][i]["coeffs"].append(0)  # one coefficient too many
    report = run_scenario(Scenario(cfg))
    assert report.overall == "FAIL"
    assert report.computed["degree"] == (
        f"ERROR: ScenarioConfigError: field 'classes[{i}].coeffs' of 'l23': "
        "class has 5 coefficients on a 4-dimensional lattice"
    )
    # no stage runs on a half-built class table
    assert report.computed["double_point_class"] == "ERROR: RuntimeError: surface unavailable"
    for key in ("nef", "negativity"):
        assert report.computed[key] == "ERROR: RuntimeError: projection model unavailable"
    assert report.computed["final_verdict"] == "INCONCLUSIVE"


@pytest.mark.parametrize(
    "name, declared, cone, steepest",
    [
        ("sextic-ruled", "cubic_ruling", None, "line_ruling"),
        ("bordiga", "c", None, "m1"),
        # a declared ray steeper than every generator does not tie either
        ("sextic-ruled", "line_ruling", ["cubic_ruling"], "cubic_ruling"),
    ],
    ids=["sextic-out-sloped", "bordiga-out-sloped", "sextic-outside-the-cone"],
)
def test_second_ray_that_does_not_tie_fails_the_rays_stage_by_field(
    name, declared, cone, steepest
):
    cfg = json.loads(json.dumps(builtin_scenario(name).config))
    cfg["second_ray"] = declared
    if cone:
        cfg["curve_cone"] = cone
    report = run_scenario(Scenario(cfg))
    assert report.overall == "FAIL"
    assert report.computed["ray_kind"] == (
        f"ERROR: ScenarioConfigError: field 'second_ray' {declared!r} does not tie "
        f"with {steepest!r}, the steepest generator of 'curve_cone'"
    )
    assert "second_ray" not in report.certificates


def test_cone_generator_without_slope_fails_the_rays_stage_by_field(tmp_path, capsys):
    # C.H = 1*3 - 4*1 = -1 on the sextic's H = (1, 3)
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    cfg["classes"].append({"label": "flat", "coeffs": [1, -4]})
    cfg["curve_cone"].append("flat")
    report = run_scenario(Scenario(cfg))
    assert report.overall == "FAIL"
    assert report.computed["ray_kind"] == (
        "ERROR: ScenarioConfigError: field 'curve_cone' 'flat': cone generator "
        "[1, -4] has C.H = -1 <= 0, so no slope"
    )
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert "field 'curve_cone' 'flat'" in capsys.readouterr().out


def test_second_ray_is_derived_or_a_tied_choice():
    # dp6's six lines tie: any of them may be declared, and the first in
    # curve_cone order is derived when none is; the numbers are the same
    base = run_scenario(builtin_scenario("dp6"))
    for declared in ("e1", "l23", None):
        cfg = json.loads(json.dumps(builtin_scenario("dp6").config))
        cfg.pop("second_ray")
        if declared:
            cfg["second_ray"] = declared
        report = run_scenario(Scenario(cfg))
        assert report.overall == "PASS" and report.computed == base.computed
        label = declared or "e1"
        assert f"second ray {label}: classified FIBRATION." in report.narrative
        assert report.certificates["second_ray"]["ray"] == next(
            e["coeffs"] for e in cfg["classes"] if e["label"] == label
        )


def obstruction_rule_unpinned(cfg):
    cfg["verdict_rule"] = "obstruction"
    del cfg["expected"]["final_verdict"]


@pytest.mark.parametrize(
    "name, mutate, error",
    [
        ("dp6", obstruction_rule_unpinned, "defined for the quadric model, not 'Bl3P2'"),
        (
            "family-open",
            lambda c: c.update(dominance={"param_space_dims": [1, 2], "grassmannian": [7, 3]}),
            "need 0 <= k < n, got k=7, n=3",
        ),
    ],
    ids=["dp6-obstruction", "family-open-dominance"],
)
def test_stage_error_fails_report_without_a_pinned_key(name, mutate, error):
    cfg = json.loads(json.dumps(builtin_scenario(name).config))
    mutate(cfg)
    report = run_scenario(Scenario(cfg))
    # every pinned value still matches; the error sits in unpinned keys only
    assert all(v == "PASS" for v in report.verdicts.values())
    assert any(line.startswith("ERROR: ") and error in line for line in report.narrative)
    assert report.overall == "FAIL"


def test_stale_obstruction_bound_is_ignored(tmp_path):
    # the verdict rule alone turns the stage on; on bordiga it would raise
    for name in ("sextic-ruled", "bordiga"):
        cfg = json.loads(json.dumps(builtin_scenario(name).config))
        cfg["obstruction"] = {"bound": -1}
        report = run_scenario(load_scenario(write_config(tmp_path, cfg)))
        assert report.to_json() == run_scenario(builtin_scenario(name)).to_json()


@pytest.mark.parametrize(
    "key, value",
    [("nef", 1), ("fano", 1.0), ("degree", 6.0), ("double_point_class", [9.0, -3, -3, -3])],
    ids=["nef-1", "fano-1.0", "degree-6.0", "double_point_class-9.0"],
)
def test_pins_compare_type_and_value(key, value):
    cfg = json.loads(json.dumps(builtin_scenario("dp6").config))
    cfg["expected"][key]["value"] = value
    report = run_scenario(Scenario(cfg))
    assert report.computed[key] == value  # equal under ==, yet a different type
    assert {k for k, v in report.verdicts.items() if v == "FAIL"} == {key}
    assert report.overall == "FAIL"


def test_each_incidence_class_is_counted_once(monkeypatch):
    counted = []
    incidence = projection._incidence

    def counting(surface, c, row):
        counted.append(c)
        return incidence(surface, c, row)

    monkeypatch.setattr(projection, "_incidence", counting)
    assert run_scenario(builtin_scenario("bordiga")).overall == "PASS"
    assert len(counted) == len(builtin_scenario("bordiga").config["incidence_classes"]) == 11


# a, b >= 3 would need the double point class without a line or conic
# incidence class (NotPlanarError today)
@pytest.mark.parametrize(
    "polarization", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4)], ids=str
)
def test_f0_restriction_system_is_decided_without_search(monkeypatch, polarization):
    def no_search(system, bound):
        raise AssertionError("the pipeline searched a box")

    monkeypatch.setattr("cremeq.feasibility._search_witness", no_search)
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    inline_f0("polarization", value=list(polarization))(cfg)
    report = run_scenario(Scenario(cfg))
    assert report.computed["obstruction_status"] == "INFEASIBLE"
    replay_chain(*rebuild_chain(report.certificates["obstruction"]))
    if polarization == (1, 2):
        # sign analysis decides nothing here; the e row of M^-1 does
        assert report.computed["obstruction_final_line"] == "e = -2 - a - b1 - b2"
        assert report.certificates["obstruction"]["chain"] == [{
            "id": "d1", "coeffs": [1, 0, 0, 1, 1, 1], "rhs": -2, "kind": "combination",
            "combination": [["eq1", 1], ["eq2", 1], ["eq3", -1]],
        }]
    assert run_scenario(builtin_scenario("sextic-ruled")).overall == "PASS"


def test_verdict_rule_needs_true_not_one(monkeypatch):
    monkeypatch.setattr("cremeq.scenarios.fano_check", lambda t, ray: 1)
    report = run_scenario(builtin_scenario("dp6"))
    assert report.computed["fano"] == 1
    assert report.computed["final_verdict"] == "INCONCLUSIVE"


def test_sextic_narrative_mentions_certificate_not_search():
    report = run_scenario(builtin_scenario("sextic-ruled"))
    joined = "\n".join(report.narrative)
    assert "infeasibility certificate" in joined
    assert "searches through birational maps" in joined
    assert "NOT_CREMONA_EQUIVALENT_TO_PLANE" in joined


def test_bordiga_narrative_records_the_assumption():
    report = run_scenario(builtin_scenario("bordiga"))
    joined = "\n".join(report.narrative)
    assert "assumed, not derived" in joined


def test_family_narratives():
    open_report = run_scenario(builtin_scenario("family-open"))
    assert open_report.computed["family_verdict"] == "CE_TO_PLANE_NOT_OPEN"
    assert any("delegated" in line for line in open_report.narrative)
    closed_report = run_scenario(builtin_scenario("family-closed"))
    assert closed_report.computed["family_verdict"] == "CE_TO_PLANE_NOT_CLOSED"
    assert any("not verified" in line for line in closed_report.narrative)


def test_markdown_shape():
    report = run_scenario(builtin_scenario("sextic-ruled"))
    md = report.to_markdown()
    assert "# scenario: sextic-ruled" in md
    assert "| degree | 6 | 6 | PASS |" in md
    assert "## narrative" in md
    assert "## obstruction transcript" in md
    assert "e = -2 - b2" in md


def test_obstruction_certificate_embedded_in_report():
    report = run_scenario(builtin_scenario("sextic-ruled"))
    cert = report.certificates["obstruction"]
    assert cert["status"] == "INFEASIBLE"
    assert cert["final_line_solved"] == "e = -2 - b2"
    assert [line["id"] for line in cert["chain"]] == ["d1", "z1", "z2", "z3", "d2"]


# --- CLI ---------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_SCENARIOS:
        assert name in out


def test_cli_run_pass(capsys):
    assert main(["run", "sextic-ruled"]) == 0
    out = capsys.readouterr().out
    assert "overall: **PASS**" in out


def test_cli_run_writes_reports(tmp_path, capsys):
    jpath = tmp_path / "out.json"
    mpath = tmp_path / "out.md"
    assert main(["run", "dp6", "--json", str(jpath), "--md", str(mpath)]) == 0
    capsys.readouterr()
    report = run_scenario(builtin_scenario("dp6"))
    assert jpath.read_text() == report.to_json()
    assert mpath.read_text() == report.to_markdown()


def test_cli_run_failing_config_exits_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    cfg["deg_gamma"] = 11
    p = write_config(tmp_path, cfg)
    assert main(["run", str(p)]) == 1
    out = capsys.readouterr().out
    assert "overall: **FAIL**" in out


def test_cli_run_out_sloped_second_ray_exits_1_naming_the_field(tmp_path, capsys):
    cfg = json.loads(json.dumps(builtin_scenario("sextic-ruled").config))
    cfg["second_ray"] = "cubic_ruling"
    p = write_config(tmp_path, cfg)
    assert main(["run", str(p)]) == 1
    out = capsys.readouterr().out
    assert "overall: **FAIL**" in out and "field 'second_ray'" in out


def test_cli_run_unknown_target_exits_2(capsys):
    assert main(["run", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert "neither a built-in scenario" in err


def test_cli_run_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    assert main(["run", str(p)]) == 2
    assert "missing field" in capsys.readouterr().err


def test_cli_run_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(p)]) == 2
    assert f"{p}: cannot read config: 'utf-8' codec" in capsys.readouterr().err


def test_cli_check_all(capsys):
    assert main(["check-all"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [f"{name}: PASS" for name in BUILTIN_SCENARIOS]


def test_cli_check_all_out_writes_every_report(tmp_path, capsys):
    assert main(["check-all"]) == 0
    plain = capsys.readouterr().out
    out = tmp_path / "reports"
    assert main(["check-all", "--out", str(out)]) == 0
    assert capsys.readouterr().out == plain
    golden = Path(__file__).parent / "golden"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{name}.{ext}" for name in BUILTIN_SCENARIOS for ext in ("json", "md")
    )
    for name in BUILTIN_SCENARIOS:
        assert (out / f"{name}.json").read_bytes() == (golden / f"{name}.json").read_bytes()
        report = run_scenario(builtin_scenario(name))
        assert (out / f"{name}.md").read_text() == report.to_markdown()


def test_cli_run_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert main(["run", "dp6", "--json", str(missing)]) == 2
    assert f"error: cannot write {missing}" in capsys.readouterr().err
    assert not missing.exists()


def test_cli_check_all_out_on_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["check-all", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out}" in captured.err
    assert captured.out.splitlines() == [f"{name}: PASS" for name in BUILTIN_SCENARIOS]


def test_cli_bound_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "sextic-ruled", "--bound", "50"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--bound" in captured.err
    assert captured.out == ""
