"""Scenario runner: worked equivalence questions as data, answers as reports.

A scenario is a JSON config naming a surface model, the curve classes to
probe, and a verdict rule, together with an expected-value table in which
every constant carries a provenance string (the one-line arithmetic that
justifies it, so a reader can audit the number without the source tree).

run_scenario runs the declared stages of the scenario's kind (_STAGES), decides
the verdict by the config's rule (_VERDICT_RULES) and compares against the
expected table key by key.  A stage that raises leaves ERROR strings in its
keys and the stages that need it are skipped; the run carries on, but any
stage error fails the report.  Reports are deterministic: identical inputs
give byte-identical JSON (sorted keys, no timestamps).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Callable

from ._record import Record, set_field
from .family_checks import dominance_count, grassmannian_dim, monoid_ce_predicate
from .feasibility import build_obstruction_system, decide_obstruction_system
from .lattice import DivisorClass, pair
from .log_kodaira import negativity_certificate
from .projection import project_to_p3
from .surfaces import (
    PolarizedSurface,
    make_bordiga,
    make_dp6,
    make_f0_sextic,
    make_sz,
)
from .threefold import (
    BlowupThreefold,
    RayKind,
    classify_second_ray,
    fano_check,
    is_nef_on,
    kt_dot,
    st_dot,
)


class ScenarioConfigError(ValueError):
    """A scenario config is malformed; the message names the field."""


SURFACE_BUILDERS = {
    "f0_sextic": make_f0_sextic,
    "bordiga": make_bordiga,
    "dp6": make_dp6,
}

BUILTIN_SCENARIOS = ("sextic-ruled", "bordiga", "dp6", "family-open", "family-closed")

_NO_SEARCH_NOTE = (
    "non-equivalence, when certified, rests on an infeasibility certificate "
    "for the restriction system; nothing here searches through birational maps."
)


class _Rule(Record):
    def __init__(
        self,
        requires: dict,  # computed values the verdict needs, compared by _same
        verdict: str,  # the decisive verdict; INCONCLUSIVE when a requirement fails
        note: str = "",  # narrative line recorded when the rule decides
    ) -> None:
        set_field(self, "requires", requires)
        set_field(self, "verdict", verdict)
        set_field(self, "note", note)


# kind -> the computed key that carries the verdict
_VERDICT_KEYS = {"projection": "final_verdict", "family": "family_verdict"}

# kind -> verdict rule
_VERDICT_RULES = {
    "projection": {
        "obstruction": _Rule({"negativity": "NEGATIVE_CERTIFIED",
                              "obstruction_status": "INFEASIBLE"},
                             "NOT_CREMONA_EQUIVALENT_TO_PLANE"),
        "good_model": _Rule({"nef": True, "fano": True, "threshold_positive": True},
                            "CE_TO_PLANE_VIA_GOOD_MODEL"),
        "fibration": _Rule({"ray_kind": RayKind.FIBRATION.value, "fano": True},
                           "CE_TO_PLANE_VIA_FIBRATION"),
    },
    "family": {
        "not_open": _Rule({"monoid_ce": True}, "CE_TO_PLANE_NOT_OPEN"),
        "not_closed": _Rule({"dominant_possible": True}, "CE_TO_PLANE_NOT_CLOSED",
                            "assumption: generic finiteness of the parameterization "
                            "is recorded, not verified."),
    },
}


class Scenario(Record):
    """A scenario config; its name and kind are read from it."""

    def __init__(self, config: dict) -> None:
        set_field(self, "config", config)
        set_field(self, "name", config["name"])
        set_field(self, "kind", config["kind"])


class ScenarioReport(Record):
    """What a run computed against what its config expected.

    The verdicts are derived: a key passes when it was computed and equals its
    expected value in type and value, and the report passes when every key
    passes and every stage ran.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        computed: dict,
        expected: dict,
        narrative: tuple[str, ...],
        certificates: dict,
        stages_ran: bool,
    ) -> None:
        verdicts = {
            key: "PASS" if key in computed and _same(computed[key], entry["value"])
            else "FAIL"
            for key, entry in expected.items()
        }
        passed = stages_ran and all(v == "PASS" for v in verdicts.values())
        set_field(self, "name", name)
        set_field(self, "kind", kind)
        set_field(self, "computed", computed)
        set_field(self, "expected", expected)
        set_field(self, "narrative", narrative)
        set_field(self, "certificates", certificates)
        set_field(self, "stages_ran", stages_ran)
        set_field(self, "verdicts", verdicts)
        set_field(self, "overall", "PASS" if passed else "FAIL")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "overall": self.overall,
            "computed": self.computed,
            "expected": self.expected,
            "verdicts": self.verdicts,
            "narrative": list(self.narrative),
            "certificates": self.certificates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        out = [f"# scenario: {self.name}", "", f"overall: **{self.overall}**", ""]
        out.append("| key | computed | expected | verdict |")
        out.append("| --- | --- | --- | --- |")
        for key, exp in self.expected.items():
            got = self.computed.get(key, "(missing)")
            out.append(
                f"| {key} | {json.dumps(got)} | {json.dumps(exp['value'])} "
                f"| {self.verdicts[key]} |"
            )
        extra = [k for k in self.computed if k not in self.expected]
        if extra:
            out.append("")
            out.append("computed only (no expectation pinned):")
            for k in extra:
                out.append(f"- {k} = {json.dumps(self.computed[k])}")
        out.append("")
        out.append("## narrative")
        for line in self.narrative:
            out.append(f"- {line}")
        if "obstruction" in self.certificates:
            out.append("")
            out.append("## obstruction transcript")
            out.append("```")
            out.append(self.certificates["obstruction"]["transcript"])
            out.append("```")
        out.append("")
        return "\n".join(out)


def _same(a, b) -> bool:
    """Equal in type and value, lists element by element: 1 is neither True nor 1.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


def _int_fields(block, *names: str) -> bool:
    return isinstance(block, dict) and all(_is_int(block.get(n)) for n in names)


def _validate(cfg: dict, origin: str) -> None:
    def need(field: str, where: dict = cfg, ctx: str = ""):
        if field not in where:
            raise ScenarioConfigError(f"{origin}: missing field '{ctx}{field}'")
        return where[field]

    name = need("name")
    if not isinstance(name, str) or not name:
        raise ScenarioConfigError(f"{origin}: field 'name' must be a nonempty string")
    kind = need("kind")
    if kind not in ("projection", "family"):
        raise ScenarioConfigError(
            f"{origin}: field 'kind' must be 'projection' or 'family', got {kind!r}"
        )
    expected = need("expected")
    if not isinstance(expected, dict) or not expected:
        raise ScenarioConfigError(f"{origin}: field 'expected' must be a nonempty map")
    for key, entry in expected.items():
        if not isinstance(entry, dict) or "value" not in entry:
            raise ScenarioConfigError(
                f"{origin}: field 'expected.{key}' needs a 'value'"
            )
        if not isinstance(entry.get("provenance"), str) or not entry["provenance"]:
            raise ScenarioConfigError(
                f"{origin}: field 'expected.{key}.provenance' must be a "
                "nonempty string"
            )
    rule = need("verdict_rule")
    if not isinstance(rule, str) or rule not in _VERDICT_RULES[kind]:
        raise ScenarioConfigError(
            f"{origin}: field 'verdict_rule' must be one of "
            f"{'/'.join(_VERDICT_RULES[kind])}, got {rule!r}"
        )
    if kind == "projection":
        _validate_projection(cfg, origin, need)
    else:
        _validate_family(cfg, origin)


def _validate_projection(cfg: dict, origin: str, need) -> None:
    def label(val, field: str) -> str:
        if not isinstance(val, str) or not val:
            raise ScenarioConfigError(
                f"{origin}: field '{field}' must be a nonempty string label, got {val!r}"
            )
        return val

    surface = need("surface")
    if isinstance(surface, str):
        if surface not in SURFACE_BUILDERS:
            raise ScenarioConfigError(
                f"{origin}: field 'surface' names no builder: {surface!r} "
                f"(have {sorted(SURFACE_BUILDERS)})"
            )
    elif isinstance(surface, dict):
        _validate_surface_model(surface, origin, need)
    else:
        raise ScenarioConfigError(
            f"{origin}: field 'surface' must be a builder name or an inline model"
        )
    classes = need("classes")
    if not isinstance(classes, list) or not classes:
        raise ScenarioConfigError(f"{origin}: field 'classes' must be a nonempty list")
    labels = set()
    for i, entry in enumerate(classes):
        if not isinstance(entry, dict) or "label" not in entry or "coeffs" not in entry:
            raise ScenarioConfigError(
                f"{origin}: field 'classes[{i}]' needs 'label' and 'coeffs'"
            )
        if not _int_list(entry["coeffs"]):
            raise ScenarioConfigError(
                f"{origin}: field 'classes[{i}].coeffs' must be a list of integers"
            )
        lab = label(entry["label"], f"classes[{i}].label")
        if lab in labels:
            raise ScenarioConfigError(
                f"{origin}: field 'classes[{i}].label' repeats label {lab!r}"
            )
        labels.add(lab)
    for field in ("incidence_classes", "curve_cone", "ray_probes", "fano_rays"):
        vals = need(field)
        if not isinstance(vals, list) or not vals:
            raise ScenarioConfigError(
                f"{origin}: field '{field}' must be a nonempty list of labels"
            )
        for k, lab in enumerate(vals):
            if label(lab, f"{field}[{k}]") not in labels:
                raise ScenarioConfigError(
                    f"{origin}: field '{field}' references unknown label {lab!r}"
                )
    ray = label(need("second_ray"), "second_ray")
    if ray not in labels:
        raise ScenarioConfigError(
            f"{origin}: field 'second_ray' references unknown label {ray!r}"
        )
    if "deg_gamma" in cfg and not (_is_int(cfg["deg_gamma"]) and cfg["deg_gamma"] >= 1):
        raise ScenarioConfigError(
            f"{origin}: field 'deg_gamma' must be a positive integer, "
            f"got {cfg['deg_gamma']!r}"
        )
    if "contracting_divisor" in cfg:
        cd = cfg["contracting_divisor"]
        if not _int_fields(cd, "h", "e"):
            raise ScenarioConfigError(
                f"{origin}: field 'contracting_divisor' needs integer 'h' and 'e'"
            )


def _validate_surface_model(model: dict, origin: str, need) -> None:
    """The keys PolarizedSurface.from_json_dict reads, with integer entries."""
    def check(ok: bool, field: str, what: str, got) -> None:
        if not ok:
            raise ScenarioConfigError(
                f"{origin}: field 'surface.{field}' must be {what}, got {got!r}"
            )

    def nonempty_str(v) -> bool:
        return isinstance(v, str) and bool(v)

    name = need("name", model, "surface.")
    check(nonempty_str(name), "name", "a nonempty string", name)
    lat = need("lattice", model, "surface.")
    check(isinstance(lat, dict), "lattice", "a map", lat)
    lat_name = need("name", lat, "surface.lattice.")
    check(nonempty_str(lat_name), "lattice.name", "a nonempty string", lat_name)
    basis = need("basis", lat, "surface.lattice.")
    check(
        isinstance(basis, list) and bool(basis) and all(map(nonempty_str, basis)),
        "lattice.basis", "a nonempty list of nonempty strings", basis,
    )
    n = len(basis)

    def row(v) -> bool:
        return _int_list(v) and len(v) == n

    gram = need("gram", lat, "surface.lattice.")
    check(
        isinstance(gram, list) and len(gram) == n and all(map(row, gram)),
        "lattice.gram", f"a {n}x{n} matrix of integers", gram,
    )
    check(
        all(gram[i][j] == gram[j][i] for i in range(n) for j in range(i)),
        "lattice.gram", "symmetric", gram,
    )
    canonical = need("canonical", lat, "surface.lattice.")
    check(row(canonical), "lattice.canonical", f"a list of {n} integers", canonical)
    polarization = need("polarization", model, "surface.")
    check(row(polarization), "polarization", f"a list of {n} integers", polarization)


def _validate_family(cfg: dict, origin: str) -> None:
    def grassmannian(g, field: str) -> None:
        if not (_int_list(g) and len(g) == 2 and 0 <= g[0] < g[1]):
            raise ScenarioConfigError(
                f"{origin}: field '{field}' must be [k, n] with 0 <= k < n, got {g!r}"
            )

    if "monoid" not in cfg and "dominance" not in cfg:
        raise ScenarioConfigError(
            f"{origin}: family scenario needs 'monoid' or 'dominance'"
        )
    if "monoid" in cfg:
        m = cfg["monoid"]
        if not _int_fields(m, "degree", "point_multiplicity"):
            raise ScenarioConfigError(
                f"{origin}: field 'monoid' needs integer 'degree' and "
                "'point_multiplicity'"
            )
        if m["degree"] < 1:
            raise ScenarioConfigError(
                f"{origin}: field 'monoid.degree' must be at least 1, got {m['degree']}"
            )
        if not 0 <= m["point_multiplicity"] <= m["degree"]:
            raise ScenarioConfigError(
                f"{origin}: field 'monoid.point_multiplicity' must lie in "
                f"[0, degree {m['degree']}], got {m['point_multiplicity']}"
            )
    if "grassmannian" in cfg:
        grassmannian(cfg["grassmannian"], "grassmannian")
    if "dominance" in cfg:
        d = cfg["dominance"]
        if not (
            isinstance(d, dict)
            and _int_list(d.get("param_space_dims"))
            and _int_list(d.get("grassmannian"))
            and len(d["grassmannian"]) == 2
        ):
            raise ScenarioConfigError(
                f"{origin}: field 'dominance' needs 'param_space_dims' "
                "(integers) and 'grassmannian' [k, n]"
            )
        if any(x < 0 for x in d["param_space_dims"]):
            raise ScenarioConfigError(
                f"{origin}: field 'dominance.param_space_dims' must be "
                f"nonnegative, got {d['param_space_dims']!r}"
            )
        grassmannian(d["grassmannian"], "dominance.grassmannian")


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioConfigError(f"{p}: cannot read config: {exc}") from exc
    return _parse_scenario(raw, str(p))


def _parse_scenario(raw: str, origin: str) -> Scenario:
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioConfigError(f"{origin}: not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioConfigError(f"{origin}: top level must be an object")
    _validate(cfg, origin)
    return Scenario(cfg)


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioConfigError(
            f"no built-in scenario {name!r} (have {list(BUILTIN_SCENARIOS)})"
        )
    raw = resources.files("cremeq").joinpath("data", f"{name}.json").read_text(
        encoding="utf-8"
    )
    return _parse_scenario(raw, f"builtin:{name}")


class _Run:
    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.computed: dict = {}
        self.narrative: list[str] = []
        self.certificates: dict = {}
        self.products: dict = {}  # stage name -> what it returned


class _Stage(Record):
    def __init__(
        self,
        name: str,  # a stage that needs this one is skipped as "<name> unavailable"
        run: Callable[[_Run], object],  # writes its part of the report, returns a product
        keys: Callable[[dict], list[str]],  # its computed keys, ERROR where unwritten on failure
        needs: str | None = None,
        when: Callable[[dict], bool] | None = None,  # runs only if when(cfg); None: always
    ) -> None:
        set_field(self, "name", name)
        set_field(self, "run", run)
        set_field(self, "keys", keys)
        set_field(self, "needs", needs)
        set_field(self, "when", when)


def _surface(run: _Run):
    spec = run.cfg["surface"]
    if isinstance(spec, str):
        surface = SURFACE_BUILDERS[spec]()
    else:
        surface = PolarizedSurface.from_json_dict(spec)
    table: dict[str, DivisorClass] = {}
    for i, entry in enumerate(run.cfg["classes"]):
        try:
            table[entry["label"]] = surface.lattice(entry["coeffs"])
        except ValueError as exc:
            raise ScenarioConfigError(
                f"field 'classes[{i}].coeffs' of {entry['label']!r}: {exc}"
            ) from exc
    run.computed["degree"] = surface.degree
    run.computed["sectional_genus"] = surface.sectional_genus
    run.narrative.append(
        f"surface {surface.name}: degree {surface.degree}, "
        f"sectional genus {surface.sectional_genus}."
    )
    return surface, table


def _model(run: _Run):
    surface, table = run.products["surface"]
    model = project_to_p3(
        surface,
        [table[lab] for lab in run.cfg["incidence_classes"]],
        deg_gamma=run.cfg.get("deg_gamma"),
    )
    run.computed["double_curve_degree"] = model.deg_gamma
    run.computed["double_point_class"] = list(model.gamma_w.coeffs)
    # the solve made Gamma_W . C equal to the residual count on each class C
    for lab in run.cfg["incidence_classes"]:
        run.computed[f"incidence.{lab}"] = pair(model.gamma_w, table[lab])
    run.narrative.append(
        f"double curve degree {model.deg_gamma}; double point class "
        f"{list(model.gamma_w.coeffs)}."
    )
    return model


def _ray_keys(cfg: dict) -> list[str]:
    keys = [f"{dot}.{lab}" for dot in ("st_dot", "kt_dot") for lab in cfg["ray_probes"]]
    keys += ["nef", "ray_kind", "fano", "degree_squared", "four_times_double_curve_degree"]
    # the threshold is reported only under a rule that decides on it
    if "threshold_positive" in _VERDICT_RULES["projection"][cfg["verdict_rule"]].requires:
        keys.append("threshold_positive")
    return keys


def _rays(run: _Run) -> None:
    cfg, computed, narrative = run.cfg, run.computed, run.narrative
    _, table = run.products["surface"]
    model = run.products["projection model"]
    t = BlowupThreefold(model)
    for lab in cfg["ray_probes"]:
        s = st_dot(t, table[lab])
        k = kt_dot(t, table[lab])
        computed[f"st_dot.{lab}"] = s
        computed[f"kt_dot.{lab}"] = k
        narrative.append(
            f"ray numbers on {lab}: surface degree {s}, canonical degree {k}."
        )
    cone = [table[lab] for lab in cfg["curve_cone"]]
    computed["nef"] = is_nef_on(t, cone)
    cd = cfg.get("contracting_divisor")
    rv = classify_second_ray(
        t,
        table[cfg["second_ray"]],
        cone=cone,
        contracting_divisor=(cd["h"], cd["e"]) if cd else None,
    )
    computed["ray_kind"] = rv.kind.value
    run.certificates["second_ray"] = rv.to_json_dict()
    narrative.append(f"second ray {cfg['second_ray']}: classified {rv.kind.value}.")
    if rv.assumption:
        narrative.append(f"assumption: {rv.assumption}")
    computed["fano"] = fano_check(t, [table[lab] for lab in cfg["fano_rays"]])
    computed["degree_squared"] = model.deg_s**2
    computed["four_times_double_curve_degree"] = 4 * model.deg_gamma
    if "threshold_positive" in _ray_keys(cfg):
        thresh = computed["nef"] is True and rv.kind is RayKind.BIRATIONAL_CONTRACTION_FANO
        computed["threshold_positive"] = thresh
        if thresh:
            narrative.append(
                "nef with a birational second contraction: the surface "
                "class sits in the interior of the effective region, so "
                "its positivity threshold is strictly positive."
            )


def _negativity(run: _Run) -> None:
    model = run.products["projection model"]
    cert = negativity_certificate(model.deg_s, model.deg_gamma)
    run.computed["negativity"] = cert.verdict
    run.certificates["negativity"] = cert.to_json_dict()
    run.narrative.append(
        f"log Kodaira degree test: {cert.inequality} -> {cert.verdict}."
    )


def _obstruction(run: _Run) -> None:
    model = run.products["projection model"]
    sz = make_sz()
    if model.surface.lattice != sz.f0:
        raise ScenarioConfigError(
            "obstruction bookkeeping is defined for the quadric "
            f"model, not {model.surface.lattice.name!r}"
        )
    s_pull = model.deg_s * sz.from_f0.pullback(model.surface.polarization)
    e_total = sz.from_f0.pullback(model.gamma_w)
    h_pull = sz.from_plane.pullback(sz.plane((1,)))
    system = build_obstruction_system(sz, s_pull, h_pull, e_total)
    cert = decide_obstruction_system(system)
    run.computed["obstruction_status"] = cert.status
    final = cert.final_line_solved
    if final is None and cert.chain:
        final = cert.chain[-1].render(system.unknowns)
    run.computed["obstruction_final_line"] = final or ""
    run.certificates["obstruction"] = {**cert.to_json_dict(), "transcript": cert.transcript()}
    run.narrative.append(f"restriction system: {cert.status}.")
    if final:
        run.narrative.append(f"final derived line: {final}.")
    run.narrative.append(_NO_SEARCH_NOTE)


def _monoid(run: _Run) -> None:
    m = run.cfg["monoid"]
    flag = monoid_ce_predicate(m["degree"], m["point_multiplicity"])
    run.computed["monoid_ce"] = flag
    run.computed["boundary_verdict"] = "CE_TO_PLANE_VIA_MONOID" if flag else "INCONCLUSIVE"
    run.narrative.append(
        f"boundary member: degree {m['degree']} with a point of "
        f"multiplicity {m['point_multiplicity']}; monoid criterion "
        f"{'holds' if flag else 'fails'}."
    )


def _grassmannian(run: _Run) -> None:
    k, n = run.cfg["grassmannian"]
    dim = grassmannian_dim(k, n)
    run.computed["grassmannian_dim"] = dim
    run.narrative.append(f"projection centers vary in G({k},{n}), dimension {dim}.")


def _dominance(run: _Run) -> None:
    d = run.cfg["dominance"]
    k, n = d["grassmannian"]
    count = dominance_count(d["param_space_dims"], k, n)
    run.computed["dimension_lhs"] = count.lhs
    run.computed["dimension_rhs"] = count.rhs
    run.computed["dominant_possible"] = count.dominant_possible
    run.certificates["dimension_count"] = count.to_json_dict()
    run.narrative.append(
        f"dimension count: {count.lhs} vs dim G({k},{n}) = {count.rhs}; "
        f"dominance {'possible' if count.dominant_possible else 'ruled out'}."
    )


def _notes(run: _Run) -> None:
    cfg = run.cfg
    if "flat_limit" in cfg:
        run.narrative.append(
            f"flat limit metadata: {json.dumps(cfg['flat_limit'], sort_keys=True)} "
            "(recorded, not computed)."
        )
    for role in ("generic", "special"):
        if cfg.get(f"{role}_member"):
            run.narrative.append(
                f"{role} member verdict delegated to scenario "
                f"{cfg[f'{role}_member']!r}."
            )


_STAGES = {
    "projection": (
        _Stage("surface", _surface, lambda cfg: ["degree", "sectional_genus"]),
        _Stage("projection model", _model,
               lambda cfg: ["double_curve_degree", "double_point_class"]
               + [f"incidence.{lab}" for lab in cfg["incidence_classes"]],
               needs="surface"),
        _Stage("rays", _rays, _ray_keys, needs="projection model"),
        _Stage("negativity", _negativity, lambda cfg: ["negativity"],
               needs="projection model"),
        _Stage("obstruction", _obstruction,
               lambda cfg: ["obstruction_status", "obstruction_final_line"],
               needs="projection model",
               when=lambda cfg: cfg["verdict_rule"] == "obstruction"),
    ),
    "family": (
        _Stage("monoid", _monoid, lambda cfg: ["monoid_ce", "boundary_verdict"],
               when=lambda cfg: "monoid" in cfg),
        _Stage("grassmannian", _grassmannian, lambda cfg: ["grassmannian_dim"],
               when=lambda cfg: "grassmannian" in cfg),
        _Stage("dominance", _dominance,
               lambda cfg: ["dimension_lhs", "dimension_rhs", "dominant_possible"],
               when=lambda cfg: "dominance" in cfg),
        _Stage("notes", _notes, lambda cfg: []),
    ),
}


def run_scenario(scenario: Scenario) -> ScenarioReport:
    cfg = scenario.config
    run = _Run(cfg)
    stages = [s for s in _STAGES[scenario.kind] if s.when is None or s.when(cfg)]

    def fail(keys, exc) -> None:
        msg = f"ERROR: {type(exc).__name__}: {exc}"
        for k in keys:
            run.computed.setdefault(k, msg)
        run.narrative.append(msg)

    for stage in stages:
        try:
            if stage.needs is not None and stage.needs not in run.products:
                raise RuntimeError(f"{stage.needs} unavailable")
            run.products[stage.name] = stage.run(run)
        except Exception as exc:
            fail(stage.keys(cfg), exc)

    rule = _VERDICT_RULES[scenario.kind][cfg["verdict_rule"]]
    decided = all(_same(run.computed.get(k), v) for k, v in rule.requires.items())
    verdict = rule.verdict if decided else "INCONCLUSIVE"
    if decided and rule.note:
        run.narrative.append(rule.note)
    run.computed[_VERDICT_KEYS[scenario.kind]] = verdict
    run.narrative.append(f"verdict: {verdict}.")

    return ScenarioReport(
        name=scenario.name,
        kind=scenario.kind,
        computed=run.computed,
        expected=cfg["expected"],
        narrative=tuple(run.narrative),
        certificates=run.certificates,
        # a stage that raised or was skipped left no product
        stages_ran=len(run.products) == len(stages),
    )
