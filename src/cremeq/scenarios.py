"""Scenario runner: worked equivalence questions as data, answers as reports.

A scenario is a JSON config naming a surface model, the curve classes to
probe, and a verdict rule, together with an expected-value table in which
every constant carries a provenance string (the one-line arithmetic that
justifies it, so a reader can audit the number without the source tree).

run_scenario recomputes everything from the inputs, compares against the
expected table key by key, and returns a ScenarioReport.  A failing or
crashing step is captured per key as an ERROR string and the run carries on;
reports never abort halfway.  Reports are deterministic: identical inputs
give byte-identical JSON (sorted keys, no timestamps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .family_checks import dominance_count, grassmannian_dim, monoid_ce_predicate
from .feasibility import build_obstruction_system, solve_nonneg
from .lattice import DivisorClass
from .log_kodaira import negativity_certificate
from .projection import plane_image_incidence, project_to_p3
from .surfaces import (
    PolarizedSurface,
    make_bordiga,
    make_dp6,
    make_f0_sextic,
    make_sz,
)
from .threefold import (
    DOUBLE_LOCUS_MULTIPLICITY,
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


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    config: dict


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    kind: str
    computed: dict
    expected: dict
    verdicts: dict
    overall: str
    narrative: tuple[str, ...]
    certificates: dict

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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
    if kind == "projection":
        _validate_projection(cfg, origin, need)
    else:
        _validate_family(cfg, origin, need)


def _validate_projection(cfg: dict, origin: str, need) -> None:
    surface = need("surface")
    if isinstance(surface, str):
        if surface not in SURFACE_BUILDERS:
            raise ScenarioConfigError(
                f"{origin}: field 'surface' names no builder: {surface!r} "
                f"(have {sorted(SURFACE_BUILDERS)})"
            )
    elif not isinstance(surface, dict):
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
        if not isinstance(entry["coeffs"], list) or not all(
            _is_int(c) for c in entry["coeffs"]
        ):
            raise ScenarioConfigError(
                f"{origin}: field 'classes[{i}].coeffs' must be a list of integers"
            )
        labels.add(entry["label"])
    for field in ("incidence_classes", "curve_cone", "ray_probes", "fano_rays"):
        vals = need(field)
        if not isinstance(vals, list) or not vals:
            raise ScenarioConfigError(
                f"{origin}: field '{field}' must be a nonempty list of labels"
            )
        for lab in vals:
            if lab not in labels:
                raise ScenarioConfigError(
                    f"{origin}: field '{field}' references unknown label {lab!r}"
                )
    ray = need("second_ray")
    if ray not in labels:
        raise ScenarioConfigError(
            f"{origin}: field 'second_ray' references unknown label {ray!r}"
        )
    rule = need("verdict_rule")
    if rule not in ("obstruction", "good_model", "fibration"):
        raise ScenarioConfigError(
            f"{origin}: field 'verdict_rule' must be one of "
            f"obstruction/good_model/fibration, got {rule!r}"
        )
    if "deg_gamma" in cfg and not _is_int(cfg["deg_gamma"]):
        raise ScenarioConfigError(f"{origin}: field 'deg_gamma' must be an integer")
    if "contracting_divisor" in cfg:
        cd = cfg["contracting_divisor"]
        if not isinstance(cd, dict) or not _is_int(cd.get("h")) or not _is_int(cd.get("e")):
            raise ScenarioConfigError(
                f"{origin}: field 'contracting_divisor' needs integer 'h' and 'e'"
            )
    if "obstruction" in cfg:
        ob = cfg["obstruction"]
        if not isinstance(ob, dict) or (
            "bound" in ob and not (_is_int(ob["bound"]) and ob["bound"] >= 0)
        ):
            raise ScenarioConfigError(
                f"{origin}: field 'obstruction.bound' must be a nonnegative integer"
            )


def _validate_family(cfg: dict, origin: str, need) -> None:
    rule = need("verdict_rule")
    if rule not in ("not_open", "not_closed"):
        raise ScenarioConfigError(
            f"{origin}: field 'verdict_rule' must be 'not_open' or 'not_closed'"
        )
    if "monoid" not in cfg and "dominance" not in cfg:
        raise ScenarioConfigError(
            f"{origin}: family scenario needs 'monoid' or 'dominance'"
        )
    if "monoid" in cfg:
        m = cfg["monoid"]
        if (
            not isinstance(m, dict)
            or not _is_int(m.get("degree"))
            or not _is_int(m.get("point_multiplicity"))
        ):
            raise ScenarioConfigError(
                f"{origin}: field 'monoid' needs integer 'degree' and "
                "'point_multiplicity'"
            )
    if "grassmannian" in cfg:
        g = cfg["grassmannian"]
        if not isinstance(g, list) or len(g) != 2 or not all(_is_int(v) for v in g):
            raise ScenarioConfigError(
                f"{origin}: field 'grassmannian' must be [k, n]"
            )
    if "dominance" in cfg:
        d = cfg["dominance"]
        ok = (
            isinstance(d, dict)
            and isinstance(d.get("param_space_dims"), list)
            and all(_is_int(v) for v in d.get("param_space_dims", []))
            and isinstance(d.get("grassmannian"), list)
            and len(d.get("grassmannian", [])) == 2
            and all(_is_int(v) for v in d.get("grassmannian", []))
        )
        if not ok:
            raise ScenarioConfigError(
                f"{origin}: field 'dominance' needs 'param_space_dims' "
                "(integers) and 'grassmannian' [k, n]"
            )


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        raw = p.read_text()
    except OSError as exc:
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
    return Scenario(name=cfg["name"], kind=cfg["kind"], config=cfg)


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioConfigError(
            f"no built-in scenario {name!r} (have {list(BUILTIN_SCENARIOS)})"
        )
    raw = resources.files("cremeq").joinpath("data", f"{name}.json").read_text()
    return _parse_scenario(raw, f"builtin:{name}")


def list_scenarios() -> tuple[str, ...]:
    return BUILTIN_SCENARIOS


def _build_surface(entry) -> PolarizedSurface:
    if isinstance(entry, str):
        return SURFACE_BUILDERS[entry]()
    return PolarizedSurface.from_json_dict(entry)


def _run_projection(cfg: dict, bound_override: int | None):
    computed: dict = {}
    narrative: list[str] = []
    certificates: dict = {}

    def fail(keys, exc) -> None:
        msg = f"ERROR: {type(exc).__name__}: {exc}"
        for k in keys:
            computed[k] = msg
        narrative.append(msg)

    surface = None
    table: dict[str, DivisorClass] = {}
    try:
        surface = _build_surface(cfg["surface"])
        for entry in cfg["classes"]:
            table[entry["label"]] = surface.lattice(entry["coeffs"])
        computed["degree"] = surface.degree
        computed["sectional_genus"] = surface.sectional_genus
        narrative.append(
            f"surface {surface.name}: degree {surface.degree}, "
            f"sectional genus {surface.sectional_genus}."
        )
    except Exception as exc:
        fail(("degree", "sectional_genus"), exc)

    inc_labels = cfg["incidence_classes"]
    model = None
    model_keys = ["double_curve_degree", "double_point_class"] + [
        f"incidence.{lab}" for lab in inc_labels
    ]
    if surface is not None:
        try:
            model = project_to_p3(
                surface,
                [table[lab] for lab in inc_labels],
                deg_gamma=cfg.get("deg_gamma"),
            )
            computed["double_curve_degree"] = model.deg_gamma
            computed["double_point_class"] = list(model.gamma_w.coeffs)
            for lab in inc_labels:
                computed[f"incidence.{lab}"] = plane_image_incidence(model, table[lab])
            narrative.append(
                f"double curve degree {model.deg_gamma}; double point class "
                f"{list(model.gamma_w.coeffs)}."
            )
        except Exception as exc:
            fail(model_keys, exc)
    else:
        fail(model_keys, RuntimeError("surface unavailable"))

    ray_keys = (
        [f"st_dot.{lab}" for lab in cfg["ray_probes"]]
        + [f"kt_dot.{lab}" for lab in cfg["ray_probes"]]
        + ["nef", "ray_kind", "fano", "degree_squared",
           "four_times_double_curve_degree"]
    )
    if cfg["verdict_rule"] == "good_model":
        ray_keys.append("threshold_positive")
    verdict_kind = None
    if model is not None:
        try:
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
            verdict_kind = rv.kind
            computed["ray_kind"] = rv.kind.value
            certificates["second_ray"] = rv.to_json_dict()
            narrative.append(
                f"second ray {cfg['second_ray']}: classified {rv.kind.value}."
            )
            if rv.assumption:
                narrative.append(f"assumption: {rv.assumption}")
            computed["fano"] = fano_check(t, [table[lab] for lab in cfg["fano_rays"]])
            computed["degree_squared"] = model.deg_s**2
            computed["four_times_double_curve_degree"] = 4 * model.deg_gamma
            if cfg["verdict_rule"] == "good_model":
                thresh = computed["nef"] is True and rv.kind is RayKind.BIRATIONAL_CONTRACTION_FANO
                computed["threshold_positive"] = thresh
                if thresh:
                    narrative.append(
                        "nef with a birational second contraction: the surface "
                        "class sits in the interior of the effective region, so "
                        "its positivity threshold is strictly positive."
                    )
        except Exception as exc:
            fail([k for k in ray_keys if k not in computed], exc)
    else:
        fail(ray_keys, RuntimeError("projection model unavailable"))

    if model is not None:
        try:
            cert = negativity_certificate(model.deg_s, model.deg_gamma)
            computed["negativity"] = cert.verdict
            certificates["negativity"] = cert.to_json_dict()
            narrative.append(
                f"log Kodaira degree test: {cert.inequality} -> {cert.verdict}."
            )
        except Exception as exc:
            fail(("negativity",), exc)
    else:
        fail(("negativity",), RuntimeError("projection model unavailable"))

    if "obstruction" in cfg:
        ob_keys = ("obstruction_status", "obstruction_final_line")
        if model is not None and surface is not None:
            try:
                sz = make_sz()
                if surface.lattice != sz.f0:
                    raise ScenarioConfigError(
                        "obstruction bookkeeping is defined for the quadric "
                        f"model, not {surface.lattice.name!r}"
                    )
                bound = bound_override
                if bound is None:
                    bound = cfg["obstruction"].get("bound", 20)
                s_pull = model.deg_s * sz.from_f0.pullback(surface.polarization)
                e_total = sz.from_f0.pullback(model.gamma_w)
                h_pull = sz.from_plane.pullback(sz.plane((1,)))
                system = build_obstruction_system(
                    sz, s_pull, h_pull, e_total, deg_s_mult=DOUBLE_LOCUS_MULTIPLICITY
                )
                cert = solve_nonneg(system, bound=bound)
                computed["obstruction_status"] = cert.status
                final = cert.final_line_solved
                if final is None and cert.chain:
                    final = cert.chain[-1].render(system.unknowns)
                computed["obstruction_final_line"] = final or ""
                d = cert.to_json_dict()
                d["transcript"] = cert.transcript()
                certificates["obstruction"] = d
                narrative.append(f"restriction system: {cert.status}.")
                if final:
                    narrative.append(f"final derived line: {final}.")
                narrative.append(_NO_SEARCH_NOTE)
            except Exception as exc:
                fail(ob_keys, exc)
        else:
            fail(ob_keys, RuntimeError("projection model unavailable"))

    rule = cfg["verdict_rule"]
    if rule == "obstruction":
        ok = (
            computed.get("negativity") == "NEGATIVE_CERTIFIED"
            and computed.get("obstruction_status") == "INFEASIBLE"
        )
        verdict = "NOT_CREMONA_EQUIVALENT_TO_PLANE" if ok else "INCONCLUSIVE"
    elif rule == "good_model":
        ok = (
            computed.get("nef") is True
            and computed.get("fano") is True
            and computed.get("threshold_positive") is True
        )
        verdict = "CE_TO_PLANE_VIA_GOOD_MODEL" if ok else "INCONCLUSIVE"
    else:
        ok = verdict_kind is RayKind.FIBRATION and computed.get("fano") is True
        verdict = "CE_TO_PLANE_VIA_FIBRATION" if ok else "INCONCLUSIVE"
    computed["final_verdict"] = verdict
    narrative.append(f"verdict: {verdict}.")
    return computed, narrative, certificates


def _run_family(cfg: dict):
    computed: dict = {}
    narrative: list[str] = []
    certificates: dict = {}

    def fail(keys, exc) -> None:
        msg = f"ERROR: {type(exc).__name__}: {exc}"
        for k in keys:
            computed[k] = msg
        narrative.append(msg)

    if "monoid" in cfg:
        try:
            m = cfg["monoid"]
            flag = monoid_ce_predicate(m["degree"], m["point_multiplicity"])
            computed["monoid_ce"] = flag
            computed["boundary_verdict"] = (
                "CE_TO_PLANE_VIA_MONOID" if flag else "INCONCLUSIVE"
            )
            narrative.append(
                f"boundary member: degree {m['degree']} with a point of "
                f"multiplicity {m['point_multiplicity']}; monoid criterion "
                f"{'holds' if flag else 'fails'}."
            )
        except Exception as exc:
            fail(("monoid_ce", "boundary_verdict"), exc)
    if "grassmannian" in cfg:
        try:
            k, n = cfg["grassmannian"]
            computed["grassmannian_dim"] = grassmannian_dim(k, n)
            narrative.append(
                f"projection centers vary in G({k},{n}), dimension "
                f"{computed['grassmannian_dim']}."
            )
        except Exception as exc:
            fail(("grassmannian_dim",), exc)
    if "dominance" in cfg:
        try:
            d = cfg["dominance"]
            k, n = d["grassmannian"]
            count = dominance_count(d["param_space_dims"], k, n)
            computed["dimension_lhs"] = count.lhs
            computed["dimension_rhs"] = count.rhs
            computed["dominant_possible"] = count.dominant_possible
            certificates["dimension_count"] = count.to_json_dict()
            narrative.append(
                f"dimension count: {count.lhs} vs dim G({k},{n}) = {count.rhs}; "
                f"dominance {'possible' if count.dominant_possible else 'ruled out'}."
            )
        except Exception as exc:
            fail(("dimension_lhs", "dimension_rhs", "dominant_possible"), exc)
    if "flat_limit" in cfg:
        fl = cfg["flat_limit"]
        narrative.append(
            f"flat limit metadata: {json.dumps(fl, sort_keys=True)} (recorded, "
            "not computed)."
        )
    if cfg.get("generic_member"):
        narrative.append(
            f"generic member verdict delegated to scenario "
            f"{cfg['generic_member']!r}."
        )
    if cfg.get("special_member"):
        narrative.append(
            f"special member verdict delegated to scenario "
            f"{cfg['special_member']!r}."
        )
    if cfg["verdict_rule"] == "not_open":
        ok = computed.get("monoid_ce") is True
        verdict = "CE_TO_PLANE_NOT_OPEN" if ok else "INCONCLUSIVE"
    else:
        ok = computed.get("dominant_possible") is True
        verdict = "CE_TO_PLANE_NOT_CLOSED" if ok else "INCONCLUSIVE"
        if ok:
            narrative.append(
                "assumption: generic finiteness of the parameterization is "
                "recorded, not verified."
            )
    computed["family_verdict"] = verdict
    narrative.append(f"verdict: {verdict}.")
    return computed, narrative, certificates


def run_scenario(scenario: Scenario, bound: int | None = None) -> ScenarioReport:
    cfg = scenario.config
    if scenario.kind == "projection":
        computed, narrative, certificates = _run_projection(cfg, bound)
    else:
        computed, narrative, certificates = _run_family(cfg)
    expected = cfg["expected"]
    verdicts = {
        key: "PASS" if key in computed and computed[key] == entry["value"] else "FAIL"
        for key, entry in expected.items()
    }
    overall = "PASS" if verdicts and all(v == "PASS" for v in verdicts.values()) else "FAIL"
    return ScenarioReport(
        name=scenario.name,
        kind=scenario.kind,
        computed=computed,
        expected=expected,
        verdicts=verdicts,
        overall=overall,
        narrative=tuple(narrative),
        certificates=certificates,
    )
