"""Scenario runner: worked equivalence questions as data, answers as reports.

A scenario is a JSON config naming a surface model, the curve classes to
probe, and a verdict rule, together with an expected-value table in which
every constant carries a provenance string (the one-line arithmetic that
justifies it, so a reader can audit the number without the source tree).
Loading checks the config against one table of field rules (_FIELDS), and a
bad config raises ScenarioConfigError naming the field.  The family bounds
are the library's, re-raised with the field's name; a new check is one entry.

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
)
from .threefold import (
    BlowupThreefold,
    RayKind,
    classify_second_ray,
    divisor_dot,
    fano_check,
    is_nef_on,
    kt_dot,
    st_dot,
    steepest_ray,
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


def _text(v, _=None) -> bool:
    return isinstance(v, str) and v != ""


def _ints(v, _=None) -> bool:
    return isinstance(v, list) and {*map(type, v)} <= {int}  # type(True) is bool


def _filled(kind):
    return lambda v, _: isinstance(v, kind) and len(v) > 0


def _ints_at(*keys):
    return lambda v, _: isinstance(v, dict) and {*map(type, map(v.get, keys))} == {int}


def _rank_vector(v, walk) -> bool:
    return _ints(v) and len(v) == walk.rank


class _Walk:
    """One config under validation, and what its cross-field checks share."""

    def __init__(self, cfg) -> None:
        self.cfg, self.labels = cfg, set()  # labels: those of 'classes', as they pass

    rank = property(lambda self: len(self.cfg["surface"]["lattice"]["basis"]))
    rules = property(lambda self: "/".join(_VERDICT_RULES[self.cfg["kind"]]))


def _rows(when, *specs) -> tuple:
    """(when, rows): the specs grouped by field, as (field, keys, required, each,
    checks, element_checks).  A path is a field's dotted keys, then "[{}]" or
    ".{}" for each element of a list or a map, then a key in that element."""
    rows: dict = {}
    for path, required, check, message in specs:
        field, each, tail = path.partition("{}")
        row = rows.setdefault(field.rstrip(".["), [required, None, [], []])
        if each:
            row[1] = list if field.endswith("[") else dict
            row[3].append((path, tail.lstrip("].") or None, check, message))
        else:
            row[2].append((path, check, message))
    return when, [(f, f.split(".") if f else (), *row) for f, row in rows.items()]


_KNOWN = (lambda v, walk: isinstance(v, str) and v in walk.labels,
          "must be one of the labels in 'classes', got unknown label {v!r}")
_VECTOR = "must be a list of {walk.rank} integers, got {v!r}"


def _labels(path: str) -> tuple:
    return ((path, True, _filled(list), "must be a nonempty list of labels"),
            (path + "[{}]", True, *_KNOWN))


def _kn(g, _) -> bool:
    """[k, n] naming a Grassmannian; grassmannian_dim owns the bound 0 <= k < n."""
    return _ints(g) and len(g) == 2 and (grassmannian_dim(*g) or True)


# Field specs (path, required, check, message) in groups, each applying when
# its condition on the config holds.  They are checked in order, so a check
# or a condition may rely on the specs above it.  check(value, walk) says
# whether the value is good.  Where the library owns a bound, a check calls it
# ("... or True") and fails only by its ValueError, whose text the complaint
# quotes.  message is formatted with v and walk.
_FIELDS = (
    _rows(
        lambda cfg: True,
        ("", True, lambda v, _: isinstance(v, dict), "must be an object"),
        ("name", True, _text, "must be a nonempty string"),
        # a str first: looking up an unhashable value would raise TypeError
        ("kind", True, lambda v, _: isinstance(v, str) and v in _VERDICT_RULES,
         "must be 'projection' or 'family', got {v!r}"),
        ("expected", True, _filled(dict), "must be a nonempty map"),
        ("expected.{}", True, lambda v, _: isinstance(v, dict) and "value" in v, "needs a 'value'"),
        ("expected.{}.provenance", True, _text, "must be a nonempty string"),
        ("verdict_rule", True,
         lambda v, walk: isinstance(v, str) and v in _VERDICT_RULES[walk.cfg["kind"]],
         "must be one of {walk.rules}, got {v!r}"),
    ),
    _rows(
        lambda cfg: cfg["kind"] == "projection",
        ("surface", True,
         lambda v, _: isinstance(v, dict) or isinstance(v, str) and v in SURFACE_BUILDERS,
         f"names no builder (have {sorted(SURFACE_BUILDERS)}) and is no inline model: {{v!r}}"),
        ("classes", True, _filled(list), "must be a nonempty list"),
        ("classes[{}]", True, lambda v, _: isinstance(v, dict) and "label" in v and "coeffs" in v,
         "needs 'label' and 'coeffs'"),
        ("classes[{}].coeffs", True, _ints, "must be a list of integers"),
        ("classes[{}].label", True, _text, "must be a nonempty string label, got {v!r}"),
        # a new label passes and is recorded (set.add returns None)
        ("classes[{}].label", True,
         lambda v, walk: v not in walk.labels and not walk.labels.add(v), "repeats label {v!r}"),
        *_labels("incidence_classes"), *_labels("curve_cone"),
        *_labels("ray_probes"),
        ("second_ray", False, *_KNOWN),
        ("deg_gamma", False, lambda v, _: type(v) is int and v >= 1,
         "must be a positive integer, got {v!r}"),
        ("contracting_divisor", False, _ints_at("h", "e"), "needs integer 'h' and 'e'"),
    ),
    _rows(
        # an inline surface model: the keys PolarizedSurface.from_json_dict reads
        lambda cfg: cfg["kind"] == "projection" and isinstance(cfg["surface"], dict),
        ("surface.name", True, _text, "must be a nonempty string, got {v!r}"),
        ("surface.lattice", True, lambda v, _: isinstance(v, dict), "must be a map, got {v!r}"),
        ("surface.lattice.name", True, _text, "must be a nonempty string, got {v!r}"),
        ("surface.lattice.basis", True, lambda v, _: isinstance(v, list) and v != []
         and all(map(_text, v)),
         "must be a nonempty list of nonempty strings, got {v!r}"),
        ("surface.lattice.gram", True, lambda v, walk: isinstance(v, list)
         and len(v) == walk.rank and all(_rank_vector(row, walk) for row in v),
         "must be a {walk.rank}x{walk.rank} matrix of integers, got {v!r}"),
        ("surface.lattice.gram", True,
         lambda m, _: all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i)),
         "must be symmetric, got {v!r}"),
        ("surface.lattice.canonical", True, _rank_vector, _VECTOR),
        ("surface.polarization", True, _rank_vector, _VECTOR),
    ),
    _rows(
        lambda cfg: cfg["kind"] == "family",
        ("", True, lambda cfg, _: "monoid" in cfg or "dominance" in cfg,
         "needs 'monoid' or 'dominance'"),
        ("monoid", False, _ints_at("degree", "point_multiplicity"),
         "needs integer 'degree' and 'point_multiplicity'"),
        # multiplicity 0 fits every degree that the library accepts
        ("monoid.degree", True, lambda d, _: monoid_ce_predicate(d, 0) or True, "must be a degree"),
        ("monoid.point_multiplicity", True,
         lambda m, walk: monoid_ce_predicate(walk.cfg["monoid"]["degree"], m) or True,
         "must be a point multiplicity"),
        ("grassmannian", False, _kn, "must be [k, n] with integers k and n, got {v!r}"),
        ("dominance", False, lambda v, _: isinstance(v, dict), "must be a map, got {v!r}"),
        ("dominance.grassmannian", True, _kn, "must be [k, n] with integers k and n, got {v!r}"),
        ("dominance.param_space_dims", True, lambda dims, walk: _ints(dims)
         and (dominance_count(dims, *walk.cfg["dominance"]["grassmannian"]) or True),
         "must be a list of dimensions, got {v!r}"),
    ),
)
_MISSING = object()  # the last key of a path is absent
_NOWHERE = object()  # the path runs below an absent key or a value of another shape


def _problem(walk: _Walk) -> tuple | None:
    """The first problem in _FIELDS order, as (path, pick, message, value, reason)
    with message None for a missing field, or None for a good config."""
    for when, rows in _FIELDS:
        for field, keys, required, each, checks, element_checks in rows if when(walk.cfg) else ():
            v = walk.cfg
            for key in keys:
                v = v.get(key, _MISSING) if isinstance(v, dict) else _NOWHERE
            if v is _MISSING or v is _NOWHERE:  # the specs above judge what is there
                if v is _MISSING and required:
                    return field, None, None, v, ""
                continue
            for path, check, message in checks:
                try:
                    if not check(v, walk):
                        return path, None, message, v, ""
                except ValueError as exc:  # a bound the library owns
                    return path, None, message, v, f": {exc}"
            # the checks above have made v an each.  An element check passes on
            # every element before the next one starts, so a map check comes
            # before the tails looked up in the elements.
            for path, tail, check, message in element_checks:
                for pick, x in enumerate(v) if each is list else v.items():
                    y = x if tail is None else x.get(tail, _MISSING)
                    if y is _MISSING or not check(y, walk):
                        return path, pick, None if y is _MISSING else message, y, ""


def _validate(cfg, origin: str) -> None:
    """Raise a ScenarioConfigError naming the first field that is wrong."""
    walk = _Walk(cfg)
    if problem := _problem(walk):
        path, pick, message, v, reason = problem
        where = f"field '{path.format(pick)}'" if path else "top level"
        text = f"missing {where}" if message is None else (
            f"{where} {message.format(v=v, walk=walk)}{reason}")
        raise ScenarioConfigError(f"{origin}: {text}")


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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ScenarioConfigError(f"{origin}: not valid JSON: {exc}") from exc
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
    labels = cfg["curve_cone"]
    cone = [table[lab] for lab in labels]
    computed["nef"] = is_nef_on(t, cone)
    # the second ray is the steepest generator; a declared one must tie with it
    try:
        best = steepest_ray(t, cone)
    except ValueError as exc:  # a generator with C.H <= 0 has no slope
        flat = next(lab for lab in labels if divisor_dot(t, (1, 0), table[lab]) <= 0)
        raise ScenarioConfigError(f"field 'curve_cone' {flat!r}: {exc}") from exc
    steepest = labels[cone.index(best)]
    label = cfg.get("second_ray", steepest)
    ray, first = table[label], table[steepest]
    if steepest_ray(t, [ray, first]) is not ray or steepest_ray(t, [first, ray]) is not first:
        raise ScenarioConfigError(
            f"field 'second_ray' {label!r} does not tie with {steepest!r}, "
            "the steepest generator of 'curve_cone'"
        )
    cd = cfg.get("contracting_divisor")
    rv = classify_second_ray(
        t, ray, cone=cone, contracting_divisor=(cd["h"], cd["e"]) if cd else None
    )
    computed["ray_kind"] = rv.kind.value
    run.certificates["second_ray"] = rv.to_json_dict()
    narrative.append(f"second ray {label}: classified {rv.kind.value}.")
    if rv.assumption:
        narrative.append(f"assumption: {rv.assumption}")
    computed["fano"] = fano_check(t, ray)
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
    cert = decide_obstruction_system(build_obstruction_system(run.products["projection model"]))
    run.computed["obstruction_status"] = cert.status
    final = cert.final_line_solved
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
