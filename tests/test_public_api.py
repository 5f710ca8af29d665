"""No public API without a caller.

Every user entry point runs under `sys.setprofile`, which records each code
object Python enters: the CLI's `check-all --out`, `list` and `run` (each
built-in with `--json --md`, and a config file with an inline surface model),
and `scripts/negativity_sweep.py`.  The benchmark workloads' test slices run
the same way, apart.  A public function, method or property of `cremeq.*` (a
property through its getter) counts as reached when its code object was
entered.  Code objects, not names: the stdlib `trace` module's `countfuncs`
reports by name and mangles properties, so a census by name calls
`PolarizedSurface.degree` unreached.

A public name no user entry point reaches needs a reason to stay, in one of
three lists: TEST_ONLY (only tests call it), WORKLOAD_ONLY (only the
benchmark workloads reach it) or IMPORT_ONLY (it runs while cremeq is
imported, which is before the census starts; a fresh interpreter checks
that).  A listed name that a user entry point reaches, that is in the wrong
list, or that no longer exists fails too.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cremeq
from conftest import BENCH_LIB, load_script, load_workloads, no_span, pick
from cremeq.cli import main
from cremeq.scenarios import BUILTIN_SCENARIOS, builtin_scenario

_CALLER_TO_COME = (
    "kept for `cremeq verify`, which re-checks a saved report from its "
    "certificates (ROADMAP: family verdicts that check their members)"
)

TEST_ONLY = {
    "lattice.blow_up_point": (
        "acceptance 5 checks blow-ups through it; building Bl10P2 through it "
        "takes 1.0 ms against 0.03 ms for the lattice written directly, and a "
        "whole check-all pass 2.3 ms (Python 3.11, x86-64), so surfaces do not"
    ),
    "surfaces.dp6_line_classes": (
        "kept for deriving the del Pezzo curve cone instead of declaring it "
        "(ROADMAP: derive the curve cone of a del Pezzo surface)"
    ),
    "lattice.IntersectionLattice.to_json_dict": _CALLER_TO_COME,
    "surfaces.PolarizedSurface.to_json_dict": _CALLER_TO_COME,
    "feasibility.FeasibilitySystem.from_json_dict": _CALLER_TO_COME,
    "projection.plane_image_incidence": (
        "acceptance 2 and 3 check the residual incidence count through it; "
        "the runner reports Gamma_W.C, which the solve makes equal to it"
    ),
}

_REBASING = (
    "re-presents a lattice in another basis; no scenario config asks for "
    "that, and the dense-rank workload does"
)

WORKLOAD_ONLY = {
    "feasibility.solve_nonneg": (
        "the general nonnegative solver with its box search; the pipeline "
        "decides its one fixed system in closed form, witness-search measures it"
    ),
    "lattice.change_basis": _REBASING,
    "lattice.BasisChange.to_new": _REBASING,
    "lattice.BasisChange.to_old": _REBASING,
    "linalg.invert_unimodular": _REBASING,
}

_RESTRICTION = "feasibility reads the restriction system off make_sz() once, at import"

IMPORT_ONLY = {
    "surfaces.make_sz": _RESTRICTION,
    "surfaces.SZModel.plane": _RESTRICTION,
    "linalg.mat_mul": (
        "BlowupMap checks make_sz()'s blow-downs with it; after import only "
        "change_basis multiplies, in the dense-rank workload"
    ),
}

# sextic-ruled's surface written out as an inline model
INLINE_F0 = {
    "name": "f0_sextic",
    "lattice": {
        "name": "F0",
        "basis": ["f1", "f2"],
        "gram": [[0, 1], [1, 0]],
        "canonical": [-2, -2],
    },
    "polarization": [1, 3],
}


def public_code() -> dict:
    """'module.name' or 'module.Class.name' -> code object of every public
    function, method and property getter defined in a cremeq module."""
    found = {}
    for info in pkgutil.iter_modules(cremeq.__path__):
        if info.name.startswith("_"):
            continue  # __main__ runs the CLI when imported
        module = importlib.import_module(f"cremeq.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else member
                    fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found[f"{info.name}.{name}.{attr}"] = fn.__code__
    return found


def reached(run) -> set:
    """The code objects entered while run() runs, its output discarded."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run()
    finally:
        sys.setprofile(previous)
    return codes


def user_entry_points(tmp):
    config = tmp / "inline.json"
    config.write_text(json.dumps({**builtin_scenario("sextic-ruled").config,
                                  "surface": INLINE_F0}))

    def run():
        assert main(["check-all", "--out", str(tmp / "reports")]) == 0
        assert main(["list"]) == 0
        for name in BUILTIN_SCENARIOS:
            out = str(tmp / name)
            assert main(["run", name, "--json", out + ".json", "--md", out + ".md"]) == 0
        assert main(["run", str(config)]) == 0
        assert load_script("negativity_sweep").main([]) == 0

    return run


def workload_slices():
    for name, w in load_workloads().items():
        for item in pick(name):
            w.run(BENCH_LIB, item, no_span)


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    user = reached(user_entry_points(tmp_path_factory.mktemp("census")))
    return public_code(), user, reached(workload_slices)


def test_every_public_name_is_reached_or_listed(census):
    public, user, _ = census
    listed = {**TEST_ONLY, **WORKLOAD_ONLY, **IMPORT_ONLY}
    unlisted = sorted(
        name for name, code in public.items() if code not in user and name not in listed
    )
    assert not unlisted, (
        "public, yet no entry point reaches it; delete it, or list it in "
        f"TEST_ONLY, WORKLOAD_ONLY or IMPORT_ONLY with the reason it stays: {unlisted}"
    )


def test_listed_names_are_current(census):
    public, user, workload = census
    stale = []
    for lst, listed, in_workload in (
        ("TEST_ONLY", TEST_ONLY, False),
        ("WORKLOAD_ONLY", WORKLOAD_ONLY, True),
        ("IMPORT_ONLY", IMPORT_ONLY, None),  # a workload may reach it or not
    ):
        for name in listed:
            code = public.get(name)
            if code is None:
                stale.append(f"{lst}: {name} is no public function, method or property")
            elif code in user:
                stale.append(f"{lst}: {name} is reached by a user entry point")
            elif in_workload is not None and (code in workload) != in_workload:
                stale.append(
                    f"{lst}: {name} is {'not ' if in_workload else ''}reached by a workload"
                )
    assert not stale, stale


# the (file, first line) of every function entered while cremeq is imported
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(
    (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
import cremeq
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def test_import_only_names_run_at_import():
    # a fresh interpreter imports cremeq anew; -B writes no .pyc files
    src = str(Path(cremeq.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _IMPORT_PROBE, src],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    entered = {(str(Path(f).resolve()), line) for f, line in json.loads(out)}
    public = public_code()
    missing = [
        name for name in IMPORT_ONLY
        if (str(Path(public[name].co_filename).resolve()), public[name].co_firstlineno)
        not in entered
    ]
    assert not missing, f"not run while cremeq is imported: {missing}"
