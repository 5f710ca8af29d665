import json
import subprocess
import sys
from pathlib import Path

import cremeq

# Modules the interpreter's own startup loads (site hooks of the installed
# packages) are set aside; everything importing cremeq adds must be stdlib.
# A method whose code says it was compiled from "<string>" was generated at
# import time (by dataclasses or typing.NamedTuple); cremeq's classes define
# theirs in source, so importing them compiles nothing.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import cremeq, cremeq.cli
modules = [m for n, m in sys.modules.items() if n == "cremeq" or n.startswith("cremeq.")]
print(json.dumps({
    "loaded": sorted({n.partition(".")[0] for n in set(sys.modules) - before}),
    "generated": sorted(
        f"{m.__name__}.{cls.__qualname__}.{name}"
        for m in modules
        for cls in vars(m).values()
        if isinstance(cls, type) and cls.__module__ == m.__name__
        for name, fn in vars(cls).items()
        if getattr(getattr(fn, "__code__", None), "co_filename", None) == "<string>"
    ),
}))
"""


def test_library_and_cli_import_only_the_standard_library():
    # conftest has already imported sympy into this process, so the check
    # runs in a fresh isolated interpreter; -I drops PYTHONDONTWRITEBYTECODE,
    # so -B keeps it from writing .pyc files into the source tree
    src = str(Path(cremeq.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _PROBE, src],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    probe = json.loads(out)
    loaded = probe["loaded"]
    assert "cremeq" in loaded
    assert [m for m in loaded if m != "cremeq" and m not in sys.stdlib_module_names] == []
    # dataclasses would bring inspect, dis and tokenize with it
    assert "dataclasses" not in loaded
    assert probe["generated"] == []
