import json
import subprocess
import sys
from pathlib import Path

import cremeq

# Modules the interpreter's own startup loads (site hooks of the installed
# packages) are set aside; everything importing cremeq adds must be stdlib.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import cremeq, cremeq.cli
print(json.dumps(sorted({n.partition(".")[0] for n in set(sys.modules) - before})))
"""


def test_library_and_cli_import_only_the_standard_library():
    # conftest has already imported sympy into this process, so the check
    # runs in a fresh isolated interpreter
    src = str(Path(cremeq.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, src],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = json.loads(out)
    assert "cremeq" in loaded
    assert [m for m in loaded if m != "cremeq" and m not in sys.stdlib_module_names] == []
