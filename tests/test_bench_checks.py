"""The benchmark's own answer checks, on a small slice of each workload.

`bench/workloads.py` checks every answer against facts it knows without the
library.  A library change that makes one of those checks fail would lower
the benchmark's ok_share; this runs the same checks in well under a second.
"""

import pytest

from conftest import BENCH_LIB, load_workloads, no_span, pick


@pytest.mark.parametrize("name", ["builtins", "dense-rank", "witness-search"])
def test_workload_answers_pass_their_checks(name):
    w = load_workloads()[name]
    for item in pick(name):
        ok, _ = w.check(item, w.run(BENCH_LIB, item, no_span))
        assert ok, (name, w.tag(item), item)
