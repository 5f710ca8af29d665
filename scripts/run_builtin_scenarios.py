#!/usr/bin/env python3
"""Render every built-in scenario to JSON and markdown reports.

Writes reports/<name>.json and reports/<name>.md next to the repository
root (or wherever --out points) and prints one summary line per scenario.
Exit status is 0 only if every scenario's expectation table checks out.
"""

import argparse
import pathlib
import sys

from cremeq.scenarios import BUILTIN_SCENARIOS, builtin_scenario, run_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="reports", help="output directory (default: reports/)")
    ap.add_argument("--bound", type=int, default=None, help="witness search bound")
    args = ap.parse_args(argv)
    if args.bound is not None and args.bound < 0:
        ap.error(f"argument --bound: must be >= 0, got {args.bound}")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    all_pass = True
    for name in BUILTIN_SCENARIOS:
        report = run_scenario(builtin_scenario(name), bound=args.bound)
        (out / f"{name}.json").write_text(report.to_json())
        (out / f"{name}.md").write_text(report.to_markdown())
        n_keys = len(report.expected)
        print(f"{name:<16} {report.overall:<4} ({n_keys} pinned values)")
        all_pass &= report.overall == "PASS"

    print(f"reports written to {out}/")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
