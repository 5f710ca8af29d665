"""Command line front end for the scenario runner.

Usage:
    cremeq run <name-or-path> [--json OUT] [--md OUT]
    cremeq list
    cremeq check-all [--out DIR]

`run` prints the markdown report to stdout and exits 0 exactly when every
expected value matched.  `check-all` runs the built-in scenarios and prints a
one-line verdict each; --out also writes DIR/<name>.json and DIR/<name>.md.
Exit 1 means a report failed; exit 2 a config that cannot be loaded or an
output that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioConfigError,
    builtin_scenario,
    load_scenario,
    run_scenario,
)


def _resolve(target: str):
    if target in BUILTIN_SCENARIOS:
        return builtin_scenario(target)
    if Path(target).exists():
        return load_scenario(target)
    raise ScenarioConfigError(
        f"{target!r} is neither a built-in scenario nor an existing file "
        f"(built-ins: {', '.join(BUILTIN_SCENARIOS)})"
    )


def _write(files: dict[Path, str], directory: Path | None = None) -> bool:
    """Write each file, making directory first; an OSError is reported, not raised."""
    try:
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            path.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cremeq",
        description="exact lattice bookkeeping for plane-equivalence questions "
        "about projected surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario by name or config path")
    p_run.add_argument("target", help="built-in scenario name or path to a JSON config")
    p_run.add_argument("--json", dest="json_out", metavar="PATH",
                       help="also write the JSON report here")
    p_run.add_argument("--md", dest="md_out", metavar="PATH",
                       help="also write the markdown report here")

    sub.add_parser("list", help="list built-in scenarios")
    p_all = sub.add_parser("check-all", help="run every built-in scenario")
    p_all.add_argument("--out", metavar="DIR", help="also write DIR/<name>.json and .md")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in BUILTIN_SCENARIOS:
            sc = builtin_scenario(name)
            desc = sc.config.get("description", "")
            print(f"{name:15s} {desc}")
        return 0

    if args.command == "check-all":
        reports = [run_scenario(builtin_scenario(name)) for name in BUILTIN_SCENARIOS]
        for report in reports:
            print(f"{report.name}: {report.overall}")
        if args.out:
            out = Path(args.out)
            files = {out / f"{r.name}.{ext}": text for r in reports
                     for ext, text in (("json", r.to_json()), ("md", r.to_markdown()))}
            if not _write(files, out):
                return 2
        return 0 if all(report.overall == "PASS" for report in reports) else 1

    try:
        scenario = _resolve(args.target)
    except ScenarioConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(scenario)
    print(report.to_markdown())
    files = {}
    if args.json_out:
        files[Path(args.json_out)] = report.to_json()
    if args.md_out:
        files[Path(args.md_out)] = report.to_markdown()
    if not _write(files):
        return 2
    return 0 if report.overall == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())
