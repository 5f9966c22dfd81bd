"""Correctness gate for the benchmark, and capture of its reference.

Every checker output a run produces must
  * come with CLI exit code 0 and a JSON report whose status is "pass" (a
    "skipped" report fails too), whose witness is null and whose case count
    equals the formula in verify.py's docstring table;
  * be byte-equal to the reference output, apart from the elapsed_ms value;
  * carry the reference notes.  CCoefficients reads the seed, but its notes
    ("unique solutions: 200/200") read the same for every seed from 0 to 55,
    so they are held to the reference (captured at seed 0) for any seed.
The str() of every object a run constructed must also match the reference,
compared by SHA-256 digest.

The reference is captured from the library as it was when the benchmark was
written:

    python3 perfbench/gate.py

run from the repository root, rewrites perfbench/reference.json.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

from workloads import P, PAIR_BUDGET, WORKLOADS, expected_cases

REFERENCE = Path(__file__).with_name("reference.json")
REPORT_KEYS = ["prime", "theorem", "cases", "status", "witness", "elapsed_ms"]
ELAPSED = re.compile(r'"elapsed_ms": \d+')


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def mask_elapsed(stdout: str) -> str:
    return ELAPSED.sub('"elapsed_ms": 0', stdout)


def parse_report(stdout: str) -> dict | None:
    """The report object the CLI printed, or None when it printed no such thing."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) and list(report) == REPORT_KEYS else None


def output_problems(out: dict, reference: dict) -> list[str]:
    """Why one checker output fails the gate; empty when it passes."""
    theorem = out["theorem"]
    problems = []
    if out["exit"] != 0:
        problems.append(f"exit code {out['exit']}")
    report = parse_report(out["stdout"])
    if report is None:
        return problems + ["stdout is not one JSON report with the fixed six keys"]
    if report["prime"] != P or report["theorem"] != theorem:
        problems.append("report names another prime or theorem")
    if report["status"] != "pass":
        problems.append(f"status {report['status']!r}")
    if report["witness"] is not None:
        problems.append("witness present")
    if report["cases"] != expected_cases(theorem):
        problems.append(f"cases {report['cases']} != {expected_cases(theorem)}")
    elapsed = report["elapsed_ms"]
    if not isinstance(elapsed, int) or isinstance(elapsed, bool) or elapsed < 0:
        problems.append("elapsed_ms is not a whole number of milliseconds")
    ref = reference["reports"].get(theorem)
    if ref is None:
        return problems + ["no reference output"]
    if mask_elapsed(out["stdout"]) != ref["stdout"]:
        problems.append("output differs from the reference")
    if out["notes"] != ref["notes"]:
        problems.append(f"notes {out['notes']!r} != reference {ref['notes']!r}")
    return problems


def object_problems(digests: dict, reference: dict) -> list[str]:
    """Constructed objects whose str() differs from the reference."""
    ref = reference["objects"]
    return [f"str({name}) differs from the reference"
            for name, d in digests.items() if ref.get(name) != d]


def child_outcomes(child: dict, reference: dict) -> list[tuple[str, list[str]]]:
    """(what, problems) for each checked item of one child: every checker
    output, plus the set of constructed objects as one item."""
    items = [(o["theorem"], output_problems(o, reference)) for o in child["outputs"]]
    items.append(("objects", object_problems(child["objects"], reference)))
    return items


# -- capture ---------------------------------------------------------------------


def capture() -> dict:
    """Run every workload once, at seed 0, and record the outputs and object
    digests."""
    from run import TIME_LIMIT_S, run_child

    reference = {"prime": P, "pair_budget": PAIR_BUDGET, "reports": {}, "objects": {}}
    for workload in WORKLOADS:
        child = run_child(workload, 0, time.monotonic() + TIME_LIMIT_S)
        reference["objects"].update(child["objects"])
        for out in child["outputs"]:
            reference["reports"][out["theorem"]] = {
                "stdout": mask_elapsed(out["stdout"]),
                "notes": out["notes"],
            }
        print(f"captured {workload}", file=sys.stderr)
    return reference


def main() -> int:
    reference = capture()
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
