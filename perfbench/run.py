"""Benchmark of trunclog's exact identity checks at p = 19.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; needs only the standard library.  Workloads
(see workloads.py): symbolic_p19, ext2_p19, family_p19.  Each splits off part
of the 23-checker battery, and each checker runs through
``trunclog.cli.main(["verify", "--prime", "19", "--theorem", T, "--format",
"json", ...])``, exactly as a CLI user runs it.

Load model: closed loop, one client, one request at a time, in one process
without threads.  Every measured run is a fresh interpreter (child.py), so
that no cache fills from an earlier run; runs follow one another until S
seconds have passed, and the medians over them are reported.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: set-up time
(import plus cold construction of the cached objects the checkers read),
verify time, the child's own peak resident memory, and the share of
checked outputs that pass the correctness gate (gate.py).
--trace 1 runs one extra child with the outside-in tracer (tracer.py) and
prints the per-layer metrics of BENCHMARK.json, including the tracer's
overhead against the untraced median; its spans go to
.perfbench_out/trace-NAME.jsonl.gz.

The first untraced child of every run also checks the gate itself: a broken
twin of G(X) and a tampered reference entry must both be counted as failed.
The last line of standard output is the result object; the line before it
records the interpreter, platform, core count, p, pair budget, seed and
every child's figures.  Exit code 0 only when every output passed the gate.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from workloads import P, PAIR_BUDGET, WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0  # a whole run, children included, ends within this
OUT_DIR = Path(".perfbench_out")


def run_child(workload: str, seed: int, deadline: float, *, trace: str | None = None,
              self_test: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", trace]
    if self_test:
        cmd.append("--self-test")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_self_test(first: dict, reference: dict) -> dict:
    """Both must be counted as failed, or the gate itself is broken."""
    broken = gate.output_problems(first["broken_twin"], reference)
    tampered = copy.deepcopy(reference)
    out = first["outputs"][0]
    entry = tampered["reports"][out["theorem"]]
    entry["stdout"] = entry["stdout"].replace('"cases": ', '"cases": 1', 1)  # one more digit
    return {
        "broken_twin_failed": bool(broken),
        "tampered_reference_failed": bool(gate.output_problems(out, tampered)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trunclog p = 19 benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/trunclog/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the repository root (src/trunclog and BENCHMARK.json "
              "must be present)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    reference = gate.load_reference()

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    traced = None
    children = []
    try:
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"trace-{args.workload}.jsonl.gz"
            traced = run_child(args.workload, args.seed, deadline, trace=str(trace_path))
        # Start another child while it is expected to end at most half a
        # child's time past the budget, so that a run lasts about S seconds.
        walls = []
        while not children or (time.monotonic() - start
                               + 0.5 * statistics.median(walls) < args.seconds):
            began = time.monotonic()
            children.append(run_child(args.workload, args.seed, deadline,
                                      self_test=not children))
            walls.append(time.monotonic() - began)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: a measured run did not complete: {exc}", file=sys.stderr)
        return 1

    failures = []
    attempted = 0
    for child in children + ([traced] if traced else []):
        for what, problems in gate.child_outcomes(child, reference):
            attempted += 1
            if problems:
                failures.append({"what": what, "problems": problems})
    self_test = gate_self_test(children[0], reference)
    correct = not failures and all(self_test.values())

    def median(key):
        return statistics.median(c[key] for c in children)

    values = {
        "setup_s": median("setup_s"),
        "verify_s": median("verify_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "pass_share": (attempted - len(failures)) / attempted,
    }
    if traced:
        values.update(traced["layers"])
        reports = [gate.parse_report(o["stdout"]) for o in traced["outputs"]]
        values["verify.cases"] = sum(r["cases"] for r in reports
                                     if r and isinstance(r["cases"], int))
        values["trace.verify_s"] = traced["verify_s"]
        values["trace.overhead_share"] = traced["verify_s"] / values["verify_s"] - 1.0
        values["fail_share"] = len(failures) / attempted
        for theorems in WORKLOADS.values():
            for theorem in theorems:
                values.setdefault(f"verify.{theorem}_s", 0.0)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    meta = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "p": P,
        "pair_budget": PAIR_BUDGET,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - start,
        "children": [{k: c[k] for k in ("setup_s", "verify_s", "checker_s", "peak_rss_mb")}
                     for c in children],
        "children_max_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "gate_self_test": self_test,
        "failures": failures,
    }
    if traced:
        meta["trace_file"] = str(trace_path)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
