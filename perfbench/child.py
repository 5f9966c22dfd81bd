"""One measured run of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--trace FILE] [--self-test]

Run from the repository root.  Times the import of trunclog plus the cold
construction of the workload's cached objects (set-up), then the workload's
checkers, in the order workloads.py lists them, each through
``trunclog.cli.main`` exactly as a CLI user runs it.  Only CCoefficients reads
the seed.  Prints one JSON object: the timings, the child's own peak resident
memory, every CLI output with its notes and exit code, and a digest of the
str() of each constructed object.  With --trace, spans are recorded around
every layer boundary and written to FILE as JSON lines.  With --self-test, a
broken twin of G(X) is run through LeftInverse after the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import P, WORKLOADS, build_objects, cli_argv


def run(workload: str, seed: int, trace_path: str | None, self_test: bool) -> dict:
    t0 = time.perf_counter()
    import trunclog
    import trunclog.cli

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        setup_span = tracer.begin("bench.setup")
    objects = build_objects(workload)
    t1 = time.perf_counter()
    if tracer:
        tracer.finish(setup_span)

    # The CLI prints the report JSON without its notes; keep the report objects.
    reports = []
    cli_verify = trunclog.cli.verify_theorem

    def capture(*args, **kwargs):
        report = cli_verify(*args, **kwargs)
        reports.append(report)
        return report

    trunclog.cli.verify_theorem = capture
    outputs = []
    if tracer:
        verify_span = tracer.begin("bench.verify")
    t2 = time.perf_counter()
    checker_s = {}
    for theorem in WORKLOADS[workload]:
        buf = io.StringIO()
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = trunclog.cli.main(cli_argv(theorem, seed))
        checker_s[theorem] = time.perf_counter() - c0
        outputs.append({"theorem": theorem, "exit": code, "stdout": buf.getvalue()})
    t3 = time.perf_counter()
    if tracer:
        tracer.finish(verify_span)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trunclog.cli.verify_theorem = cli_verify

    for out in outputs:
        matching = [r for r in reports if r.theorem.value == out["theorem"]]
        out["notes"] = matching[0].notes if len(matching) == 1 else "<no report captured>"

    result = {
        "setup_s": t1 - t0,
        "verify_s": t3 - t2,
        "checker_s": checker_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "objects": {k: digest(v) for k, v in objects.items()},
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write_jsonl(trace_path)
    if self_test:
        result["broken_twin"] = broken_twin_output()
    return result


def digest(obj) -> str:
    return hashlib.sha256(str(obj).encode()).hexdigest()


def broken_twin_output() -> dict:
    """LeftInverse on G(X) with its X^2 coefficient altered, shaped like a
    CLI output so that the parent can put it through the correctness gate."""
    from trunclog import RatFn, glog, verify_theorem

    g = glog(P)
    c2 = g.coeff(2)
    broken = g.with_coeff(2, RatFn(c2.num + 1, c2.den))
    report = verify_theorem(P, "LeftInverse", g=broken)
    return {
        "theorem": "LeftInverse",
        "exit": 0 if report.status != "fail" else 1,
        "stdout": json.dumps(report.to_json_dict(), indent=2) + "\n",
        "notes": report.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path("src").resolve()))
    result = run(args.workload, args.seed, args.trace, args.self_test)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
