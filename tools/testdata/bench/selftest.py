#!/usr/bin/env python3
"""Self-test of tools/check_bench_regression.py on the fixture documents
in this directory: the passing pair must exit 0, and every broken
document must exit 1 with the reason named on stderr.

    python3 tools/testdata/bench/selftest.py
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "..", "..", "check_bench_regression.py")

# (expected exit, current, baseline, text stderr must contain)
CASES = [
    (0, "pass.json", "baseline.json", ""),
    (1, "false_verdict.json", None, "verdict 'x.identical' is false"),
    (1, "over_budget.json", None, "budget 'x.bytes'"),
    (1, "missing_metric.json", "baseline.json", "missing metric 'x.seconds'"),
    (1, "geomean_low.json", "baseline.json", "geomean ratio 0.700"),
    (1, "below_floor.json", "baseline.json", "'x.a.per_sec' regressed"),
    (1, "pass.json", "baseline_nonpositive.json",
     "baseline metric 'x.a.per_sec' is not positive"),
    (1, "wrong_schema.json", None, "expected 'nbclos-bench-v1'"),
]


def main():
    failures = 0
    for want_rc, current, baseline, want_text in CASES:
        argv = [sys.executable, CHECKER, os.path.join(HERE, current)]
        if baseline:
            argv += [os.path.join(HERE, baseline), "--tolerance", "0.25"]
        run = subprocess.run(argv, capture_output=True, text=True,
                             timeout=30)
        label = " ".join([current] + ([baseline] if baseline else []))
        if run.returncode != want_rc or want_text not in run.stderr:
            print(f"FAIL {label}: exit {run.returncode} (want {want_rc}), "
                  f"stderr:\n{run.stderr}")
            failures += 1
        else:
            print(f"ok   {label}: exit {run.returncode}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
