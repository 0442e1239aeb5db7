#!/usr/bin/env python3
"""Check an nbclos-bench-v1 document and flag throughput regressions.

Usage:
    check_bench_regression.py CURRENT.json [BASELINE.json]
                              [--tolerance 0.25] [--schema-only]

Every JSON bench writes one document (bench/harness.hpp):

    {"schema": "nbclos-bench-v1", "experiment": <id>, "params": {...},
     "metrics":  {<name>: {"value": <number>, "unit": <str>, "gate": <bool>}},
     "verdicts": {<name>: <bool>},
     "budgets":  {<name>: {"value": <number>, "limit": <number>}},
     "manifest": {"build_type": <str>, "hardware_concurrency": <int>, ...}}

Checks, in order; every failure is reported, and any makes the exit
status 1:

  1. both documents have the envelope above;
  2. CURRENT has no false verdict;
  3. every CURRENT budget holds: value <= limit, recomputed here;
  4. with a BASELINE: the experiments match, and every metric, verdict
     and budget name the baseline has is also in CURRENT, so a check
     cannot vanish silently;
  5. with a BASELINE and without --schema-only: the throughput gate
     over the metrics the baseline marks "gate": true (all
     higher-is-better):
       * the GEOMETRIC MEAN of the current/baseline ratios must be
         >= 1 - tolerance (default 25%) — a genuine slowdown moves every
         ratio, so the mean is far less noisy than any single timing;
       * each INDIVIDUAL ratio must stay >= 1 - 2*tolerance — a backstop
         against one case cratering while the others mask it;
       * a baseline value <= 0 is an error.

Comparisons across *different* hardware are only meaningful for
order-of-magnitude sanity, which is exactly what the CI smoke job uses
them for.
"""

import argparse
import json
import math
import sys

SCHEMA = "nbclos-bench-v1"
SECTIONS = ("metrics", "verdicts", "budgets")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def envelope_errors(doc):
    """Everything wrong with the document's shape, as messages."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        return [f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}"]
    errors = []
    if not isinstance(doc.get("experiment"), str) or not doc["experiment"]:
        errors.append("'experiment' must be a non-empty string")
    for key in ("params", "manifest") + SECTIONS:
        if not isinstance(doc.get(key), dict):
            errors.append(f"'{key}' must be an object")
    if errors:
        return errors
    manifest = doc["manifest"]
    if not isinstance(manifest.get("build_type"), str) or \
            not is_number(manifest.get("hardware_concurrency")):
        errors.append("manifest lacks build_type or hardware_concurrency")
    for name, value in doc["params"].items():
        if not (is_number(value) or isinstance(value, (str, bool))):
            errors.append(f"param '{name}' is not a number, string or bool")
    for name, m in doc["metrics"].items():
        if not (isinstance(m, dict) and set(m) == {"value", "unit", "gate"}
                and is_number(m["value"]) and isinstance(m["unit"], str)
                and isinstance(m["gate"], bool)):
            errors.append(f"metric '{name}' is not "
                          "{value: number, unit: string, gate: bool}")
    for name, ok in doc["verdicts"].items():
        if not isinstance(ok, bool):
            errors.append(f"verdict '{name}' is not a bool")
    for name, b in doc["budgets"].items():
        if not (isinstance(b, dict) and set(b) == {"value", "limit"}
                and is_number(b["value"]) and is_number(b["limit"])):
            errors.append(f"budget '{name}' is not "
                          "{value: number, limit: number}")
    return errors


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, [f"{path}: {e}"]
    return doc, [f"{path}: {e}" for e in envelope_errors(doc)]


def gate_errors(current, baseline, tolerance):
    """The two-level throughput gate; prints one line per gated metric."""
    gated = {name: m["value"] for name, m in baseline["metrics"].items()
             if m["gate"]}
    bad = [f"baseline metric '{name}' is not positive"
           for name, value in sorted(gated.items()) if value <= 0]
    if bad or not gated:
        return bad
    errors = []
    hard_floor = 1.0 - 2.0 * tolerance
    log_ratio_sum = 0.0
    for name, base_value in sorted(gated.items()):
        value = current["metrics"][name]["value"]
        ratio = value / base_value
        log_ratio_sum += math.log(max(ratio, 1e-12))
        verdict = "ok"
        if ratio < hard_floor:
            verdict = f"REGRESSED (below hard floor {hard_floor:.0%})"
            errors.append(f"metric '{name}' regressed beyond the "
                          f"{2 * tolerance:.0%} hard floor (ratio {ratio:.2f})")
        print(f"  {name}: {value:.3e} vs baseline {base_value:.3e} "
              f"(ratio {ratio:.2f}) {verdict}")
    geomean = math.exp(log_ratio_sum / len(gated))
    print(f"  geometric-mean ratio over {len(gated)} metrics: {geomean:.3f}")
    if geomean < 1.0 - tolerance:
        errors.append(f"aggregate throughput regressed beyond "
                      f"{tolerance:.0%} tolerance (geomean ratio "
                      f"{geomean:.3f})")
    return errors


def check(args):
    current, errors = load(args.current)
    if errors:
        return errors
    errors += [f"verdict '{name}' is false"
               for name, ok in sorted(current["verdicts"].items()) if not ok]
    errors += [f"budget '{name}': {b['value']} exceeds limit {b['limit']}"
               for name, b in sorted(current["budgets"].items())
               if not b["value"] <= b["limit"]]
    if args.baseline is None:
        return errors

    baseline, base_errors = load(args.baseline)
    if base_errors:
        return errors + base_errors
    if baseline["experiment"] != current["experiment"]:
        return errors + [f"experiment mismatch: {current['experiment']} vs "
                         f"baseline {baseline['experiment']}"]
    missing = [f"current document is missing {section[:-1]} '{name}'"
               for section in SECTIONS
               for name in sorted(baseline[section])
               if name not in current[section]]
    if missing or args.schema_only:
        return errors + missing
    return errors + gate_errors(current, baseline, args.tolerance)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("current")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--schema-only", action="store_true",
                        help="check the documents and names, skip the "
                             "throughput gate")
    args = parser.parse_args()

    errors = check(args)
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if errors:
        sys.exit(1)
    what = "valid" if args.baseline is None or args.schema_only else \
        f"no regression beyond {args.tolerance:.0%} tolerance"
    print(f"{args.current}: {what}")


if __name__ == "__main__":
    main()
