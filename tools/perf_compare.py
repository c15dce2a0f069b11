#!/usr/bin/env python3
"""Compare two perf_runner JSON outputs and fail on wall-clock regression.

Usage: perf_compare.py BASELINE.json CURRENT.json [--tolerance 0.25]

Both files carry a calibration kernel (a fixed memory-bound dependent-load
walk) timed on the host that produced them. Each measurement is gated on its
wall time divided by its own file's kernel time, so a baseline recorded on a
slower or faster host still compares like for like: the normalized ratio

    (cur.wall_ms / cur.calibration) / (base.wall_ms / base.calibration)

may exceed 1 by at most `tolerance` (default 25%). The raw wall-clock ratio
is printed beside it for reference but never gates. Measurements that got
faster, or that exist on only one side, never fail the check (new
measurements start gating once they land in the refreshed baseline).

Wall-clock on shared CI runners is noisy; the default tolerance is chosen so
only a real hot-path regression (not scheduler jitter) trips it. Refresh the
baseline with `perf_runner --long --out bench/BENCH_hotpath.json` after an
intentional perf change.
"""

import argparse
import json
import sys


def load(path):
    """Returns ({name: measurement}, calibration wall_ms) of one file."""
    with open(path) as f:
        doc = json.load(f)
    calibration = doc.get("calibration", {}).get("wall_ms", 0)
    if calibration <= 0:
        sys.exit(f"{path}: no calibration kernel time; re-run perf_runner "
                 "to produce a file this script can compare")
    return {m["name"]: m for m in doc.get("measurements", [])}, calibration


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional growth of the normalized "
                             "wall time (default 0.25)")
    args = parser.parse_args()

    base, base_cal = load(args.baseline)
    cur, cur_cal = load(args.current)
    host_speed = cur_cal / base_cal

    failures = []
    rows = []
    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            rows.append((name, b["wall_ms"], None, None, None, "missing (skipped)"))
            continue
        raw = c["wall_ms"] / b["wall_ms"] if b["wall_ms"] > 0 else 1.0
        norm = raw / host_speed
        verdict = "ok"
        if norm > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(name)
        rows.append((name, b["wall_ms"], c["wall_ms"], raw, norm, verdict))
    for name in cur:
        if name not in base:
            rows.append((name, None, cur[name]["wall_ms"], None, None, "new (not gated)"))

    print(f"calibration: base {base_cal:.2f} ms, cur {cur_cal:.2f} ms "
          f"(host speed ratio {host_speed:.3f})")
    print(f"{'measurement':38} {'base ms':>10} {'cur ms':>10} {'raw':>7} "
          f"{'norm':>7}  verdict")
    for name, b_ms, c_ms, raw, norm, verdict in rows:
        fmt = lambda v, spec: format(v, spec) if v is not None else "-"
        print(f"{name:38} {fmt(b_ms, '.2f'):>10} {fmt(c_ms, '.2f'):>10} "
              f"{fmt(raw, '.3f'):>7} {fmt(norm, '.3f'):>7}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} measurement(s) regressed more than "
              f"{args.tolerance * 100:.0f}% after host-speed normalization: "
              f"{', '.join(failures)}")
        return 1
    print("\nOK: no normalized wall-clock regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
