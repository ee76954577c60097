#!/usr/bin/env python3
"""CI perf gate: a change's perfbench layer metrics against its base commit's.

Usage:
    perf_gate.py BASE_TREE BASE_PASSES CHANGE_TREE CHANGE_PASSES

BASE_TREE is a checkout of the commit the change applies to and CHANGE_TREE
one of the change; each has run perfbench, so its `dtpm` CLI sits at
TREE/.bench_build/dtpm/dtpm. Each *_PASSES directory holds, as *.out files,
the standard output of at least N traced passes per gated workload from its
tree,

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1

whose `digest` line names the workload and whose last line is the result
JSON, with "correct": true and "failed": 0. Run the two sides' passes
alternately on one host, so both see the same machine. Every check compares
the change's median with the base's median, and fails when the change is
worse by more than a multiple of the base sample's IQR:

    thermal rk4/propagator   thermal.rk4_substep_ns /
                             thermal.propagator_substep_ns of each pass,
                             pooled over both workloads (the thermal probe
                             steps fixed floorplans whatever the workload).
                             Fails when it drops by more than K_RATIO x IQR.
    W sim.phase_*            each phase's share of the profiled control
                             interval of workload W. Both workloads profile
                             propagator runs; reference-rk4 is timed only by
                             the substep ratio above. Fails when it grows by
                             more than K_SHARE x IQR.
    scaling -j C / -j 1      after one untimed round, N rounds that each run
                             `dtpm fleet TREE/examples/configs/fleet_smoke.json
                             --smoke --quiet` at -j 1 and -j C (C = usable
                             cpus) on the base, then on the change; each
                             pair's wall-time ratio, -j C over -j 1. Fails
                             when it grows by more than K_RATIO x IQR, or
                             when the change's fleet_aggregate.json files
                             differ byte for byte. Skipped on a 1-cpu host,
                             where both widths run the same configuration.

IQR is Q3 - Q1 with the quartiles of statistics.quantiles(values, n=4). The
bounds come from the base sample only, so a noisy change cannot widen them.
Only ratios and shares are gated: on the measuring host absolute substep
times moved 2x between neighbouring passes while their ratio held.

Prints one line per check, then the verdict as one JSON object on the last
line. Exit status: 0 every check passed or was skipped, 1 a check failed,
2 malformed input.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

# Measured on a 4-vCPU Xeon VM (gcc 12.2, Release) with both sides built
# from one commit and their passes alternating, as in CI. In ten such gate
# runs the change's median drifted from the base's by at most 1.4 x the base
# IQR for the substep ratio, 0.8 x for the scaling ratio and 2.0 x for a
# phase share (fleet-smoke profiles few configs, so its shares have heavy
# tails). Resampling 100 earlier passes per workload put a share past 3 x IQR
# in 3.8 % of gate runs and past 4 x in 1.6 %. A propagator matvec done twice
# dropped the substep ratio by 4.9 x, a doubled sensor read raised the sensor
# shares by 5.6 x (fleet-smoke) and 11.3 x (sweep-paper), and a one-worker
# BatchRunner raised the scaling ratio by 6.1 x. On 2 cpus (taskset) the
# scaling check is weak: a one-worker pool added 0.33-0.43 to the ratio
# while the base IQR read 0.09-0.22, so one of two such runs caught it. A
# traced pass takes 11-14 s, so N = 5 per workload and side keeps the
# passes near four minutes.
N = 5
K_RATIO = 2.5
K_SHARE = 4.0

WORKLOADS = ("fleet-smoke", "sweep-paper")
RATIO = "thermal rk4/propagator"
PHASES = tuple(
    "sim.phase_" + phase for phase in ("sensor", "policy", "schedule", "plant")
)
SIDES = ("base", "change")

# {workload: {phase: [share per pass]}, RATIO: [ratio per pass]}
Values = dict[str, Any]


class InputError(Exception):
    """A pass file or directory is not what the gate reads."""


def iqr(values: list[float]) -> float:
    """Q3 - Q1, from the quartiles statistics.quantiles(n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(
    name: str, base: list[float], change: list[float], k: float,
    higher_is_worse: bool,
) -> dict[str, Any]:
    """Fails when the change's median is worse than the base's by more than
    k x the base sample's IQR."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worse_by = change_median - base_median
    if not higher_is_worse:
        worse_by = -worse_by
    bound = k * iqr(base)
    return {
        "check": name,
        "base": base_median,
        "change": change_median,
        "worse_by": worse_by,
        "bound": bound,
        "status": "fail" if worse_by > bound else "pass",
    }


def scaling_check(
    base: list[float], change: list[float], width: int, identical: bool
) -> dict[str, Any]:
    """Per-pair -j width / -j 1 wall-time ratios of both sides, compared with
    K_RATIO; the change's aggregates must also be byte-identical. Skipped
    when width is 1."""
    name = f"scaling -j {width} / -j 1"
    if width <= 1:
        return {"check": name, "status": "skip",
                "reason": "1 cpu: both widths run the same configuration"}
    check = compare(name, base, change, K_RATIO, higher_is_worse=True)
    check["identical_aggregates"] = identical
    if not identical:
        check["status"] = "fail"
    return check


def read_pass(path: str) -> tuple[str, dict[str, float]]:
    """Returns (workload, {RATIO or phase: value}) of one traced pass."""
    with open(path) as f:
        lines = f.read().splitlines()
    workloads = [line.split()[1] for line in lines if line.startswith("digest ")]
    if len(workloads) != 1 or workloads[0] not in WORKLOADS:
        raise InputError(f"{path}: no single digest line of a gated workload")
    try:
        result = json.loads(lines[-1])
        metrics = {
            name: float(entry["value"])
            for name, entry in result["metrics"].items()
        }
        ok = result["correct"] is True and result["failed"] == 0
        quantities = {RATIO: metrics["thermal.rk4_substep_ns"]
                      / metrics["thermal.propagator_substep_ns"]}
        quantities.update({phase: metrics[phase] for phase in PHASES})
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as error:
        raise InputError(
            f"{path}: not a traced perfbench pass ({error!r})") from error
    if not ok:
        raise InputError(f"{path}: pass is not correct or has failed operations")
    return workloads[0], quantities


def read_passes(paths: list[str]) -> Values:
    values: Values = {w: {phase: [] for phase in PHASES} for w in WORKLOADS}
    values[RATIO] = []
    for path in paths:
        workload, quantities = read_pass(path)
        values[RATIO].append(quantities.pop(RATIO))
        for phase, share in quantities.items():
            values[workload][phase].append(share)
    for workload in WORKLOADS:
        count = len(values[workload][PHASES[0]])
        if count < N:
            raise InputError(f"{workload}: {count} passes, the gate needs {N}")
    return values


def time_fleets(
    trees: dict[str, str], width: int
) -> tuple[dict[str, list[float]], bool]:
    """N + 1 rounds of smoke-fleet runs at -j 1 and -j width, base then
    change; returns each side's per-pair wall-time ratios (the first round
    dropped) and whether the change's aggregates are all byte-identical."""
    ratios: dict[str, list[float]] = {side: [] for side in SIDES}
    aggregates: set[bytes] = set()
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "fleet")
        for _ in range(N + 1):
            for side in SIDES:
                tree = trees[side]
                seconds: list[float] = []
                for workers in (1, width):
                    start = time.perf_counter()
                    subprocess.run(
                        [os.path.join(tree, ".bench_build", "dtpm", "dtpm"),
                         "fleet",
                         os.path.join(tree, "examples", "configs",
                                      "fleet_smoke.json"),
                         "--smoke", "--quiet", "-j", str(workers),
                         "--out", out],
                        check=True,
                    )
                    seconds.append(time.perf_counter() - start)
                    if side == "change":
                        path = os.path.join(out, "fleet_aggregate.json")
                        with open(path, "rb") as f:
                            aggregates.add(f.read())
                ratios[side].append(seconds[1] / seconds[0])
    return {side: r[1:] for side, r in ratios.items()}, len(aggregates) == 1


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"base": argv[0], "change": argv[2]}
    try:
        values = {side: read_passes(sorted(glob.glob(
                      os.path.join(directory, "*.out"))))
                  for side, directory in zip(SIDES, argv[1::2])}
    except (InputError, OSError) as error:
        print(f"perf_gate: {error}", file=sys.stderr)
        return 2
    base, change = values["base"], values["change"]

    checks = [compare(RATIO, base[RATIO], change[RATIO], K_RATIO,
                      higher_is_worse=False)]
    checks += [compare(f"{workload} {phase}", base[workload][phase],
                       change[workload][phase], K_SHARE, higher_is_worse=True)
               for workload in WORKLOADS for phase in PHASES]
    width = len(os.sched_getaffinity(0))
    scaling: dict[str, list[float]] = {side: [] for side in SIDES}
    identical = True
    try:
        if width > 1:
            scaling, identical = time_fleets(trees, width)
        checks.append(scaling_check(scaling["base"], scaling["change"],
                                    width, identical))
    except (OSError, subprocess.CalledProcessError) as error:
        checks.append({"check": "scaling", "status": "fail",
                       "reason": str(error)})

    for check in checks:
        if "reason" in check:
            print(f"{check['status']:<5} {check['check']}: {check['reason']}")
            continue
        print(f"{check['status']:<5} {check['check']:<32} "
              f"base {check['base']:.4g}  change {check['change']:.4g}  "
              f"worse by {check['worse_by']:.3g}  bound {check['bound']:.3g}")
    ok = all(check["status"] != "fail" for check in checks)
    print(json.dumps({"ok": ok, "k_ratio": K_RATIO, "k_share": K_SHARE,
                      "passes": N,
                      "checks": checks, "values": values,
                      "scaling_ratios": scaling}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
