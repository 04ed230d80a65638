#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 \\
        --calib-ref-ms K
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe with dune and replaces
itself with it; the benchmark's last line of output is its JSON result.
The second form runs the benchmark's own tests: the calibration math and
percentile rule on synthetic timings, then one short run per workload
(untraced and traced), checking that every metric BENCHMARK.json declares
is printed with its unit and that every op's output checked out.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a Tawa checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    # The dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr)
    return 0 if done.returncode == 0 else 1


def smoke(spec, name, trace):
    declared = spec["per_layer" if trace else "end_to_end"]
    cmd = spec["command"][2:]
    out = subprocess.run(
        [EXE] + cmd + ["--workload", name, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    problems = []
    if out.returncode != 0:
        problems.append("exit code %d" % out.returncode)
    else:
        result = json.loads(out.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("result keys %s" % sorted(result))
        if not result["correct"] or result["failed"] != 0:
            problems.append("outputs did not check out")
        for m in declared:
            got = metrics.get(m["name"])
            if got is None:
                problems.append("missing %s" % m["name"])
            elif got.get("unit") != m["unit"]:
                problems.append("%s has unit %r, declared %r" % (m["name"], got.get("unit"), m["unit"]))
        extra = set(metrics) - {m["name"] for m in declared}
        if extra:
            problems.append("undeclared metrics %s" % sorted(extra))
        if not trace and metrics.get("success_rate", {}).get("value") != 1:
            problems.append("success_rate is not 1")
    label = "%s trace=%d" % (name, trace)
    print(("ok   " if not problems else "FAIL ") + label + "".join("; " + p for p in problems))
    return not problems


def self_test():
    status = subprocess.run([EXE, "--self-test"]).returncode
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = status == 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            ok = smoke(spec, w["name"], trace) and ok
    return 0 if ok else 1


def main():
    status = build()
    if status != 0:
        return status
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
