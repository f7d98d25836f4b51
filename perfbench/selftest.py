#!/usr/bin/env python3
"""Fast self-test of perfbench/run.py on the small dk16.ji.sd_s3_x30 pair.

    python3 perfbench/selftest.py

For every workload it runs the benchmark with the dk16 parent and its
retimed twin in place of the real circuits, with tracing off and on, and
checks that every metric BENCHMARK.json names is emitted with its unit.
It then records the summaries a run produced, tampers with one recorded
number, and checks that the run is reported as failed and incorrect.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

PAIR = "dk16.ji.sd_s3_x30,dk16.ji.sd.re_s3_x30"


def bench(workload, trace, expected, record=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", "0.2", "--trace", str(trace),
           "--circuits", PAIR, "--expected", expected]
    if record:
        cmd += ["--record-expected", record]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-3000:])
        raise AssertionError("%s trace=%d exited %d"
                             % (workload, trace, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workdir = os.path.join(run.build_dir(), "selftest")
    os.makedirs(workdir, exist_ok=True)
    errors = []

    def expect(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            errors.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        recorded = os.path.join(workdir, name + ".expected.json")
        base = bench(name, 0, recorded, record=recorded)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = base if trace == 0 else bench(name, 1, recorded)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, "%s trace=%d emits every %s metric with "
                   "its unit" % (name, trace, key))
            expect(res["correct"] and res["failed"] == 0,
                   "%s trace=%d passes its output check" % (name, trace))

        with open(recorded) as f:
            table = json.load(f)
        first = sorted(table[name])[0]
        table[name][first]["detected"] += 1
        tampered = os.path.join(workdir, name + ".tampered.json")
        with open(tampered, "w") as f:
            json.dump(table, f)
        res = bench(name, 0, tampered)
        expect(not res["correct"] and res["failed"] >= 1,
               "%s reports a tampered expected summary as a failed run"
               % name)
        expect(res["metrics"]["ok_runs_frac"]["value"] < 1.0,
               "%s counts the failed run in ok_runs_frac" % name)

    print("selftest %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
