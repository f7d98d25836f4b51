#!/usr/bin/env python3
"""End-to-end benchmark of the satpg CLI on parent/retimed-twin pairs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The script builds `satpg` and the tracing
harness (perfbench/harness.cpp) in Release under .bench_build/, then:

  --trace 0  times the workload's CLI invocations, one at a time, in
             repetitions until --seconds have passed, checks every
             invocation's output, and reports the end-to-end metrics;
  --trace 1  runs each invocation once (checked the same way), then one
             traced run of the harness, which wraps a span around each
             call into a layer's public function; reports the per-layer
             metrics and replays the CLI's tests as an independent check
             of its detected verdicts.

Every metric is printed as "name value unit"; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Workloads, metrics and the reasons behind them are listed in
BENCHMARK.json at the repository root.

Output check, per CLI invocation: exit code 0; for atpg the report parses
as satpg.atpg_run.v6 and the tests file holds the reported number of
sequences; the deterministic summary is identical in every repetition
and, where the seed is the recorded one, equals perfbench/expected.json.
A failing invocation is counted in `failed` and in ok_runs_frac, never
retried or dropped. `correct` is false when an invocation that exited 0
produced a wrong or unreadable result, or when the traced replay disagrees
with a report.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 7
CLI_TIMEOUT_S = 170.0
SETUP_PROCS = 3

S510 = ["s510.jc.sd_s1_x100", "s510.jc.sd.re_s1_x100"]
S820 = ["s820.jc.sd_s1_x100", "s820.jc.sd.re_s1_x100"]

# The ATPG workloads pin the CLI seed: the seed picks the random-phase
# sequences, and with them how many faults reach the budgeted search, so
# it moves the work of one repetition by up to 2.3x (hitec s820 pair,
# seeds 1-7: 11.0-25.5 s). Varying it would bury any speed change.
WORKLOADS = {
    "hitec-s820": {
        "kind": "atpg", "circuits": S820, "engine": "hitec",
        "budget": "0.5", "threads": 1, "atpg_seed": DEFAULT_SEED,
        "setup_reps": 15,
    },
    "cdcl-s510": {
        "kind": "atpg", "circuits": S510, "engine": "cdcl",
        "budget": "0.05", "threads": 4, "atpg_seed": DEFAULT_SEED,
        "setup_reps": 2,
    },
    "fsim-s510": {
        "kind": "fsim", "circuits": S510, "sequences": 8192, "length": 64,
        "threads": 4, "setup_reps": 6,
    },
}

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("evals_per_s", "1/s"),
    ("patterns_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("fault_coverage_pct", "%"), ("setup_s", "s"), ("ok_runs_frac", "ratio"),
]
PER_LAYER = [
    ("netlist.read_s", "s"), ("fault.collapse_s", "s"),
    ("analysis.oracle_build_s", "s"), ("analysis.valid_states", "count"),
    ("atpg.search_s", "s"), ("atpg.attempts", "count"),
    ("atpg.evals", "count"), ("atpg.backtracks", "count"),
    ("atpg.implications", "count"), ("atpg.ns_per_eval", "ns"),
    ("atpg.aborted_frac", "ratio"), ("atpg.invalid_effort_frac", "ratio"),
    ("atpg.justify_calls", "count"), ("atpg.justify_failures", "count"),
    ("cdcl.propagations", "count"), ("cdcl.conflicts", "count"),
    ("cdcl.restarts", "count"), ("cdcl.cube_exports", "count"),
    ("cdcl.cube_blocks", "count"), ("cdcl.ns_per_propagation", "ns"),
    ("parallel.run_s", "s"), ("parallel.worker_busy_frac", "ratio"),
    ("parallel.extra_evals_frac", "ratio"), ("fsim.random_phase_s", "s"),
    ("fsim.drop_s", "s"), ("fsim.drop_calls", "count"),
    ("fsim.replay_s", "s"), ("fsim.grade_s", "s"), ("fsim.good_s", "s"),
    ("fsim.ns_per_pattern", "ns"), ("harness.report_s", "s"),
    ("trace.unattributed_s", "s"),
]

ATPG_SUMMARY_KEYS = [
    "total_faults", "detected", "redundant", "aborted", "fault_coverage",
    "fault_efficiency", "evals", "backtracks", "tests", "states_traversed",
    "conflicts", "propagations", "restarts", "cube_exports",
]


class BenchError(Exception):
    """A condition under which no numbers may be published."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def ratio(num, den):
    return num / den if den else 0.0


# ---- build and provenance ----

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def check_sources(wl):
    needed = [os.path.join(ROOT, "CMakeLists.txt"),
              os.path.join(ROOT, "src"),
              os.path.join(ROOT, "tools", "satpg_cli.cpp")]
    needed += [circuit_path(c) for c in wl["circuits"]]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError("repository sources missing: " +
                         ", ".join(os.path.relpath(p, ROOT) for p in missing))


def circuit_path(name):
    if name.endswith(".bench"):
        return name if os.path.isabs(name) else os.path.join(ROOT, name)
    return os.path.join(ROOT, "circuits_cache", name + ".bench")


def build():
    out = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "satpg",
                  "perfbench_harness"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(out, "satpg", "tools", "satpg"),
            os.path.join(out, "perfbench_harness"))


def provenance(satpg, seed):
    version = subprocess.run([satpg, "--version"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout.strip()
    first = version.splitlines()[0] if version else ""
    if ", Release," not in first or "sanitizer none" not in first:
        raise BenchError("refusing to publish numbers from a non-Release or "
                         "sanitizer build: " + first)
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    lines = ["satpg --version:"] + ["  " + l for l in version.splitlines()]
    lines += ["nproc: %d" % (os.cpu_count() or 0), "seed: %d" % seed,
              "git commit: " + commit]
    return lines


# ---- one CLI invocation ----

def run_child(cmd, stdout_path, timeout=CLI_TIMEOUT_S):
    """Runs cmd to completion; returns (exit code or -signal, wall s,
    user+sys CPU s, max RSS MB) of that child alone."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
    killer = threading.Timer(timeout, os.kill, (p.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def atpg_command(satpg, wl, circuit, report, tests):
    return [satpg, "atpg", circuit_path(circuit), "--engine=" + wl["engine"],
            "--budget=" + wl["budget"], "--threads=%d" % wl["threads"],
            "--seed=%d" % wl["atpg_seed"], "--metrics-json=" + report,
            "--tests=" + tests]


def fsim_command(satpg, wl, circuit, seed):
    return [satpg, "fsim", circuit_path(circuit),
            "--sequences=%d" % wl["sequences"], "--length=%d" % wl["length"],
            "--threads=%d" % wl["threads"], "--seed=%d" % seed]


def read_atpg_outputs(report, tests):
    """Deterministic summary of one `satpg atpg` run, or raises ValueError."""
    with open(report) as f:
        doc = json.load(f)
    if doc.get("schema") != "satpg.atpg_run.v6":
        raise ValueError("report schema is %r" % doc.get("schema"))
    s = doc["summary"]
    summary = {k: s[k] for k in ATPG_SUMMARY_KEYS}
    with open(tests) as f:
        lines = f.read().splitlines()
    seqs = sum(1 for l in lines if l.startswith("sequence "))
    if seqs != summary["tests"]:
        raise ValueError("tests file holds %d sequences, report says %d"
                         % (seqs, summary["tests"]))
    summary["test_vectors"] = sum(
        1 for l in lines if l and not l.startswith(("#", "sequence ")))
    return summary


def read_fsim_outputs(stdout_path):
    """Deterministic summary parsed from `satpg fsim` standard output."""
    fields = {}
    with open(stdout_path) as f:
        for line in f:
            key, _, val = line.partition(":")
            fields[key.strip()] = val.split()
    faults, detected = fields["faults"], fields["detected"]
    return {
        "classes": int(faults[0]), "total_faults": int(faults[3][1:]),
        "detected_classes": int(detected[0]),
        "detected": int(detected[2][1:]),
        "states_traversed": int(fields["states traversed"][0]),
    }


def describe_exit(code):
    return ("signal %d" % -code) if code < 0 else ("exit %d" % code)


class Checker:
    """Applies the output check and keeps the run's failure accounting."""

    def __init__(self, expected):
        self.expected = expected  # circuit -> summary, or None
        self.first = {}           # circuit -> first summary seen
        self.attempted = 0
        self.failed = 0
        self.wrong = 0            # exited 0 but output wrong/unreadable

    def check(self, circuit, code, read):
        self.attempted += 1
        if code != 0:
            log("FAILED %s: %s" % (circuit, describe_exit(code)))
            self.failed += 1
            return None
        try:
            summary = read()
        except (OSError, ValueError, KeyError, IndexError) as e:
            return self._wrong(circuit, "unreadable output: %s" % e)
        ref = self.first.setdefault(circuit, summary)
        if summary != ref:
            return self._wrong(circuit, "summary differs between "
                               "repetitions: %s vs %s" % (summary, ref))
        if self.expected is not None:
            want = self.expected.get(circuit)
            if want != summary:
                return self._wrong(circuit, "summary %s differs from the "
                                   "recorded %s" % (summary, want))
        return summary

    def _wrong(self, circuit, why):
        log("FAILED %s: %s" % (circuit, why))
        self.failed += 1
        self.wrong += 1
        return None


def output_base(work, circuit, rep):
    return os.path.join(work, "%s.%d" % (circuit, rep))


def run_repetition(satpg, wl, seed, work, checker, rep):
    """One repetition: every CLI invocation of the workload in sequence.
    Returns (wall, cpu, rss, summaries)."""
    wall = cpu = rss = 0.0
    summaries = {}
    for c in wl["circuits"]:
        base = output_base(work, c, rep)
        if wl["kind"] == "atpg":
            report, tests = base + ".json", base + ".tests"
            for p in (report, tests):
                if os.path.exists(p):
                    os.remove(p)
            cmd = atpg_command(satpg, wl, c, report, tests)
            read = lambda r=report, t=tests: read_atpg_outputs(r, t)
        else:
            cmd = fsim_command(satpg, wl, c, seed)
            read = lambda p=base + ".out": read_fsim_outputs(p)
        code, w, u, m = run_child(cmd, base + ".out")
        wall, cpu, rss = wall + w, cpu + u, max(rss, m)
        summaries[c] = checker.check(c, code, read)
    return wall, cpu, rss, summaries


def throughput(wl, summaries):
    """(work units, patterns) of one repetition, from its summaries."""
    ok = [summaries.get(c) for c in wl["circuits"]]
    if any(s is None for s in ok):
        return None
    if wl["kind"] == "atpg":
        return (sum(s["evals"] for s in ok),
                sum(s["test_vectors"] for s in ok))
    patterns = wl["sequences"] * wl["length"]
    return (sum(s["classes"] for s in ok) * patterns, patterns * len(ok))


def coverage(wl, summaries):
    ok = [summaries.get(c) for c in wl["circuits"]]
    if any(s is None for s in ok):
        return None
    return 100.0 * ratio(sum(s["detected"] for s in ok),
                         sum(s["total_faults"] for s in ok))


def measure(satpg, wl, seed, seconds, work, checker):
    """Repetitions until `seconds` have passed; the end-to-end metrics
    other than setup_s."""
    walls, cpus, rss, rates = [], [], [], []
    fc = None
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        w, u, m, summaries = run_repetition(satpg, wl, seed, work, checker,
                                            len(walls))
        walls.append(w)
        cpus.append(u)
        rss.append(m)
        tp = throughput(wl, summaries)
        if tp is not None:
            rates.append((tp[0] / w, tp[1] / w))
        if fc is None:
            fc = coverage(wl, summaries)
    log("%d repetitions, wall %s" % (len(walls),
                                     " ".join("%.3f" % w for w in walls)))
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "evals_per_s": statistics.median(r[0] for r in rates) if rates else 0.0,
        "patterns_per_s":
            statistics.median(r[1] for r in rates) if rates else 0.0,
        "peak_rss_mb": statistics.median(rss),
        "fault_coverage_pct": fc or 0.0,
        "ok_runs_frac": ratio(checker.attempted - checker.failed,
                              checker.attempted),
    }


# ---- setup time ----

def measure_setup(harness, wl, seed):
    """Median over SETUP_PROCS harness processes of setup_reps timings
    each: a process tends to run all its repetitions fast or all slow."""
    cmd = [harness, "setup", "--kind=" + wl["kind"],
           "--reps=%d" % wl["setup_reps"], "--seed=%d" % seed]
    if wl["kind"] == "fsim":
        cmd += ["--sequences=%d" % wl["sequences"],
                "--length=%d" % wl["length"]]
    cmd += [circuit_path(c) for c in wl["circuits"]]
    times = []
    for _ in range(SETUP_PROCS):
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=CLI_TIMEOUT_S)
        got = [float(l.split()[1]) for l in r.stdout.splitlines()
               if l.startswith("setup_s ")]
        if r.returncode != 0 or len(got) != wl["setup_reps"]:
            raise BenchError("setup timing failed (exit %d)" % r.returncode)
        times += got
    return statistics.median(times)


# ---- traced run ----

def span_sums(spans):
    total, top = {}, 0.0
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        if s["parent"] < 0:
            top += d
    return total, top


def self_times(spans):
    """Span duration minus the time its (nested, sequential) children
    cover, summed per span name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + \
            (s["end"] - s["start"]) - child[i]
    return out


def layer_metrics(doc):
    c = doc["counts"]
    get = lambda k: float(c.get(k, 0.0))
    t, top = span_sums(doc["spans"])
    ts = lambda k: t.get(k, 0.0)
    search = ts("atpg.generate")
    evals = get("atpg.evals")
    run_s = ts("parallel.run")
    serial = get("parallel.serial_evals")
    grade = ts("fsim.grade") + ts("fsim.random_phase")
    m = {
        "netlist.read_s": ts("netlist.read"),
        "fault.collapse_s": ts("fault.collapse"),
        "analysis.oracle_build_s": ts("analysis.oracle_build"),
        "analysis.valid_states": get("analysis.valid_states"),
        "atpg.search_s": search,
        "atpg.attempts": get("atpg.attempts"),
        "atpg.evals": evals,
        "atpg.backtracks": get("atpg.backtracks"),
        "atpg.implications": get("atpg.implications"),
        "atpg.ns_per_eval": 1e9 * ratio(search, evals),
        "atpg.aborted_frac": ratio(get("atpg.aborted"),
                                   get("atpg.attempts")),
        "atpg.invalid_effort_frac": ratio(get("atpg.invalid_evals"), evals),
        "atpg.justify_calls": get("atpg.justify_calls"),
        "atpg.justify_failures": get("atpg.justify_failures"),
        "cdcl.propagations": get("cdcl.propagations"),
        "cdcl.conflicts": get("cdcl.conflicts"),
        "cdcl.restarts": get("cdcl.restarts"),
        "cdcl.cube_exports": get("cdcl.cube_exports"),
        "cdcl.cube_blocks": get("cdcl.cube_blocks"),
        "cdcl.ns_per_propagation":
            1e9 * ratio(search, get("cdcl.propagations")),
        "parallel.run_s": run_s,
        "parallel.worker_busy_frac":
            ratio(get("parallel.busy_s"), run_s * get("parallel.threads")),
        "parallel.extra_evals_frac":
            ratio(get("parallel.evals") - serial, serial),
        "fsim.random_phase_s": ts("fsim.random_phase"),
        "fsim.drop_s": ts("fsim.drop"),
        "fsim.drop_calls": get("fsim.drop_calls"),
        "fsim.replay_s": ts("fsim.replay"),
        "fsim.grade_s": grade,
        "fsim.good_s": ts("fsim.good") + ts("fsim.replay"),
        "fsim.ns_per_pattern": 1e9 * ratio(grade, get("fsim.patterns")),
        "harness.report_s": ts("harness.report"),
        "trace.unattributed_s": doc["wall_s"] - top,
    }
    return m, doc["wall_s"]


def traced_run(satpg, harness, wl, seed, work, checker):
    """CLI invocations once each, then the harness's traced run. Returns
    (per-layer metrics, verdict mismatches)."""
    _, _, _, summaries = run_repetition(satpg, wl, seed, work, checker, 0)
    out = os.path.join(work, "trace.json")
    cmd = [harness, "trace", "--kind=" + wl["kind"], "--out=" + out,
           "--threads=%d" % wl["threads"]]
    targets = []
    for c in wl["circuits"]:
        arg = circuit_path(c)
        if wl["kind"] == "atpg":
            arg += "=" + output_base(work, c, 0) + ".tests"
        targets.append(arg)
    if wl["kind"] == "atpg":
        cmd += ["--engine=" + wl["engine"], "--budget=" + wl["budget"],
                "--seed=%d" % wl["atpg_seed"]]
    else:
        cmd += ["--seed=%d" % seed, "--sequences=%d" % wl["sequences"],
                "--length=%d" % wl["length"]]
    checker.attempted += 1
    code, _, _, _ = run_child(cmd + targets, out + ".log")
    if code != 0:
        checker.failed += 1
        log("FAILED traced run: %s" % describe_exit(code))
    try:
        with open(out) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("traced run left no trace: %s" % e)
    metrics, wall = layer_metrics(doc)
    log("traced run: %.3f s wall, %.1f%% unattributed"
        % (wall, 100.0 * ratio(metrics["trace.unattributed_s"], wall)))
    for name, d in sorted(self_times(doc["spans"]).items()):
        log("  self %-24s %10.4f s" % (name, d))

    # Independent verdict check. atpg: replaying the CLI's own tests must
    # detect (or potentially detect) exactly the weight its report claims.
    # fsim: the harness's grading must detect the classes the CLI did.
    ok = [summaries[c] for c in wl["circuits"]]
    if any(s is None for s in ok):
        return metrics, 0
    claim, mine = (("detected", "verdict.replay_weight")
                   if wl["kind"] == "atpg" else
                   ("detected_classes", "fsim.detected_classes"))
    claimed = sum(s[claim] for s in ok)
    replayed = doc["counts"].get(mine, -1)
    log("verdict check: %s of %d" % (replayed, claimed))
    if replayed == claimed:
        return metrics, 0
    log("FAILED verdict check: the replay disagrees with the CLI report")
    return metrics, 1


# ---- main ----

def load_expected(path, workload, circuits):
    if not path or not os.path.exists(path):
        return None
    with open(path) as f:
        table = json.load(f).get(workload)
    if table is None or any(c not in table for c in circuits):
        return None
    return table


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (perfbench/selftest.py): other circuits, another
    # expected-summary file, and recording the summaries a run produced.
    ap.add_argument("--circuits", help=argparse.SUPPRESS)
    ap.add_argument("--expected", default=EXPECTED, help=argparse.SUPPRESS)
    ap.add_argument("--record-expected", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = dict(WORKLOADS[args.workload])
    if args.circuits:
        wl["circuits"] = args.circuits.split(",")
    try:
        check_sources(wl)
        satpg, harness = build()
        prov = provenance(satpg, args.seed)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    for line in prov:
        print("# " + line)

    # The ATPG workloads always run the recorded seed; fsim runs it only
    # when the benchmark seed is the default one.
    pinned = wl["kind"] == "atpg" or args.seed == DEFAULT_SEED
    expected = load_expected(args.expected, args.workload,
                             wl["circuits"]) if pinned else None
    if pinned and expected is None and not args.record_expected:
        log("error: no recorded summary for %s in %s"
            % (args.workload, args.expected))
        return 1
    checker = Checker(expected)
    work = os.path.join(build_dir(), "runs",
                        "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        setup_s = measure_setup(harness, wl, args.seed)
        if args.trace:
            metrics, mismatches = traced_run(satpg, harness, wl, args.seed,
                                             work, checker)
            names = PER_LAYER
        else:
            metrics = measure(satpg, wl, args.seed, args.seconds, work,
                              checker)
            metrics["setup_s"] = setup_s
            mismatches = 0
            names = END_TO_END
    except BenchError as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_expected:
        with open(args.record_expected, "w") as f:
            json.dump({args.workload: checker.first}, f, indent=1,
                      sort_keys=True)
    for name, unit in names:
        print("%-26s %.6g %s" % (name, metrics[name], unit))
    result = {
        "correct": checker.wrong == 0 and mismatches == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
