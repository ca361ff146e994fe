#!/usr/bin/env python3
"""End-to-end benchmark of the velodrome command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds `velodrome` and the helper `perfbench/tool/vbench.exe`
from source, generates the workload's inputs from the seed, computes an
independent reference for them, then runs the command a user would type
as a child process, pass after pass, for the given number of seconds.
Every pass's output is checked against the reference; a mismatch counts
as a failed operation.

With `--trace 0` the last line of stdout is the result with the
end-to-end metrics (medians over the passes). With `--trace 1` the same
checked passes alternate with traced runs of vbench, which call each
layer directly, and the result carries the per-layer metrics instead.
The spans are kept in `.bench_work/traces/`.

Workloads, metrics and the prediction table are described in
perfbench/NOTES.md. `--scale smoke` and `--tamper-reference` exist for
perfbench/selftest.py.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
VELODROME = os.path.join(ROOT, "_build", "default", "bin", "velodrome_cli.exe")
VBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "tool", "vbench.exe")

WORKLOADS = ("clean-stream", "violation-dense", "program")

# Input sizes: "full" is what the benchmark measures, "smoke" is for the
# self-test.
SCALES = {
    "full": {
        "clean_size": "large",
        "dense_steps": 100_000,
        "serve_streams": 300,
        "serve_dense_steps": 1500,
        "program_size": "large",
        "program_workloads": None,  # all of them
    },
    "smoke": {
        "clean_size": "small",
        "dense_steps": 3000,
        "serve_streams": 12,
        "serve_dense_steps": 300,
        "program_size": "small",
        "program_workloads": ["jbb", "multiset", "raja"],
    },
}

# Set-up runs at least SETUP_MIN_REPEATS times, and cheap set-ups repeat
# until SETUP_MIN_SECONDS have been spent, so that setup_s is a median
# over enough work.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0
SERVE_JOBS = 2
TRACE_ROUNDS = 3
NEAR_SECONDS = 3.0


class Fail(Exception):
    """A pass whose output disagrees with the reference."""


def log(msg):
    print(msg, flush=True)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def run_tool(args, cwd):
    """Runs vbench and returns its JSON output."""
    p = subprocess.run([VBENCH] + args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, check=False)
    if p.returncode != 0:
        die("vbench %s failed: %s" % (args[0], p.stderr.decode(errors="replace")))
    return json.loads(p.stdout)


def run_child(cmd, cwd, out_path):
    """Runs one command with stdout to a file.

    Returns (exit code, wall seconds, user+sys CPU seconds, peak RSS in MB)
    of that child alone, via wait4.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def digest_dir(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, path).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


# --- check-trace output -----------------------------------------------------

WARN_RE = re.compile(r"^  (\S+): (\S+)(?: \[([^\]]*)\])?(?: on \S+)? at #(\d+): ")


def parse_report(lines):
    """Parses a `check-trace`/`run` report: (warnings, rest of lines).

    Each warning is (analysis, label or None, index)."""
    if not lines:
        raise Fail("empty report")
    if lines[0] == "No warnings.":
        return [], lines[1:]
    m = re.match(r"^(\d+) warning\(s\):$", lines[0])
    if not m:
        raise Fail("bad warning header %r" % lines[0])
    n = int(m.group(1))
    warns = []
    for line in lines[1:1 + n]:
        w = WARN_RE.match(line)
        if not w:
            raise Fail("bad warning line %r" % line)
        warns.append((w.group(1), w.group(3), int(w.group(4))))
    if len(warns) != n:
        raise Fail("warning count %d, header says %d" % (len(warns), n))
    return warns, lines[1 + n:]


def expected_exit(warns):
    return 1 if warns else 0


# --- workloads --------------------------------------------------------------


class StreamWorkload:
    """check-trace --stream on one generated .velb file."""

    def __init__(self, name, scale, seed):
        self.name, self.scale, self.seed = name, scale, seed
        self.file = "clean.velb" if name == "clean-stream" else "dense.velb"
        self.first_digest = None

    def setup(self, d):
        if self.name == "clean-stream":
            args = ["gen-clean", str(self.seed), self.scale["clean_size"], self.file]
        else:
            args = ["gen-dense", str(self.seed), str(self.scale["dense_steps"]), self.file]
        run_tool(args, d)

    def reference(self, d):
        self.ref = run_tool(["reference", self.file], d)[0]
        self.events = self.ref["events"]

    def tamper(self):
        if self.ref["has_error"]:
            self.ref["first_error_index"] += 1
        else:
            self.ref["has_error"] = True
            self.ref["first_error_index"] = 0

    def passes(self):
        return [("check", [[VELODROME, "check-trace", "--stream", self.file]])]

    def check(self, _key, outputs):
        ((rc, out),) = outputs
        lines = out.decode().splitlines()
        head = "%s: %d operations" % (self.file, self.events)
        if not lines or lines[0] != head:
            raise Fail("first line %r, expected %r" % (lines[:1], head))
        warns, rest = parse_report(lines[1:])
        if rest:
            raise Fail("trailing output %r" % rest[:1])
        if rc != expected_exit(warns):
            raise Fail("exit code %d with %d warnings" % (rc, len(warns)))
        velo = [i for (a, _, i) in warns if a == "velodrome"]
        if self.ref["has_error"]:
            if not velo:
                raise Fail("aero reports a violation, velodrome none")
            if min(velo) != self.ref["first_error_index"]:
                raise Fail("first violation at #%d, aero says #%d"
                           % (min(velo), self.ref["first_error_index"]))
        elif velo:
            raise Fail("velodrome warns on a serializable trace")
        d = hashlib.sha256(out).hexdigest()
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            raise Fail("output differs from the first pass")

    def events_of(self, _key):
        return self.events

    def trace_args(self):
        # check-trace runs no program; the program layers are measured on
        # every workload at small size as the flat-on baseline.
        return ["--program", "all:small:%d" % self.seed, self.file]


class ProgramWorkload:
    """analyze W --size large, then run W --size large --seed S, for every W."""

    name = "program"

    def __init__(self, scale, seed):
        self.scale, self.seed = scale, seed
        self.size = scale["program_size"]

    def setup(self, d):
        with open(os.path.join(d, "plan.json"), "w") as f:
            json.dump(run_tool(["plan", str(self.seed), self.size]
                               + (self.scale["program_workloads"] or []), d), f)

    def reference(self, d):
        with open(os.path.join(d, "plan.json")) as f:
            self.plan = json.load(f)
        self.workloads = list(self.plan)

    def tamper(self):
        for w in self.plan.values():
            w["non_atomic"] = []

    def passes(self):
        return [(w, [[VELODROME, "analyze", w, "--size", self.size],
                     [VELODROME, "run", w, "--size", self.size, "--seed", str(self.seed)]])
                for w in self.workloads]

    def check(self, w, outputs):
        (arc, aout), (rrc, rout) = outputs
        if arc not in (0, 1):
            raise Fail("analyze %s exit code %d" % (w, arc))
        proved = set(re.findall(r"^(\S+)\s+proved atomic", aout.decode(), re.M))
        lines = rout.decode().splitlines()
        m = re.match(r"^%s: (\d+) events, \d+ pauses$" % re.escape(w), lines[0] if lines else "")
        if not m:
            raise Fail("run %s: bad first line %r" % (w, lines[:1]))
        if int(m.group(1)) != self.plan[w]["events"]:
            raise Fail("run %s: %s events, expected %d" % (w, m.group(1), self.plan[w]["events"]))
        warns, rest = parse_report(lines[1:])
        if rest or rrc != expected_exit(warns):
            raise Fail("run %s: exit code %d with %d warnings" % (w, rrc, len(warns)))
        non_atomic = set(self.plan[w]["non_atomic"])
        for a, label, _ in warns:
            if a != "velodrome" or label is None:
                continue
            if label not in non_atomic:
                raise Fail("run %s: velodrome blames %s, which the ground truth says is atomic"
                           % (w, label))
            if label in proved:
                raise Fail("run %s: %s is blamed but analyze proves it atomic" % (w, label))

    def events_of(self, w):
        return self.plan[w]["events"]

    def trace_args(self):
        args = []
        for w in self.workloads:
            args += ["--program", "%s:%s:%d" % (w, self.size, self.seed)]
        return args


def make_workload(name, scale, seed):
    if name in ("clean-stream", "violation-dense"):
        return StreamWorkload(name, scale, seed)
    return ProgramWorkload(scale, seed)


# --- measurement ------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(wl, d, seconds):
    """Runs passes for `seconds`; returns (samples, attempted, failed).

    A workload's passes() lists (key, commands) pairs, run in order. A
    sample is (wall s, cpu s, peak rss MB, events) of one key's commands.
    For the program workload a pass is one sweep over every workload, and
    its samples are kept per workload so that each gets its own median."""
    out = os.path.join(d, "pass.out")
    samples = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    first_error = None
    while True:
        for key, cmds in wl.passes():
            results, wall, cpu, rss = [], 0.0, 0.0, 0.0
            for cmd in cmds:
                rc, w, c, r = run_child(cmd, d, out)
                with open(out, "rb") as f:
                    results.append((rc, f.read()))
                wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            attempted += 1
            try:
                wl.check(key, results)
            except Fail as e:
                failed += 1
                first_error = first_error or "%s: %s" % (key, e)
            # A failed pass still took its time; the result is marked
            # incorrect, so its timing never stands alone.
            samples.setdefault(key, []).append((wall, cpu, rss, wl.events_of(key)))
        if time.perf_counter() >= deadline:
            break
    if first_error:
        log("FAILED: %s" % first_error)
    return samples, attempted, failed


def end_to_end(samples):
    """The five end-to-end metrics with their spread, from pass samples."""
    keys = sorted(samples)
    # Per-key medians, summed: with one key (the stream workloads) this is
    # simply the median pass.
    med = lambda k, i: statistics.median(s[i] for s in samples[k])
    pass_s = sum(med(k, 0) for k in keys)
    cpu = sum(med(k, 1) for k in keys)
    rss = max(med(k, 2) for k in keys)
    events = sum(samples[k][0][3] for k in keys)
    # Spread over whole passes, for the record.
    n = min(len(samples[k]) for k in keys)
    per_pass = {
        "pass_s": [sum(samples[k][j][0] for k in keys) for j in range(n)],
        "cpu_ns_per_event": [sum(samples[k][j][1] for k in keys) * 1e9 / events for j in range(n)],
        "peak_rss_mb": [max(samples[k][j][2] for k in keys) for j in range(n)],
    }
    per_pass["events_per_s"] = [events / t for t in per_pass["pass_s"]]
    values = {
        "events_per_s": events / pass_s,
        "pass_s": pass_s,
        "cpu_ns_per_event": cpu * 1e9 / events,
        "peak_rss_mb": rss,
    }
    return values, per_pass, n, events


UNITS = {"events_per_s": "ev/s", "pass_s": "s", "cpu_ns_per_event": "ns",
         "peak_rss_mb": "MB", "setup_s": "s"}


# --- per-layer metrics -----------------------------------------------------

PER_LAYER_UNITS = {
    "trace.decode_ns_per_event": "ns",
    "trace.text_parse_ns_per_event": "ns",
    "trace.encode_ns_per_event": "ns",
    "trace.velb_bytes_per_event": "B",
    "stream.driver_ns_per_event": "ns",
    "core.engine_ns_per_event": "ns",
    "core.engine_alloc_bytes_per_event": "B",
    "core.nodes_allocated": "count",
    "core.nodes_max_alive": "count",
    "core.cycles_found": "count",
    "core.warnings_built": "count",
    "core.dot_bytes": "B",
    "atomizer.ns_per_event": "ns",
    "atomizer.alloc_bytes_per_event": "B",
    "analysis.render_ns": "ns",
    "analysis.warnings_printed_ratio": "ratio",
    "analysis.static_filter_ns_per_event": "ns",
    "analysis.static_filter_forward_ratio": "ratio",
    "sim.ns_per_event": "ns",
    "sim.slowdown": "x",
    "statics.analyze_ms": "ms",
    "statics.values_ms": "ms",
    "statics.race_pairs": "count",
    "statics.proved_blocks": "count",
    "serve.wait_ms_p50": "ms",
    "serve.wait_ms_p95": "ms",
    "serve.check_ms_p50": "ms",
    "serve.check_ms_p95": "ms",
    "serve.busy_ratio": "ratio",
    "serve.max_resident": "count",
    "serve.speedup": "x",
    "layers.coverage_ratio": "ratio",
    "layers.unattributed_ms": "ms",
    "tracing.overhead_ratio": "ratio",
}

# The layers whose self times partition one untraced pass.
PARTITION = {
    "clean-stream": ["trace.decode", "stream.driver", "core.engine", "atomizer", "analysis.render"],
    "violation-dense": ["trace.decode", "stream.driver", "core.engine", "atomizer",
                        "analysis.render"],
    "program": ["workloads.build", "lang.check", "statics.analyze", "statics.report", "sim.run",
                "analysis.render_run"],
}


def traced(wl, d, seconds, spans_path):
    """Alternates untraced, checked passes with traced runs for `seconds`.

    Returns (per-layer metrics, pass samples, attempted, failed). Each
    round makes untraced passes for NEAR_SECONDS and then one traced run.
    Interleaving them puts coverage's two sides in the same stretch of a
    host whose speed drifts. Timings are medians over at least
    TRACE_ROUNDS rounds; counts repeat exactly."""
    # serve is measured layer by layer on a seeded corpus of short streams.
    os.mkdir(os.path.join(d, "corpus"))
    run_tool(["gen-serve", str(wl.seed), str(wl.scale["serve_streams"]),
              str(wl.scale["serve_dense_steps"]), "corpus"], d)
    near, docs, attempted, failed = {}, [], 0, 0
    deadline = time.perf_counter() + seconds
    round_spans = os.path.join(d, "round.spans.jsonl")
    with open(spans_path, "w") as spans:
        while len(docs) < TRACE_ROUNDS or time.perf_counter() < deadline:
            samples, a, f = measure(wl, d, NEAR_SECONDS)
            attempted, failed = attempted + a, failed + f
            for k, xs in samples.items():
                near.setdefault(k, []).extend(xs)
            docs.append(run_tool(["trace", round_spans, d, str(SERVE_JOBS), "corpus"]
                                 + wl.trace_args(), d))
            with open(round_spans) as f_in:
                for line in f_in:
                    span = json.loads(line)
                    span["round"] = len(docs) - 1
                    spans.write(json.dumps(span) + "\n")
    pass_s = end_to_end(near)[0]["pass_s"]
    self_ns = {n: statistics.median(doc["self_ns"][n] for doc in docs) for n in docs[0]["self_ns"]}
    covered = sum(self_ns[n] for n in PARTITION[wl.name])
    layer = {k: statistics.median(doc["metrics"][k] for doc in docs) for k in docs[0]["metrics"]}
    layer["layers.coverage_ratio"] = covered / (pass_s * 1e9)
    layer["layers.unattributed_ms"] = (pass_s * 1e9 - covered) / 1e6
    layer["tracing.overhead_ratio"] = statistics.median(doc["book_ns"] / doc["wall_ns"]
                                                        for doc in docs)
    log("traced: %d rounds; layer self times (ms): %s"
        % (len(docs), ", ".join("%s=%.1f" % (k, v / 1e6) for k, v in self_ns.items() if v)))
    log("coverage of the untraced pass (%.3f s): %s sum to %.3f s, unattributed %.3f s"
        % (pass_s, "+".join(PARTITION[wl.name]), covered / 1e9, pass_s - covered / 1e9))
    return layer, near, attempted, failed


# --- run record ---------------------------------------------------------------


def host_fingerprint():
    cpu, hyper = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                if line.startswith("flags") and " hypervisor" in line:
                    hyper = True
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "kernel": platform.release(),
            "hypervisor": hyper, "python": platform.python_version()}


def source_rev():
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, check=False)
        rev = p.stdout.decode().strip() or None
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return {"git": rev, "source_sha256": h.hexdigest()[:16]}


# --- main -------------------------------------------------------------------


def build():
    for need in ("dune-project", os.path.join("bin", "velodrome_cli.ml"),
                 os.path.join("perfbench", "tool", "vbench.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is missing: run from the root of a velodrome checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/velodrome_cli.exe",
                        "./perfbench/tool/vbench.exe"],
                       cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       check=False)
    if p.returncode != 0:
        die("build failed:\n" + p.stdout.decode(errors="replace"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--tamper-reference", action="store_true",
                    help="corrupt the reference after computing it (self-test)")
    args = ap.parse_args()

    build()
    scale = SCALES[args.scale]
    wl = make_workload(args.workload, scale, args.seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    d = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        # Set up several times: the median is setup_s, and every copy must
        # be identical, since the same seed must give the same inputs.
        setup_times, digests = [], []
        k = 0
        while k < SETUP_MIN_REPEATS or (sum(setup_times) < SETUP_MIN_SECONDS
                                        and k < SETUP_MAX_REPEATS):
            sd = d if k == 0 else "%s.setup%d" % (d, k)
            os.makedirs(sd)
            t0 = time.perf_counter()
            wl.setup(sd)
            setup_times.append(time.perf_counter() - t0)
            digests.append(digest_dir(sd))
            if sd != d:
                shutil.rmtree(sd)
            k += 1
        deterministic = all(x == digests[0] for x in digests)
        wl.dir = d
        wl.reference(d)
        if args.tamper_reference:
            wl.tamper()

        if args.trace:
            trace_dir = os.path.join(WORK_ROOT, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            spans = os.path.join(trace_dir, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))
            layer, samples, attempted, failed = traced(wl, d, args.seconds, spans)
        else:
            samples, attempted, failed = measure(wl, d, args.seconds)
        if not deterministic:
            failed += 1
            attempted += 1
            log("FAILED: set-up is not deterministic for seed %d" % args.seed)
        values, per_pass, passes, events = end_to_end(samples)
        values["setup_s"] = statistics.median(setup_times)
        per_pass["setup_s"] = setup_times

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "rev": source_rev(), "host": host_fingerprint(),
            "passes": passes, "events_per_pass": events, "setup_repeats": len(setup_times),
            "attempted": attempted, "failed": failed, "metrics": {},
        }
        for name, xs in per_pass.items():
            q1, q2, q3 = quartiles(xs)
            record["metrics"][name] = {"median": values[name], "q1": q1, "q3": q3,
                                       "pass_median": q2, "n": len(xs), "unit": UNITS[name]}
        log("%s seed %d: %d passes of %d events" % (args.workload, args.seed, passes, events))
        for name, r in record["metrics"].items():
            log("  %-17s median %.6g  q1 %.6g  q3 %.6g  (n=%d, %s)"
                % (name, r["median"], r["q1"], r["q3"], r["n"], r["unit"]))

        if args.trace:
            metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
            record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
            record["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        log("record: " + json.dumps(record, sort_keys=True))
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(d, ignore_errors=True)
        for k in range(1, SETUP_MAX_REPEATS):
            shutil.rmtree("%s.setup%d" % (d, k), ignore_errors=True)


if __name__ == "__main__":
    main()
