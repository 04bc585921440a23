#!/usr/bin/env python3
"""memrel benchmark: four workloads through the entry points users call.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare old.jsonl new.jsonl

Workloads (BENCHMARK.json says why each was chosen):

  serve-mixed     closed loop, one load-generator process with 2 connections,
                  against a fresh `memrel serve --workers 2` whose cache
                  directory starts with a persisted slice of the key space
  enum-ram        `memrel enumerate inc5` under SC, TSO, PSO and WO, in RAM
  enum-spill      `memrel enumerate inc5 --model tso --spill-dir D --mem-budget 1`
  estimate-sweep  the paper's headline probabilities through the adaptive
                  estimators at jobs=1, to a fixed Wilson width

A run builds the program, prepares its inputs from --seed, then repeats
"set up + one pass of the workload" until --seconds have passed. Every
answer is checked against an oracle. A pass is short (under a second, a
few on serve-mixed) and a run makes tens of them; the end-to-end metrics
are, per unit of work, the median over the passes, summed over units:

  setup_s      one set-up; the median of the run's set-ups (at least five)
  wall_s       the time a user waits for the workload's work: one query
               on serve-mixed; the enumerations on the enum workloads; the
               sweep of estimates on estimate-sweep
  cpu_s        user+sys CPU of the working processes for that work
  peak_rss_mb  peak resident memory of the working process: its own VmHWM
               for the daemon and the estimate probe; for `memrel
               enumerate` its ru_maxrss, read by the small `probe spawn`
               that starts it (a reading no higher than the probe's own
               peak is logged as floored)

The three times are scaled to a reference host speed (class HostSpeed):
each pass's times are multiplied by the reference over the time a fixed
kernel of the benchmark's own took around that pass. The log prints each
pass's factor and the result records their median as
extra.host_speed_factor, so a raw time is the reported one divided by it.

With --trace 1 the run instead measures the layers (perfbench/layers.json
says which end-to-end metric each should move) and writes spans as JSONL
under perfbench/_work/. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --record FILE also appends
the full result, with its environment, to FILE for --compare.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join("perfbench", "_work")
CLI = os.path.join("_build", "default", "bin", "memrel_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
TIMEOUT_S = 150

SCALES = {
    # serve trace length, estimator width, enumerated test, pings; the
    # set-up's warm-up enumeration and estimate
    "full": {"queries": 60000, "width": 0.008, "test": "inc5", "pings": 2000,
             "warmup_test": "inc4", "warmup_width": 0.02},
    "tiny": {"queries": 2000, "width": 0.02, "test": "inc4", "pings": 200,
             "warmup_test": "inc3", "warmup_width": 0.05},
}

# Pinned exhaustive-enumeration answers: states per model, terminal states
# and the outcome multiset (identical under every model for incN).
PINNED = {
    "inc5": {
        "states": {"sc": 26789, "tso": 64050, "pso": 64050, "wo": 26789},
        "terminals": 906,
        "outcomes": "x=1:166,x=2:170,x=3:210,x=4:240,x=5:120",
    },
    "inc4": {
        "states": {"sc": 1916, "tso": 3931, "pso": 3931, "wo": 1916},
        "terminals": 109,
        "outcomes": "x=1:23,x=2:26,x=3:36,x=4:24",
    },
}

MODELS = ["sc", "tso", "pso", "wo"]
SPILL_MODEL = "tso"
SPILL_BUDGET_MB = 1
SETUP_SAMPLES = 5
# perfbench/calib.ml's kernel times on the reference host (about this
# 2-vCPU VM's fastest quarter)
REF_KERNEL_S = {"table": 0.120, "compute": 0.110}

children = []


def log(msg):
    print(msg, flush=True)


def fail_exit(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    stop_children()
    sys.exit(1)


def stop_children():
    for p in children:
        if p.poll() is None:
            p.kill()
            p.wait()
    children.clear()


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# -- processes -------------------------------------------------------------


class Proc:
    """A child with its stdout in a file and its CPU time on exit."""

    def __init__(self, args, name):
        self.out = os.path.join(WORK, name + ".out")
        with open(self.out, "w") as f:
            self.p = subprocess.Popen(args, stdout=f)
        children.append(self.p)

    def reap(self, timeout=TIMEOUT_S):
        deadline = time.monotonic() + timeout
        while True:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.p.kill()
                pid, status, ru = os.wait4(self.p.pid, 0)
                self.p.returncode = -9
                children.remove(self.p)
                fail_exit("timed out: " + " ".join(self.p.args))
            time.sleep(0.002)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        children.remove(self.p)
        self.cpu = ru.ru_utime + ru.ru_stime
        with open(self.out) as f:
            self.stdout = f.read()
        return self

    def json(self):
        if self.p.returncode != 0:
            fail_exit("%s exited %d" % (" ".join(self.p.args), self.p.returncode))
        return json.loads(self.stdout.strip().splitlines()[-1])


def run(args, name, timeout=TIMEOUT_S):
    return Proc(args, name).reap(timeout)


def probe(args, name):
    return run([PROBE] + args, name).json()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- build and environment -------------------------------------------------


def build():
    for f in ("dune-project", os.path.join("bin", "memrel_cli.ml"), "BENCHMARK.json"):
        if not os.path.exists(f):
            fail_exit("run from the repository root (missing %s)" % f)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "bin/memrel_cli.exe", "perfbench/probe.exe"],
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        fail_exit("build failed")


def environment(seed):
    env = probe(["env"], "env")
    rev = ""
    # only this checkout's own repository: git would otherwise search the
    # directories above it
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    env.update(
        {
            "seed": seed,
            "nproc": os.cpu_count(),
            "git_rev": rev or "unknown",
            "loadavg_1m": os.getloadavg()[0],
        }
    )
    return env


# -- workloads ---------------------------------------------------------------
#
# A pass is one set-up plus one round of the workload's fixed work. It
# returns (setup_s, units, attempted, failed) where units maps each unit of
# work (a model's enumeration, one estimate, a query of the serve trace) to
# (wall_s, cpu_s, peak_rss_mb). A run reports, per unit, the median over
# its passes, and sums the units. Serve measures
# a query, not the trace's wall: a pass's wall follows the host's
# scheduling stalls while the median query does not.


class Serve:
    """Closed loop against a live daemon; misses write both cache tiers
    while hits read them."""

    kernel = "compute"

    def __init__(self, seed, scale):
        self.scale = scale
        self.prep = os.path.join(WORK, "serve.prep")
        self.sock = os.path.join(WORK, "serve.sock")
        args = ["serve-prepare", "--seed", str(seed), "--queries", str(SCALES[scale]["queries"])]
        args += ["--prep", self.prep] + (["--tiny"] if scale == "tiny" else [])
        info = probe(args, "prepare")
        log("serve trace: %(queries)d queries over %(keys)d keys (%(keys_touched)d touched), "
            "%(seeded)d keys in the persisted slice" % info)
        self.lat_files = []
        self.walls = []
        self.retries = 0

    def setup(self):
        t0 = time.monotonic()
        cache = fresh_dir(os.path.join(WORK, "serve_cache"))
        probe(["serve-seed", "--prep", self.prep, "--cache", cache], "seed")
        if os.path.exists(self.sock):
            os.remove(self.sock)
        self.daemon = Proc(
            [CLI, "serve", "--socket", self.sock, "--cache-dir", cache, "--workers", "2"], "daemon"
        )
        deadline = time.monotonic() + 30
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                break
            except OSError:
                if time.monotonic() > deadline or self.daemon.p.poll() is not None:
                    fail_exit("daemon did not come up")
                time.sleep(0.002)
            finally:
                s.close()
        return time.monotonic() - t0

    def load(self):
        lat = os.path.join(WORK, "serve.lat.%d" % len(self.lat_files))
        self.lat_files.append(lat)
        args = ["serve-load", "--prep", self.prep, "--socket", self.sock, "--conns", "2"]
        gen = run([PROBE] + args + ["--lat", lat], "load")
        r = gen.json()
        self.walls.append(r["wall_s"])
        self.retries += r["client.retries"]
        return gen, r

    def stop_daemon(self):
        """Peak RSS from the daemon's own high-water mark (a child's rusage
        would also count the parent's memory at fork), then a SIGTERM drain."""
        with open("/proc/%d/status" % self.daemon.p.pid) as f:
            hwm = [l for l in f if l.startswith("VmHWM:")][0]
        self.daemon.p.send_signal(signal.SIGTERM)
        d = self.daemon.reap(30)
        if d.p.returncode != 0:
            fail_exit("daemon exited %d" % d.p.returncode)
        return d, int(hwm.split()[1]) / 1024.0

    def teardown(self):
        self.stop_daemon()

    def one_pass(self):
        setup = self.setup()
        gen, r = self.load()
        d, rss = self.stop_daemon()
        failed = r["wrong"] + r["unanswered"] + r["pool.shed"] + r["pool.handler_exceptions"]
        failed += r["cache.disk_errors"]
        # the unit of work is one query: its median round trip, and the
        # daemon's plus the client's CPU per query
        query = (r["query_p50_s"], (gen.cpu + d.cpu) / r["queries"], rss)
        return setup, {"query": query}, r["queries"], failed

    def extra(self):
        lat = {"m": [], "d": [], "c": []}
        for path in self.lat_files:
            with open(path) as f:
                for line in f:
                    tier, ns = line.split()
                    lat[tier].append(int(ns) / 1e6)
        hits, miss = lat["m"] + lat["d"], lat["c"]
        queries = SCALES[self.scale]["queries"]
        return {
            "serve.queries_per_s": queries / statistics.median(self.walls),
            "serve.hit_p50_ms": percentile(hits, 50),
            "serve.hit_p99_ms": percentile(hits, 99),
            "serve.miss_p50_ms": percentile(miss, 50),
            "serve.hit_samples": len(hits),
            "serve.miss_samples": len(miss),
            # the share the assumed skew and persisted slice produce
            "serve.miss_ratio": len(miss) / max(1, len(hits) + len(miss)),
            "client.retries": self.retries,
        }

    def traced(self, spans):
        self.setup()
        gen, r = self.load()
        failed = r["wrong"] + r["unanswered"]
        work = fresh_dir(os.path.join(WORK, "serve_trace"))
        t = probe(
            ["serve-trace", "--prep", self.prep, "--socket", self.sock, "--work", work,
             "--spans", spans, "--pings", str(SCALES[self.scale]["pings"])],
            "trace",
        )
        self.stop_daemon()
        t.update(self.extra())
        failed += t["pool.shed"] + t["pool.handler_exceptions"] + t["cache.disk_errors"]
        return t, r["queries"], failed


class EnumRam:
    """In-RAM exhaustive enumeration: expand, pack and hash-dedup."""

    models = MODELS
    spill = False
    kernel = "table"

    def __init__(self, seed, scale):
        self.test = SCALES[scale]["test"]
        self.warmup_test = SCALES[scale]["warmup_test"]
        self.pinned = PINNED[self.test]
        self.spill_dir = os.path.join(WORK, "spill")
        self.floored = 0

    def args(self, test, model):
        a = [CLI, "enumerate", test, "--model", model]
        if self.spill:
            a += ["--spill-dir", self.spill_dir, "--mem-budget", str(SPILL_BUDGET_MB)]
        return a

    def setup(self):
        # fresh spill state and a warm binary: a small enumeration per model
        t0 = time.monotonic()
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        for m in self.models:
            if run(self.args(self.warmup_test, m), "warmup").p.returncode != 0:
                fail_exit("warm-up enumeration failed")
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        return time.monotonic() - t0

    def teardown(self):
        pass

    def check(self, model, out):
        """Pinned states, terminals and outcome multiset."""
        states = terminals = None
        outcomes = []
        for line in out.splitlines():
            w = line.split()
            if " distinct outcomes, " in line:
                terminals = int(w[-3])
            elif line.startswith("  ") and w[-2:] == ["terminal", "states"]:
                outcomes.append("%s:%s" % (" ".join(w[:-3]), w[-3]))
            elif line.startswith("states "):
                states = int(w[1])
        want = self.pinned
        got = (states, terminals, ",".join(outcomes))
        if got != (want["states"][model], want["terminals"], want["outcomes"]):
            log("ORACLE: %s %s gave states/terminals/outcomes %s" % (self.test, model, got))
            return False
        return True

    def one_pass(self):
        setup = self.setup()
        units = {}
        failed = 0
        out = os.path.join(WORK, "enumerate.out")
        for m in self.models:
            r = probe(["spawn", "--out", out, "--"] + self.args(self.test, m), "spawn")
            units[m] = (r["wall_s"], r["cpu_s"], r["peak_rss_mb"])
            # a reading no higher than the spawning probe's own peak says
            # only "at most that"; the run prints how many were floored
            if r["peak_rss_mb"] <= r["floor_mb"]:
                self.floored += 1
            with open(out) as f:
                failed += r["exit"] != 0 or not self.check(m, f.read())
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        return setup, units, len(self.models), failed

    def extra(self):
        return {"peak_rss_floored_runs": self.floored}

    def traced(self, spans):
        args = ["enum-trace", "--test", self.test, "--models", ",".join(self.models)]
        if self.spill:
            args += ["--spill", "--mem-budget", str(SPILL_BUDGET_MB)]
        work = fresh_dir(os.path.join(WORK, "enum_trace"))
        t = probe(args + ["--work", work, "--spans", spans], "trace")
        failed = 0
        for m in self.models:
            want = self.pinned
            got = (t["states." + m], t["terminals." + m], t["outcomes." + m])
            if got != (want["states"][m], want["terminals"], want["outcomes"]):
                failed += 1
                log("ORACLE: replay of %s %s gave %s" % (self.test, m, got))
        return t, len(self.models), failed


class EnumSpill(EnumRam):
    """The same input through Extmem: sort/merge/bloom and snapshot IO."""

    models = [SPILL_MODEL]
    spill = True


class Estimate:
    """Adaptive Monte Carlo to a fixed width: RNG, kernels, Par."""

    kernel = "table"

    def __init__(self, seed, scale):
        self.seed = seed
        self.width = SCALES[scale]["width"]
        self.warmup_width = SCALES[scale]["warmup_width"]

    def setup(self):
        t0 = time.monotonic()
        probe(["estimate", "--seed", str(self.seed), "--width", str(self.warmup_width)], "warmup")
        return time.monotonic() - t0

    def teardown(self):
        pass

    def one_pass(self):
        setup = self.setup()
        p = run([PROBE, "estimate", "--seed", str(self.seed), "--width", str(self.width)], "estimate")
        r = p.json()
        for f in filter(None, r["failures"].split("; ")):
            log("ORACLE: " + f)
        names = r["names"].split(",")
        # the probe's own VmHWM: its rusage would also count run.py
        units = {n: (r[n + ".wall_s"], r[n + ".cpu_s"], r["peak_rss_mb"]) for n in names}
        return setup, units, len(names), r["failed_checks"]

    def extra(self):
        return {}

    def traced(self, spans):
        t = probe(["estimate-trace", "--seed", str(self.seed), "--width", str(self.width),
                   "--spans", spans], "trace")
        return t, len(t["names"].split(",")), 0


WORKLOADS = {
    "serve-mixed": Serve,
    "enum-ram": EnumRam,
    "enum-spill": EnumSpill,
    "estimate-sweep": Estimate,
}


def percentile(xs, q):
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q / 100.0 * len(xs)))]


class HostSpeed:
    """How fast the host runs code right now, from one of the benchmark's
    own fixed kernels (perfbench/calib.ml, which says which tracks which
    workload), timed between passes. On a shared 2-vCPU VM the same binary
    runs up to 70 % slower in bursts of seconds and for minutes at a time:
    over 150 s the enum-spill enumeration read 0.23-0.41 s, and inc6 TSO,
    one 4 s pass, moved 3.6-4.9 s between runs. No statistic of one run
    removes a slow minute, but the kernel slows with the host, so each
    pass's times are multiplied by the kernel's REF_KERNEL_S over its mean
    time around the pass: the reported seconds are seconds on a host where
    the kernel takes that long. Over 25 s windows of interleaved runs the
    median enum-spill pass moved 23 % raw and 6 % scaled. A change to
    memrel does not move the kernels."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.last = self.sample()
        self.factors = []

    def sample(self):
        return probe(["calibrate", "--kernel", self.kernel], "calibrate")["kernel_s"]

    def factor(self):
        """The scale for the work done since the previous call."""
        now = self.sample()
        k = REF_KERNEL_S[self.kernel] / ((self.last + now) / 2)
        self.last = now
        self.factors.append(k)
        return k


def measure(wl, seconds):
    passes = []
    speed = HostSpeed(wl.kernel)
    t_end = time.monotonic() + seconds
    while True:
        setup, units, attempted, failed = wl.one_pass()
        k = speed.factor()
        setup *= k
        units = {n: (w * k, c * k, rss) for n, (w, c, rss) in units.items()}
        passes.append((setup, units, attempted, failed))
        log("pass %d: host speed x%.4f; setup %.4f s, %s; %d attempted, %d failed" % (
            len(passes), k, setup,
            ", ".join("%s %.6g s" % (n, v[0]) for n, v in units.items()), attempted, failed))
        if time.monotonic() >= t_end:
            break
    # where a run has room for few passes, set up alone until setup_s is a
    # median of SETUP_SAMPLES
    setups = [p[0] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        s = wl.setup()
        wl.teardown()
        setups.append(s * speed.factor())
    med = lambda name, i: statistics.median(p[1][name][i] for p in passes)
    names = passes[0][1].keys()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(med(n, 0) for n in names),
        "cpu_s": sum(med(n, 1) for n in names),
        "peak_rss_mb": max(med(n, 2) for n in names),
    }
    attempted = sum(p[2] for p in passes)
    failed = sum(p[3] for p in passes)
    extra = dict(wl.extra(), host_speed_factor=statistics.median(speed.factors))
    return metrics, attempted, failed, extra, len(passes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="tiny: inc4, a short trace, width 0.02 (the self-test)")
    ap.add_argument("--record", metavar="FILE", help="append the full result to FILE (JSONL)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two recorded result sets and exit")
    a = ap.parse_args()
    if a.compare:
        import compare

        spec = load_spec()
        sys.exit(compare.main(spec, a.compare[0], a.compare[1]))
    if not a.workload:
        ap.error("--workload is required")
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: fail_exit("interrupted"))
    spec = load_spec()
    build()
    fresh_dir(WORK)
    env = environment(a.seed)
    log("perfbench %s: seed %d, %gs, trace %d, scale %s" % (a.workload, a.seed, a.seconds, a.trace, a.scale))
    log("environment: " + json.dumps(env, sort_keys=True))
    wl = WORKLOADS[a.workload](a.seed, a.scale)
    extra = {}
    if a.trace:
        spans = os.path.join(WORK, "spans-%s.jsonl" % a.workload)
        values, attempted, failed = wl.traced(spans)
        for f in filter(None, values.get("failures", "").split("; ")):
            log("ORACLE: " + f)
        failed += values.get("failed_checks", 0)
        values["fail_ratio"] = failed / attempted
        values["trace_overhead_s"] = values["trace.overhead_s"]
        log("layer coverage: %.1f%% of the workload's wall %.4f s; %s.unattributed_s %.4f s; "
            "tracing overhead %.4f s; spans in %s"
            % (100 * values["explained_ratio"], values["trace.wall_s"], a.workload,
               values["unattributed_s"], values["trace_overhead_s"], spans))
        names = spec["per_layer"]
    else:
        values, attempted, failed, extra, n = measure(wl, a.seconds)
        log("medians over %d passes" % n)
        for k, v in sorted(extra.items()):
            log("  %-24s %.6g" % (k, v))
        log("  %-24s %.6g (%d of %d)" % ("fail_ratio", failed / attempted, failed, attempted))
        names = spec["end_to_end"]
    moves = json.load(open(os.path.join(HERE, "layers.json")))
    metrics = {}
    for m in names:
        v = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        note = ("  -> " + moves[m["name"]]) if a.trace and m["name"] in moves else ""
        log("  %-28s %-14.6g %s%s" % (m["name"], v, m["unit"], note))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if a.record:
        with open(a.record, "a") as f:
            full = dict(result, workload=a.workload, seed=a.seed, trace=a.trace, env=env,
                        extra=extra)
            f.write(json.dumps(full, sort_keys=True) + "\n")
    stop_children()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
