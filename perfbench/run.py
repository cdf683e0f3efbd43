#!/usr/bin/env python3
"""protolat benchmark: paper_sweep, layout_search and trace_replay.

Run from the root of a protolat source tree:

    python3 perfbench/run.py --workload paper_sweep --seed 3 --trace 0

It builds perfbench/bench.exe from source into .bench_build/, runs the
workload for --seconds (one fresh process and one fresh, empty
simulation-cache store per iteration, at jobs = 1), checks every simulated
output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the iterations);
--trace 1 makes the traced run instead and reports the per-layer metrics.
A provenance line precedes the result, and the full result, provenance
included, is written to .bench_build/perfbench-results/.  NOTES.md beside
this file explains the workloads and metrics.

    python3 perfbench/run.py --record     # rewrite perfbench/expected.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
TMP = os.path.join(BUILD, "perfbench-tmp")
RESULTS = os.path.join(BUILD, "perfbench-results")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("paper_sweep", "layout_search", "trace_replay")
DEFAULT_SEED = 1  # bench.ml's default_seed: the Experiments.full_run grid
# Operations one iteration attempts, charged as failed if its process dies.
NOMINAL_OPS = {
    "full": {"paper_sweep": 90, "layout_search": 4800, "trace_replay": 432},
    "tiny": {"paper_sweep": 12, "layout_search": 96, "trace_replay": 48},
}
MIN_ITERS = {"full": 2, "tiny": 1}
# Interleaved rounds of the knob legs in a traced run (kept under 180 s).
TRACE_ROUNDS = {
    "full": {"paper_sweep": 5, "layout_search": 1, "trace_replay": 5},
    "tiny": {"paper_sweep": 1, "layout_search": 1, "trace_replay": 1},
}
PROCESS_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "alloc_mwords": "Mword",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "rtt_err_pct": "%",
}

PER_LAYER = {
    "engine.run_s": "s",
    "engine.runs": "count",
    "engine.run_mwords": "Mword",
    "engine.protocol_s": "s",
    "perf.replay_s": "s",
    "perf.calls": "count",
    "perf.instrs_per_s": "1/s",
    "blockcache.fastpath_share": "ratio",
    "blockcache.fastpath_share.thrash": "ratio",
    "blockcache.fastpath_share.roomy": "ratio",
    "blockcache.dmemo_share": "ratio",
    "blockcache.dmemo_share.thrash": "ratio",
    "blockcache.dmemo_share.roomy": "ratio",
    "simcache.cold_share": "ratio",
    "simcache.cold_share.thrash": "ratio",
    "simcache.cold_share.roomy": "ratio",
    "simcache.warm_saving_s": "s",
    "strategy.micro_position_s.tcpip": "s",
    "strategy.micro_position_s.rpc": "s",
    "strategy.named_s": "s",
    "image.build_s": "s",
    "attrib.profile_s": "s",
    "blockcache.segment_s": "s",
    "layoutsearch.eval_s": "s",
    "layoutsearch.score_per_s": "1/s",
    "layoutsearch.micro_s": "s",
    "layoutsearch.other_s": "s",
    "image.pc_map_s": "s",
    "trace.remap_s": "s",
    "blockcache.rebind_s": "s",
    "dpool.efficiency": "ratio",
    "gc.mwords.perf": "Mword",
    "gc.mwords.strategy": "Mword",
    "gc.mwords.image": "Mword",
    "gc.mwords.attrib": "Mword",
    "gc.mwords.blockcache": "Mword",
    "gc.mwords.trace": "Mword",
    "trace.overhead_pct": "%",
}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no protolat source tree at " + ROOT)
    # no shared dune cache, and the compiler's temporary files stay inside
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=TMP)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die("dune not found")
    if r.returncode != 0:
        die("build failed")


def nproc():
    return len(os.sched_getaffinity(0))


class Runner:
    """Starts bench.exe processes, each with explicit PROTOLAT_* knobs."""

    def __init__(self, workload, seed, size):
        self.workload, self.seed, self.size = workload, seed, size
        self.legs = []  # provenance: the knobs and store of every process
        self.n = 0
        os.makedirs(TMP, exist_ok=True)

    def fresh_store(self):
        self.n += 1
        return os.path.join(TMP, "%d-%d.simcache" % (os.getpid(), self.n))

    def bench(self, leg, knobs, jobs=1, flags=()):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PROTOLAT_")}
        env.update(knobs, TMPDIR=TMP)
        cmd = [EXE, "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--jobs", str(jobs), *flags]
        self.legs.append({"leg": leg, "jobs": jobs, "flags": list(flags),
                          "knobs": dict(knobs)})
        try:
            r = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                               text=True, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "timed out"
        if r.returncode != 0:
            tail = (r.stderr.strip().splitlines() or ["no output"])[-1]
            return None, "exit %d: %s" % (r.returncode, tail)
        return json.loads(r.stdout.strip().splitlines()[-1]), None


def rel(path):
    return os.path.relpath(path, ROOT)


def load_expected(path, seed, size):
    """Expected digests apply at the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    with open(path) as f:
        return json.load(f)[size]


class Check:
    """Counts operations and failures over every process of a run."""

    def __init__(self, expected, workload, size):
        self.expected = expected
        self.nominal = NOMINAL_OPS[size][workload]
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, name, why, ops):
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append({"name": name, "why": why})

    def process(self, out, err, leg):
        if out is None:
            self.attempted += self.nominal
            self.fail(leg, err, self.nominal)
            return
        seen = set()
        for g in out["groups"]:
            self.attempted += g["ops"]
            seen.add(g["name"])
            why = g["error"]
            # an empty digest marks a check that reports only an error
            if why is None and self.expected is not None and g["digest"]:
                want = self.expected.get(g["name"])
                if want is None:
                    why = "no expected digest"
                elif want != g["digest"]:
                    why = "digest %s, expected %s" % (g["digest"], want)
            if why is not None:
                self.fail(g["name"], why, g["ops"])
        if self.expected is not None:
            for name in sorted(set(self.expected) - seen):
                if name.startswith(out["workload"] + "/"):
                    self.fail(name, "missing from the output", 0)

    def correct(self):
        return self.failed == 0 and not self.failures


def end_to_end(runner, check, seconds):
    """Iterations until --seconds have passed; medians of each metric."""
    iters = []
    attempts = 0
    t0 = time.monotonic()
    while (attempts < MIN_ITERS[runner.size]
           or time.monotonic() - t0 < seconds):
        flags = ("--check-full-run",) if attempts == 0 else ()
        attempts += 1
        store = runner.fresh_store()
        out, err = runner.bench("iteration", {"PROTOLAT_SIMCACHE": store},
                                flags=flags)
        remove(store)
        check.process(out, err, "iteration %d" % attempts)
        if out is not None:
            iters.append(out)
    if not iters:
        return None, iters
    def med(f):
        return statistics.median([f(it) for it in iters])

    rtt = [it["rtt_err_pct"] for it in iters if it["rtt_err_pct"] is not None]
    m = {
        "wall_s": med(lambda it: it["wall_s"]),
        "setup_s": med(lambda it: it["setup_s"]),
        "ops_per_s": med(lambda it: it["ops"] / it["ops_time_s"]
                         if it["ops_time_s"] else 0.0),
        "alloc_mwords": med(lambda it: it["alloc_words"] / 1e6),
        "peak_rss_mb": med(lambda it: it["peak_rss_kb"] / 1024.0),
        "ok_ratio": 1.0 - check.failed / max(check.attempted, 1),
        "rtt_err_pct": statistics.median(rtt) if rtt else 0.0,  # check failed
    }
    return m, iters


def remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def traced(runner, check):
    """The traced run: one traced process, plus interleaved rounds of
    untraced legs with one memo layer switched off each, and the jobs legs.
    Shares and savings are medians of per-round comparisons."""
    legs = {}

    def leg(name, knobs, jobs=1, flags=()):
        out, err = runner.bench(name, knobs, jobs=jobs, flags=flags)
        if "--dpool" not in flags:  # dpool legs time the library's own sweep
            check.process(out, err, name)
        if out is None:
            die("%s leg failed: %s" % (name, err), code=1)
        legs.setdefault(name, []).append(out)
        return out

    def with_store(name, extra=None):
        store = runner.fresh_store()
        out = leg(name, dict(extra or {}, PROTOLAT_SIMCACHE=store))
        return store, out

    rounds = TRACE_ROUNDS[runner.size][runner.workload]
    for _ in range(rounds):
        store, _ = with_store("plain")
        leg("warm", {"PROTOLAT_SIMCACHE": store})  # same store, now filled
        remove(store)
        leg("simcache_off", {"PROTOLAT_SIMCACHE": "0"})
        for knob, name in (("PROTOLAT_FASTPATH", "fastpath_off"),
                           ("PROTOLAT_DMEMO", "dmemo_off")):
            store, _ = with_store(name, {knob: "0"})
            remove(store)
    # Off, so that re-timed replays are computed, not served from the store.
    b = leg("traced", {"PROTOLAT_SIMCACHE": "0"}, flags=("--traced",))

    def med(name, key):
        return statistics.median([out[key] for out in legs[name]])

    if runner.workload in ("paper_sweep", "layout_search"):
        n = nproc()
        if runner.workload == "paper_sweep":
            store = runner.fresh_store()
            w1 = leg("dpool_1", {"PROTOLAT_SIMCACHE": store}, jobs=1,
                     flags=("--dpool",))["dpool_wall_s"]
            remove(store)
        else:
            w1 = med("plain", "wall_s")  # plain is Layoutsearch.run at jobs 1
        store = runner.fresh_store()
        wn = leg("dpool_n", {"PROTOLAT_SIMCACHE": store}, jobs=n,
                 flags=("--dpool",))["dpool_wall_s"]
        remove(store)
        dpool_eff = w1 / (n * wn)
    else:
        dpool_eff = 0.0

    def share_of(off, key="wall_s"):
        """Share of the off-leg time the layer saves, 1 - on/off: the median
        over rounds of each round's ratio, so that legs run moments apart
        are compared with each other."""
        pairs = zip(legs["plain"], legs[off])
        return statistics.median(
            [1.0 - on[key] / o[key] if o[key] > 0 else 0.0 for on, o in pairs])

    sp = b["spans"]

    def s(name):
        return sp.get(name, {}).get("s", 0.0)

    def n_(name):
        return sp.get(name, {}).get("n", 0)

    def mw(*names):
        return sum(sp.get(k, {}).get("mwords", 0.0) for k in names)

    def per_call(name):
        return s(name) / n_(name) if n_(name) else 0.0

    perf = "perf" if "perf" in sp else "engine_replay"
    replay_s = s(perf)
    work = sp.get(perf, {}).get("work", 0)
    search = runner.workload == "layout_search"
    eval_s = b["ops_time_s"] if search else 0.0
    micro_s = s("strategy.micro.tcpip") + s("strategy.micro.rpc")
    if search:
        timed_setup = (micro_s + s("strategy.named") + s("engine")
                       + s("blockcache.segment") + s("attrib"))
        other_s = b["wall_s"] - eval_s - timed_setup
    else:
        other_s = 0.0

    m = {
        "engine.run_s": s("engine"),
        "engine.runs": n_("engine"),
        "engine.run_mwords": mw("engine"),
        "engine.protocol_s": s("engine") - s("engine_replay"),
        "perf.replay_s": replay_s,
        "perf.calls": n_(perf),
        "perf.instrs_per_s": work / replay_s if replay_s > 0 else 0.0,
        "blockcache.fastpath_share": share_of("fastpath_off"),
        "blockcache.fastpath_share.thrash": share_of("fastpath_off", "thrash_s"),
        "blockcache.fastpath_share.roomy": share_of("fastpath_off", "roomy_s"),
        "blockcache.dmemo_share": share_of("dmemo_off"),
        "blockcache.dmemo_share.thrash": share_of("dmemo_off", "thrash_s"),
        "blockcache.dmemo_share.roomy": share_of("dmemo_off", "roomy_s"),
        "simcache.cold_share": share_of("simcache_off"),
        "simcache.cold_share.thrash": share_of("simcache_off", "thrash_s"),
        "simcache.cold_share.roomy": share_of("simcache_off", "roomy_s"),
        "simcache.warm_saving_s": statistics.median(
            [p["wall_s"] - w["wall_s"]
             for p, w in zip(legs["plain"], legs["warm"])]),
        "strategy.micro_position_s.tcpip": per_call("strategy.micro.tcpip"),
        "strategy.micro_position_s.rpc": per_call("strategy.micro.rpc"),
        "strategy.named_s": s("strategy.named"),
        "image.build_s": s("image"),
        "attrib.profile_s": per_call("attrib"),
        "blockcache.segment_s": per_call("blockcache.segment"),
        "layoutsearch.eval_s": eval_s,
        # Layoutsearch.candidates_per_sec: evaluations / evaluation seconds
        "layoutsearch.score_per_s": b["ops"] / eval_s if eval_s else 0.0,
        "layoutsearch.micro_s": micro_s,
        "layoutsearch.other_s": other_s,
        "image.pc_map_s": per_call("image.pc_map"),
        "trace.remap_s": per_call("trace.remap"),
        "blockcache.rebind_s": per_call("blockcache.rebind"),
        "dpool.efficiency": dpool_eff,
        "gc.mwords.perf": mw(perf),
        "gc.mwords.strategy": mw("strategy.micro.tcpip", "strategy.micro.rpc",
                                 "strategy.named"),
        "gc.mwords.image": mw("image", "image.pc_map"),
        "gc.mwords.attrib": mw("attrib"),
        "gc.mwords.blockcache": mw("blockcache.segment", "blockcache.rebind"),
        "gc.mwords.trace": mw("trace.remap"),
        "trace.overhead_pct":
            100.0 * (b["wall_s"] / med("simcache_off", "wall_s") - 1.0),
    }
    return m, legs


def git(*args):
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(runner, ocaml, trace):
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    rev = git("rev-parse", "HEAD") if has_git else None
    dirty = git("status", "--porcelain") if has_git else None
    return {
        "git_rev": rev or "none",
        "git_dirty": None if dirty is None else dirty != "",
        "ocaml": ocaml,
        "nproc": nproc(),
        "jobs": 1,
        "seed": runner.seed,
        "workload": runner.workload,
        "size": runner.size,
        "trace": trace,
        "processes": [
            dict(p, knobs={k: (rel(v) if os.path.isabs(v) else v)
                           for k, v in p["knobs"].items()})
            for p in runner.legs
        ],
    }


def result_line(check, metrics, units):
    return json.dumps({
        "correct": check.correct(),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    })


def record():
    """Rewrite expected.json from one default-seed iteration per size."""
    build()
    expected = {"seed": DEFAULT_SEED}
    for size in ("full", "tiny"):
        digests = {}
        for w in WORKLOADS:
            runner = Runner(w, DEFAULT_SEED, size)
            store = runner.fresh_store()
            out, err = runner.bench("record", {"PROTOLAT_SIMCACHE": store},
                                    flags=("--check-full-run",))
            remove(store)
            if out is None:
                die("%s/%s: %s" % (w, size, err), code=1)
            for g in out["groups"]:
                if g["error"] is not None:
                    die("%s: %s" % (g["name"], g["error"]), code=1)
                if g["digest"]:  # not the once-per-run full_run check
                    digests[g["name"]] = g["digest"]
        expected[size] = digests
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + rel(EXPECTED))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--expected", default=EXPECTED,
                    help="expected digests (default perfbench/expected.json)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/expected.json and exit")
    args = ap.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")
    build()
    runner = Runner(args.workload, args.seed, args.size)
    check = Check(load_expected(args.expected, args.seed, args.size),
                  args.workload, args.size)
    try:
        if args.trace:
            metrics, raw = traced(runner, check)
            units = PER_LAYER
            ocaml = raw["traced"][0]["ocaml"]
        else:
            metrics, raw = end_to_end(runner, check, args.seconds)
            if metrics is None:
                die("no iteration completed: %s" % check.failures, code=1)
            units = END_TO_END
            ocaml = raw[0]["ocaml"]
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    prov = provenance(runner, ocaml, args.trace)
    line = result_line(check, metrics, units)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"provenance": prov, "failures": check.failures,
                   "result": json.loads(line),
                   "processes": [{k: v for k, v in it.items() if k != "groups"}
                                 for it in (sum(raw.values(), [])
                                            if args.trace else raw)]},
                  f, indent=1)
    for fl in check.failures:
        print("FAILED %s: %s" % (fl["name"], fl["why"]), file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(line)


if __name__ == "__main__":
    main()
