#!/bin/sh
# Smoke script: full build, test suite (with the warm-block fast path on
# and off, and with the span ledger knob pinned off), a short multi-seed
# fault soak, then the quick JSON exports: latency attribution, timeline,
# multi-flow sweep, latency-provenance spans, host-lifecycle chaos, fabric
# incast and layout search.  Each quick alias runs with --check, which
# parses its export back through the one shared check in bin/cli_common.ml
# (same value, current schema_version, expected cell count) on top of the
# subcommand's own consistency checks.  Then a pair bit-identity check,
# replays of the committed chaos repro files and the quick table1 bench
# (which must refuse an unknown argument).  Last, the benchmark gate:
# perfbench/run.py runs each of its three workloads once at --size tiny on
# the working tree, and CI fails unless every expected.json digest
# matches, no operation fails and allocation stays within the workload's
# budget below; each workload's wall time and peak RSS are printed beside
# it for information.
# Usage: scripts/ci.sh  (run from the repository root)
set -eu

dune build @all
dune runtest
# the suite must also pass with the memoized basic-block fast path
# disabled: every simulation then takes the per-instruction reference
# path the fast path is checked against
PROTOLAT_FASTPATH=0 dune runtest --force
# ... and with the span ledger knob pinned off: engine results must be
# bit-identical either way, and the span tests force the ledger on
# explicitly so they still exercise it under this leg
PROTOLAT_SPANS=0 dune runtest --force
dune exec bin/protolat_cli.exe -- soak --quick --seeds 2
dune build @profile-quick
dune build @trace-quick
dune build @mflow-quick
dune build @spans-quick
dune build @chaos-quick
dune build @fabric-quick
dune build @search-quick
# pair bit-identity: an explicit --topo pair must reproduce the default
# two-host wiring byte-for-byte (the topology-first API's compatibility
# contract; the star:2 detour through the switch must differ)
PAIR_A=$(mktemp -t protolat-ci-pair-a.XXXXXX)
PAIR_B=$(mktemp -t protolat-ci-pair-b.XXXXXX)
trap 'rm -f "$PAIR_A" "$PAIR_B"' EXIT
dune exec bin/protolat_cli.exe -- run -s tcpip -c ALL -r 8 > "$PAIR_A"
dune exec bin/protolat_cli.exe -- run -s tcpip -c ALL -r 8 --topo pair --hosts 2 > "$PAIR_B"
diff "$PAIR_A" "$PAIR_B"
dune exec bin/protolat_cli.exe -- run -s tcpip -c ALL -r 8 --topo star > "$PAIR_B"
if diff -q "$PAIR_A" "$PAIR_B" > /dev/null; then
  echo "ci: star:2 run unexpectedly identical to pair" >&2
  exit 1
fi
# the committed minimal repro must replay bit-identically: the buggy one
# to exactly its recorded at-most-once violation, the fixed one cleanly
dune exec bin/protolat_cli.exe -- chaos --replay test/repro/chaos_dedup_bug.json
dune exec bin/protolat_cli.exe -- chaos --replay test/repro/chaos_dedup_fixed.json
dune build @bench-quick
# an unknown argument (here the old json mode) must be refused, not
# silently ignored while the tables run
if dune exec bench/main.exe -- json > /dev/null 2>&1; then
  echo "ci: bench/main.exe accepted the unknown argument 'json'" >&2
  exit 1
fi
# run.py exits 0 on a digest mismatch, so its result line is checked here
python3 - <<'GATE'
import json, subprocess, sys

# alloc_mwords measured at --size tiny, seed 1, OCaml 5.1.1, x BENCHMARK.json's 5% bound
BUDGETS = {"paper_sweep": 7.970026 * 1.05, "layout_search": 3.799716 * 1.05,
           "trace_replay": 8.981474 * 1.05}
failed = False
for w, budget in BUDGETS.items():
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w,
                        "--size", "tiny", "--seconds", "0"],
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        print("ci: perfbench %s: run.py exited %d" % (w, p.returncode),
              file=sys.stderr)
        failed = True
        continue
    r = json.loads(lines[-1])
    m = {k: v["value"] for k, v in r["metrics"].items()}
    bad = []
    if r["correct"] is not True:
        bad.append("not correct (see the FAILED lines above)")
    if r["failed"] != 0:
        bad.append("%d failed operations" % r["failed"])
    if m["ok_ratio"] != 1:
        bad.append("ok_ratio %s" % m["ok_ratio"])
    if m["alloc_mwords"] > budget:
        bad.append("alloc_mwords over budget")
    # wall_s and peak_rss_mb depend on the machine: printed, never gated
    print("ci: perfbench %s: %s (alloc_mwords %.6f, budget %.6f;"
          " wall_s %.3f, peak_rss_mb %.1f)"
          % (w, "FAIL: " + "; ".join(bad) if bad else "ok",
             m["alloc_mwords"], budget, m["wall_s"], m["peak_rss_mb"]),
          file=sys.stderr if bad else sys.stdout)
    failed = failed or bool(bad)
sys.exit(1 if failed else 0)
GATE
