#!/bin/sh
# Smoke script: full build, test suite (with the warm-block fast path on
# and off, and with the span ledger knob pinned off), a short multi-seed
# fault soak, then the quick JSON exports: latency attribution, timeline,
# multi-flow sweep, latency-provenance spans, host-lifecycle chaos, fabric
# incast and layout search.  Each quick alias runs with --check, which
# parses its export back through the one shared check in bin/cli_common.ml
# (same value, current schema_version, expected cell count) on top of the
# subcommand's own consistency checks.  Then a pair bit-identity check,
# replays of the committed chaos repro files, a quick end-to-end bench
# table, and a bench regression gate against the committed BENCH_*.json
# history.
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
dune exec bench/main.exe -- quick only table1
scripts/bench_compare.sh
