#!/usr/bin/env bash
# Runs every recorded artifact a "behaviour-neutral" PR must reproduce
# byte for byte and writes one sha256 list, so parent and change can be
# compared with `diff`:
#
#   cargo build --release && cargo build --release --examples
#   tools/artifact_hashes.sh target/release /tmp/art-change
#   (same in a checkout of the parent, into /tmp/art-parent)
#   diff /tmp/art-parent.sha256 /tmp/art-change.sha256
#
# Per run it keeps stdout (with the exit status appended), stderr, the
# `--json` report and any flight dumps. Everything is deterministic, so
# any differing line names an artifact that moved. ~5 s.
#
# `tools/artifacts.sha256` is the list for the committed tree; CI
# regenerates it and diffs. A change that moves an artifact updates that
# file in the same commit and says why in CHANGES.md.
set -uo pipefail
# The list is sorted by file name: pin the collation.
export LC_ALL=C
bin="$(cd "$1" && pwd)"; out="$2"
rm -rf "$out"; mkdir -p "$out"; cd "$out"
run() { # name, cmd...
  local name="$1"; shift
  "$@" >"$name.stdout" 2>"$name.stderr"; echo "exit=$?" >>"$name.stdout"
}
for t in 1 2; do
  run hunt-plain-t$t  "$bin/chaos_hunt" --quick --seeds 64 --threads $t --json hunt-plain-t$t.json
  run hunt-double-t$t "$bin/chaos_hunt" --quick --seeds 64 --double --threads $t --json hunt-double-t$t.json
  run hunt-pool-t$t   "$bin/chaos_hunt" --quick --seeds 64 --pool --threads $t --json hunt-pool-t$t.json
  run hunt-reint-t$t  "$bin/chaos_hunt" --quick --seeds 16 --reintegrate --threads $t --json hunt-reint-t$t.json
done
# CI's smoke steps.
run pool300 "$bin/chaos_hunt" --quick --pool --seeds 300 --threads 2 --enforce-bounds --json pool300.json
run smoke50-plain  "$bin/chaos_hunt" --quick --seeds 50 --threads 2 --enforce-bounds --json smoke50-plain.json
run smoke50-double "$bin/chaos_hunt" --quick --seeds 50 --double --threads 2 --enforce-bounds --json smoke50-double.json
run smoke50-reint  "$bin/chaos_hunt" --quick --seeds 50 --reintegrate --threads 2 --enforce-bounds --json smoke50-reint.json
# One verbose case per flavour: stdout, the `--trace` record, the dump pair.
for fl in plain double reintegrate pool; do
  flag=""; [ $fl != plain ] && flag="--$fl"
  run seed7-$fl "$bin/chaos_hunt" --quick --seed 7 $flag --flight-always --trace --json seed7-$fl.json
done
run explore "$bin/state_explore" --budget 3000 --threads 2 --json explore.json
run table1 "$bin/table1_matrix" --json table1.json
for demo in demo1_failover demo2_hb_sweep demo4_app_crash demo5_nic_failure demo6_reintegration demo7_pool; do
  run "${demo%%_*}" "$bin/$demo" --json "${demo%%_*}.json"
done
for tool in temp_netfail serial_capacity ablations; do
  run $tool "$bin/$tool"
done
run trace_check "$bin/trace_check" --selftest
for ex in quickstart file_transfer_failover app_crash_migration nic_failure pool_takeover_chain; do
  run ex-$ex "$bin/examples/$ex"
done
find . -type f | sort | xargs sha256sum > ../"$(basename "$out")".sha256
echo "$(wc -l < ../"$(basename "$out")".sha256) artifacts hashed into $(dirname "$PWD")/$(basename "$out").sha256"
