#!/usr/bin/env bash
# Multi-process deployment smoke test: launches one -peer-serve primary
# hosting TWO channels (blockchain network + off-chain storage + workload,
# peers exposed on TCP listeners) and two -join peer processes, one per
# channel. Each joiner negotiates its channel in the transport's hello
# handshake, fetches trust anchors, catches up via TCP gossip anti-entropy,
# and must reach its channel's exact block height and state fingerprint —
# three OS processes, every block crossing a real socket.
#
# The primary and the second joiner also serve the -admin endpoint; the
# script asserts /metrics answers with channel-labeled pipeline series,
# /healthz reports per-channel health, and a committed transaction's
# /tracez timeline carries every pipeline stage (including the gossip hop
# observed by the joiner, joined via the frame-header trace ID).
set -euo pipefail

cd "$(dirname "$0")/.."

CH_A=chan-a
CH_B=chan-b
WORK=$(mktemp -d)
BIN="$WORK/hyperprov-net"
LOG="$WORK/primary.log"
JOINLOG="$WORK/join-b.log"
go build -o "$BIN" ./cmd/hyperprov-net

# -run-for must exceed the script's worst case (120s ready-wait + two 90s
# join timeouts); the exit trap kills the primary long before that.
"$BIN" -peer-serve -channels "$CH_A,$CH_B" -addr 127.0.0.1:0 -txs 4 \
  -peer-latency 1ms -run-for 600s -admin 127.0.0.1:0 >"$LOG" 2>&1 &
PRIMARY=$!
JOINER=""
cleanup() {
  kill "$PRIMARY" 2>/dev/null || true
  wait "$PRIMARY" 2>/dev/null || true
  [ -n "$JOINER" ] && { kill "$JOINER" 2>/dev/null || true; wait "$JOINER" 2>/dev/null || true; }
  rm -rf "$WORK"
}
trap cleanup EXIT

# Wait for the primary to finish its workload and print the per-channel
# targets.
for _ in $(seq 1 240); do
  grep -q "^PRIMARY channel=$CH_B " "$LOG" && break
  kill -0 "$PRIMARY" 2>/dev/null || { echo "primary exited early:"; cat "$LOG"; exit 1; }
  sleep 0.5
done
grep -q "^PRIMARY channel=$CH_B " "$LOG" || { echo "primary never became ready:"; cat "$LOG"; exit 1; }

PEERS=$(awk '/^PEERS /{print $2}' "$LOG")
ADMIN=$(awk '/^ADMIN /{print $2}' "$LOG")
HEIGHT_A=$(sed -n "s/^PRIMARY channel=$CH_A height=\([0-9]*\).*/\1/p" "$LOG")
FP_A=$(sed -n "s/^PRIMARY channel=$CH_A .*fingerprint=\([0-9a-f]*\)$/\1/p" "$LOG")
HEIGHT_B=$(sed -n "s/^PRIMARY channel=$CH_B height=\([0-9]*\).*/\1/p" "$LOG")
FP_B=$(sed -n "s/^PRIMARY channel=$CH_B .*fingerprint=\([0-9a-f]*\)$/\1/p" "$LOG")
PEER1=$(echo "$PEERS" | cut -d, -f1)
PEER2=$(echo "$PEERS" | cut -d, -f2)
[ -n "$HEIGHT_A" ] && [ -n "$FP_A" ] && [ -n "$HEIGHT_B" ] && [ -n "$FP_B" ] \
  && [ -n "$PEER1" ] && [ -n "$PEER2" ] && [ -n "$ADMIN" ] || {
  echo "could not parse primary output:"; cat "$LOG"; exit 1;
}
# Before printing its targets the primary read its first item back on each
# channel: StoreData / GetData through the off-chain server's TCP socket.
for ch in "$CH_A" "$CH_B"; do
  grep -q "^retrieved [0-9]* bytes on $ch over the TCP store, checksum verified" "$LOG" || {
    echo "primary never read net-item-0 back on $ch:"; cat "$LOG"; exit 1;
  }
done
echo "primary ready: peers=$PEERS $CH_A@$HEIGHT_A=$FP_A $CH_B@$HEIGHT_B=$FP_B admin=$ADMIN"

# The two channels committed the same keys but are independent ledgers:
# identical fingerprints would mean tenant state bled across channels.
[ "$FP_A" != "$FP_B" ] || {
  echo "channel fingerprints identical ($FP_A): channels are not isolated"; exit 1;
}

# --- admin endpoint on the primary ---------------------------------------
METRICS=$(curl -fsS "$ADMIN/metrics")
for want in blocks_committed commit_stage_persist_count net_gossip_rounds \
    endorsements_served; do
  echo "$METRICS" | grep -q "^$want" || {
    echo "primary /metrics missing $want:"; echo "$METRICS" | head -40; exit 1;
  }
done
# Pipeline series must carry the channel label, once per served channel.
for ch in "$CH_A" "$CH_B"; do
  echo "$METRICS" | grep -q "^blocks_committed{channel=\"$ch\"}" || {
    echo "primary /metrics missing blocks_committed{channel=\"$ch\"}:"
    echo "$METRICS" | head -40; exit 1;
  }
done
HEALTH=$(curl -fsS "$ADMIN/healthz")
for ch in "$CH_A" "$CH_B"; do
  echo "$HEALTH" | grep -q '"channel": *"'"$ch"'"' || {
    echo "primary /healthz missing channel $ch: $HEALTH"; exit 1;
  }
done
echo "$HEALTH" | grep -q '"height": *'"$HEIGHT_A" || {
  echo "primary /healthz height mismatch (want $HEIGHT_A): $HEALTH"; exit 1;
}
TRACEZ=$(curl -fsS "$ADMIN/tracez?n=50")
for stage in '"propose"' '"endorse"' '"order"' '"commit.preval"' '"commit.mvcc"' \
    '"commit.persist"' '"outcome": *"VALID"'; do
  echo "$TRACEZ" | grep -Eq "$stage" || {
    echo "primary /tracez missing $stage"; echo "$TRACEZ" | head -60; exit 1;
  }
done
echo "admin ok: channel-labeled /metrics, per-channel /healthz, full /tracez timeline"

# Two joining processes, one per channel, each gossiping with a different
# serving peer. Each negotiates its channel in the hello handshake and must
# converge to THAT channel's height and fingerprint. The second also serves
# an admin endpoint and lingers so we can inspect the gossip hop's traces
# from the receiving side.
"$BIN" -join "$PEER1" -channel "$CH_A" -name edge-a -peer-latency 1ms \
  -expect-height "$HEIGHT_A" -expect-fingerprint "$FP_A" -timeout 90s
"$BIN" -join "$PEER2" -channel "$CH_B" -name edge-b -peer-latency 1ms \
  -expect-height "$HEIGHT_B" -expect-fingerprint "$FP_B" -timeout 90s \
  -admin 127.0.0.1:0 -run-for 600s >"$JOINLOG" 2>&1 &
JOINER=$!
for _ in $(seq 1 240); do
  grep -q '^CONVERGED ' "$JOINLOG" && break
  kill -0 "$JOINER" 2>/dev/null || { echo "joiner exited early:"; cat "$JOINLOG"; exit 1; }
  sleep 0.5
done
grep -q '^CONVERGED ' "$JOINLOG" || { echo "joiner never converged:"; cat "$JOINLOG"; exit 1; }
grep -q "joining channel $CH_B" "$JOINLOG" || {
  echo "joiner did not negotiate $CH_B in its hello:"; cat "$JOINLOG"; exit 1;
}
JADMIN=$(awk '/^ADMIN /{print $2}' "$JOINLOG")
[ -n "$JADMIN" ] || { echo "joiner printed no ADMIN line:"; cat "$JOINLOG"; exit 1; }

# The joiner received every block over gossip: its traces must show the
# delivery hop plus the local commit stages for the same transactions.
JTRACEZ=$(curl -fsS "$JADMIN/tracez?n=50")
for stage in '"gossip.deliver"' '"commit.preval"' '"commit.mvcc"' '"commit.persist"' \
    '"outcome": *"VALID"'; do
  echo "$JTRACEZ" | grep -Eq "$stage" || {
    echo "joiner /tracez missing $stage"; echo "$JTRACEZ" | head -60; exit 1;
  }
done
JHEALTH=$(curl -fsS "$JADMIN/healthz")
echo "$JHEALTH" | grep -q '"peer": *"edge-b"' || {
  echo "joiner /healthz wrong peer: $JHEALTH"; exit 1;
}
echo "joiner admin ok: gossip.deliver + commit stages visible on edge-b ($CH_B)"

# After the joins, the primary's transport servers have served real
# connections: the frame counters must now be on its /metrics.
METRICS2=$(curl -fsS "$ADMIN/metrics")
echo "$METRICS2" | grep -q '^net_transport_frames_sent' || {
  echo "primary /metrics missing net_transport_frames_sent after joins"; exit 1;
}

echo "smoke ok: per-channel joiners converged ($CH_A@$HEIGHT_A, $CH_B@$HEIGHT_B) with isolated fingerprints"
