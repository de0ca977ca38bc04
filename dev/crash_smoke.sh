#!/bin/sh
# Crash smoke: boot the network server with a durable data dir, apply
# acknowledged traffic, kill -9 the server mid-stream, restart it on the
# same dir, and check that every acknowledged mutation survived — the
# durability guarantee, end to end through a real SIGKILL.
set -e
cd "$(dirname "$0")/.."

dune build bin/obda.exe
OBDA=_build/default/bin/obda.exe

dir=$(mktemp -d)
sock="$dir/obda.sock"
data="$dir/state"

"$OBDA" serve --socket "$sock" --data-dir "$data" --durability always \
  -o test/corpus/good.onto -d test/corpus/good.data 2> "$dir/server1.err" &
server=$!
trap 'kill -9 "$server" 2>/dev/null; rm -rf "$dir"' EXIT

# readiness: PING through the retrying client
printf 'PING\nQUIT\n' | "$OBDA" client --retry 50 --socket "$sock" > /dev/null

# phase 1: acknowledged baseline traffic, then capture the answer set
printf 'PREPARE q q(x) <- A(x)\nASSERT A(base1) A(base2)\nRETRACT A(base2)\nQUIT\n' \
  | "$OBDA" client --socket "$sock" > "$dir/phase1.out"
if grep -q '^ERR' "$dir/phase1.out"; then
  echo "phase-1 traffic errored:" >&2
  cat "$dir/phase1.out" >&2
  exit 1
fi
printf 'ANSWER q\nQUIT\n' | "$OBDA" client --socket "$sock" \
  | grep -v '^OK' | sort > "$dir/answers.before"

# checkpoint the phase-1 state: the prepared registry survives restarts
# through checkpoints (the WAL carries data mutations only), and the
# restart below then exercises checkpoint restore + WAL tail replay
printf 'CHECKPOINT\nQUIT\n' | "$OBDA" client --socket "$sock" > "$dir/ckpt1.out"
if ! grep -q '^OK checkpoint seq=' "$dir/ckpt1.out"; then
  echo "phase-1 CHECKPOINT failed:" >&2
  cat "$dir/ckpt1.out" >&2
  exit 1
fi

# phase 2: a long assert stream; SIGKILL the server while it runs.
# Every line the client got an "OK asserted" back for was fsynced to the
# WAL before that OK was sent — those must survive the kill.
sent=5000
i=0
while [ "$i" -lt "$sent" ]; do
  i=$((i + 1))
  printf 'ASSERT A(s%d)\n' "$i"
done | "$OBDA" client --socket "$sock" > "$dir/stream.out" 2> /dev/null &
stream=$!
sleep 0.2
kill -9 "$server"
set +e
wait "$server" 2> /dev/null
wait "$stream" 2> /dev/null
set -e
acked=$(grep -c '^OK asserted' "$dir/stream.out" || true)
echo "crash smoke: SIGKILL after $acked acknowledged stream asserts"

# restart on the same data dir — no -o/-d: ontology, data and the
# prepared registry must all come back from the checkpoint + WAL replay.
# (Fresh socket path: SIGKILL left the old file behind.)
sock="$dir/obda2.sock"
"$OBDA" serve --socket "$sock" --data-dir "$data" 2> "$dir/server2.err" &
server=$!
printf 'PING\nQUIT\n' | "$OBDA" client --retry 50 --socket "$sock" > /dev/null

printf 'ANSWER q\nQUIT\n' | "$OBDA" client --socket "$sock" \
  | grep -v '^OK' | sort > "$dir/answers.after"

# every phase-1 answer must still be there
while read -r a; do
  [ -z "$a" ] && continue
  if ! grep -qx "$a" "$dir/answers.after"; then
    echo "acknowledged answer $a lost across the crash" >&2
    exit 1
  fi
done < "$dir/answers.before"

# every acknowledged stream assert must still be there; later ones may
# or may not have been acked before the kill, but nothing beyond the
# stream may appear
i=0
while [ "$i" -lt "$acked" ]; do
  i=$((i + 1))
  if ! grep -qx "s$i" "$dir/answers.after"; then
    echo "acknowledged fact A(s$i) lost across the crash" >&2
    exit 1
  fi
done
extra=$(grep -c '^s' "$dir/answers.after" || true)
if [ "$extra" -gt "$sent" ]; then
  echo "recovered more stream facts than were ever sent ($extra)" >&2
  exit 1
fi

# the prepared query itself survived (the ANSWER above proved it), and a
# forced CHECKPOINT compacts the replayed log
printf 'CHECKPOINT\nQUIT\n' | "$OBDA" client --socket "$sock" > "$dir/ckpt.out"
if ! grep -q '^OK checkpoint seq=' "$dir/ckpt.out"; then
  echo "CHECKPOINT verb failed:" >&2
  cat "$dir/ckpt.out" >&2
  exit 1
fi

# graceful shutdown this time, then the offline dry run agrees
kill -TERM "$server"
set +e
wait "$server"
code=$?
set -e
trap 'rm -rf "$dir"' EXIT
if [ "$code" -ne 143 ]; then
  echo "expected exit 143 after SIGTERM, got $code" >&2
  exit 1
fi
"$OBDA" recover "$data" > "$dir/recover.out"
if ! grep -q '^checkpoint:  seq' "$dir/recover.out"; then
  echo "obda recover found no checkpoint after the drain:" >&2
  cat "$dir/recover.out" >&2
  exit 1
fi

total=$(grep -cx '.*' "$dir/answers.after")
echo "crash smoke: $acked acked stream asserts + baseline all recovered after kill -9 ($total answers), CHECKPOINT + recover OK"
