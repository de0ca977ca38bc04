#!/bin/sh
# Serve smoke: boot the network server on a Unix socket, drive 8
# concurrent clients with mixed ASSERT/RETRACT + ANSWER traffic, check
# that trivial load sheds nothing, that the access log holds one line per
# request and --slow-ms 0 one span tree per request, and that --timeout
# bounds each request rather than the server's lifetime, then SIGTERM the
# server and check the graceful drain exits 143 and reports the session's
# STATS rows to --metrics-json.
set -e
cd "$(dirname "$0")/.."

dune build bin/obda.exe
OBDA=_build/default/bin/obda.exe

dir=$(mktemp -d)
sock="$dir/obda.sock"

"$OBDA" serve --socket "$sock" --connections 8 --timeout 2 \
  --access-log "$dir/access.log" --slow-ms 0 \
  --metrics-json "$dir/metrics.jsonl" \
  -o test/corpus/good.onto -d test/corpus/chain.data &
server=$!
trap 'kill "$server" 2>/dev/null; rm -rf "$dir"' EXIT

# readiness: PING through the retrying client until the server answers
# (no sleep-and-stat race — the pong proves the serve loop is live)
if ! pong=$(printf 'PING\nQUIT\n' | "$OBDA" client --retry 50 --socket "$sock"); then
  echo "server never answered a PING on $sock" >&2
  exit 1
fi
case "$pong" in
  "OK pong rev="*) ;;
  *) echo "unexpected PING response: $pong" >&2; exit 1 ;;
esac

# one client prepares; 8 concurrent clients then issue mixed traffic
printf 'PREPARE q q(x) <- A(x)\nQUIT\n' \
  | "$OBDA" client --socket "$sock" > "$dir/prep.out"

pids=
for c in 1 2 3 4 5 6 7 8; do
  printf 'ASSERT A(s%d)\nANSWER q\nRETRACT A(s%d)\nANSWER q\nQUIT\n' "$c" "$c" \
    | "$OBDA" client --socket "$sock" > "$dir/c$c.out" &
  pids="$pids $!"
done
for p in $pids; do
  wait "$p"
done

# no client may have been shed or errored at this load
if grep -h '^ERR' "$dir/prep.out" "$dir"/c*.out; then
  echo "unexpected ERR under trivial load" >&2
  exit 1
fi

# the access log: one line per request so far (PING and QUIT of the
# readiness probe, PREPARE and QUIT, 8 clients x 5), each its own request
# id, each a single JSON object; and, with --slow-ms 0, one slow line per
# request whose span tree names exactly one service.request span
requests=44
access=$(grep -c '^{"type":"access",' "$dir/access.log" || true)
ids=$(grep '^{"type":"access",' "$dir/access.log" | sed 's/.*"id":\([0-9]*\),.*/\1/' | sort -u | wc -l)
if [ "$access" -ne "$requests" ] || [ "$ids" -ne "$requests" ] \
   || grep -q '}{' "$dir/access.log"; then
  echo "access log: $access access lines, $ids ids, want $requests each:" >&2
  cat "$dir/access.log" >&2
  exit 1
fi
if awk '/^\{"type":"slow",/ { n++; if (gsub(/"name":"service\.request"/, "&") != 1) bad++ }
        END { exit !(n == '"$requests"' && bad == 0) }' "$dir/access.log"; then :; else
  echo "slow lines must each name exactly one service.request span:" >&2
  grep '"type":"slow"' "$dir/access.log" >&2
  exit 1
fi

# --timeout is per request: past the server's first 2 s, an ANSWER whose
# evaluation reads the clock (over 1,024 budget steps) still answers
sleep 3
printf 'ANSWER q\nQUIT\n' | "$OBDA" client --socket "$sock" > "$dir/late.out"
if ! grep -q '^OK answers=' "$dir/late.out"; then
  echo "ANSWER after the first --timeout window did not answer:" >&2
  cat "$dir/late.out" >&2
  exit 1
fi

# the server's own books agree: zero requests shed
printf 'STATS\nQUIT\n' | "$OBDA" client --socket "$sock" > "$dir/stats.out"
if ! grep -q '^server\.requests\.shed 0$' "$dir/stats.out"; then
  echo "requests shed at trivial load:" >&2
  cat "$dir/stats.out" >&2
  exit 1
fi

# METRICS: the exposition must be non-empty and parse — an OK status
# announcing the line count, obda_-prefixed sample names, and a
# histogram _count for the request latencies the traffic just recorded
printf 'METRICS\nQUIT\n' | "$OBDA" client --socket "$sock" > "$dir/metrics.out"
if ! grep -q '^OK metrics=[1-9]' "$dir/metrics.out"; then
  echo "METRICS did not announce a non-empty exposition:" >&2
  cat "$dir/metrics.out" >&2
  exit 1
fi
if ! grep -q '^obda_[a-z_]* [0-9.eE+-]*$' "$dir/metrics.out"; then
  echo "METRICS exposition has no parsable samples:" >&2
  cat "$dir/metrics.out" >&2
  exit 1
fi
if ! grep -q '^obda_serve_answer_latency_count [1-9]' "$dir/metrics.out"; then
  echo "METRICS exposition lacks the answer-latency histogram:" >&2
  cat "$dir/metrics.out" >&2
  exit 1
fi
# every non-status, non-comment line must be "name value" or
# "name{le=...} value" with a numeric (or +Inf) value
if awk '/^OK metrics=/ || /^OK bye$/ || /^#/ { next }
        !/^[A-Za-z_][A-Za-z0-9_]*(\{le="[^"]*"\})? (\+Inf|-?[0-9.eE+-]+)$/ { bad = 1; print "unparsable: " $0 > "/dev/stderr" }
        END { exit bad }' "$dir/metrics.out"; then :; else
  echo "METRICS exposition failed to re-parse" >&2
  exit 1
fi

# obda top renders a one-shot dashboard against the live socket
"$OBDA" top --socket "$sock" --count 1 > "$dir/top.out"
if ! grep -q 'requests' "$dir/top.out" || ! grep -q 'p50' "$dir/top.out"; then
  echo "obda top rendered no dashboard:" >&2
  cat "$dir/top.out" >&2
  exit 1
fi

# graceful shutdown: SIGTERM drains and exits 143
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

# the drained session's STATS rows reached --metrics-json, under their
# STATS names and METRICS kinds
for row in '"counter","name":"server.requests.served"' \
           '"counter","name":"cache.misses"' '"gauge","name":"data.atoms"'; do
  if ! grep -q "\"type\":\"metric\",\"kind\":$row" "$dir/metrics.jsonl"; then
    echo "--metrics-json lacks the STATS row $row:" >&2
    grep '"type":"metric"' "$dir/metrics.jsonl" >&2
    exit 1
  fi
done

echo "serve smoke: 8 clients served, 0 requests shed, one access line and one slow span tree per request, --timeout per request, METRICS parsed, top rendered, SIGTERM drained with exit 143 and STATS rows in --metrics-json"
