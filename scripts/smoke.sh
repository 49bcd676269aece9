#!/usr/bin/env bash
# CI smoke harness for the mwtj-server binary: one shared boot / wait /
# teardown and one scenario per subcommand.
#
#   bash scripts/smoke.sh <scenario>     # one scenario
#   bash scripts/smoke.sh all            # every scenario, in order
#
# Scenarios:
#   server     TCP: ping, run, status; a streamed query arrives as a
#              schema frame, >=2 batch frames and an end frame whose
#              row total matches the unary run; clean shutdown.
#   streaming  stdin: the dense demo query at batch=16 arrives as
#              >=100 small batch frames plus an end frame (the server
#              never materialises the result set).
#   prepared   stdin: prepare once, execute twice with different
#              parameters, the second execution is a plan-cache hit,
#              close makes the id a typed error. TCP: the client's
#              --prepare lifecycle and a streamed execute.
#   skipping   stdin: a tight band with skipping on and off gives
#              identical rows, and `stats` reports a non-zero skip
#              fraction with pruned blocks.
#   faults     stdin: the same query with and without 0.3-probability
#              fault injection gives byte-identical bodies, `stats`
#              shows real retries and caught panics, and +deadline=0
#              answers the typed `err deadline exceeded` frame.
#   obs        TCP: EXPLAIN, the `metrics` exposition parses with a
#              query-latency sample, `stats json`, EXPLAIN ANALYZE
#              stages, `history` -> sys.queries -> `profile <trace>`.
#
# Expects the release binary (cargo build --release -p mwtj-server).
# TCP scenarios listen on $MWTJ_SMOKE_ADDR (default 127.0.0.1:7411).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=./target/release/mwtj-server
ADDR=${MWTJ_SMOKE_ADDR:-127.0.0.1:7411}
SCENARIO=${1:-}
SERVER_PID=
SERVER_LOG=

# fail <message> [context]: report a failed assertion (with up to 60
# lines of context) and exit non-zero.
fail() {
  echo "$SCENARIO smoke: $1"
  if [ $# -gt 1 ]; then sed -n '1,60p' <<<"$2"; fi
  exit 1
}

teardown() {
  if [ -n "$SERVER_PID" ]; then kill "$SERVER_PID" 2>/dev/null || true; fi
  if [ -n "$SERVER_LOG" ]; then rm -f "$SERVER_LOG"; fi
}
trap teardown EXIT

# boot [server flags…]: start a TCP server on $ADDR with the demo
# catalog, then poll for readiness. Fails loudly (with the server log)
# if the server dies or never answers, instead of limping into later
# commands.
boot() {
  SERVER_LOG=$(mktemp)
  "$BIN" --listen "$ADDR" --demo "$@" >"$SERVER_LOG" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    if "$BIN" client "$ADDR" ping >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server on $ADDR never became ready; server log:" "$(cat "$SERVER_LOG")"
}

# stop: the drain path — a `shutdown` request, then the process must
# exit cleanly.
stop() {
  "$BIN" client "$ADDR" shutdown >/dev/null
  wait "$SERVER_PID"
  SERVER_PID=
}

# session [server flags…]: one --stdin session fed the request lines
# on this function's stdin.
session() {
  "$BIN" --stdin "$@"
}

# field <name> <line>: the value of a `name=value` token.
field() {
  tr ' ' '\n' <<<"$2" | sed -n "s/^$1=//p"
}

# body <n> <output>: the n-th `run` result body of a stdin session —
# the lines between its `ok rows=` header and the next `ok pong`.
body() {
  awk -v n="$1" '/^ok rows=/{grab=(++seen==n); next} /^ok pong$/{grab=0} grab' <<<"$2"
}

scenario_server() {
  boot
  "$BIN" client "$ADDR" ping
  "$BIN" client "$ADDR" run ours "SELECT x.a, y.b FROM r x, s y WHERE x.a = y.a" | head -2
  "$BIN" client "$ADDR" status

  # The same query must arrive as a schema frame, then MULTIPLE batch
  # frames (incremental delivery, not one monolithic body), then an
  # end frame whose row total matches the unary run.
  local sql="SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a"
  local run_out stream_out run_rows stream_rows batches
  run_out=$("$BIN" client "$ADDR" run ours "$sql")
  run_rows=$(field rows "${run_out%%$'\n'*}")
  stream_out=$("$BIN" client --stream "$ADDR" stream ours batch=64 "$sql")
  [[ ${stream_out%%$'\n'*} == 'ok stream=schema'* ]] || fail "missing schema frame"
  batches=$(grep -c 'ok stream=batch' <<<"$stream_out")
  [ "$batches" -ge 2 ] || fail "expected >=2 batch frames, got $batches"
  stream_rows=$(field rows "$(grep 'ok stream=end' <<<"$stream_out")")
  [ "$stream_rows" = "$run_rows" ] || fail "streamed $stream_rows rows != run $run_rows"
  echo "server smoke: $batches batches, $stream_rows rows (matches run)"

  stop
  echo "server smoke: clean shutdown"
}

scenario_streaming() {
  # ~50% of the 240×180 demo cross product survives `<=`.
  local out first batches rows
  out=$(printf 'stream ours batch=16 SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a\nquit\n' \
    | session --demo)
  # (No `... | head -1` pipelines here: under pipefail, head closing
  # the pipe early would SIGPIPE the producer and fail the script.)
  first=${out%%$'\n'*}
  [[ $first == 'ok stream=schema cols=2'* ]] || fail "missing schema frame (got: $first)"
  batches=$(grep -c 'ok stream=batch rows=' <<<"$out")
  # ~22k result rows at 16 rows/batch → well over 1000 batch frames.
  [ "$batches" -ge 100 ] || fail "expected >=100 batch frames, got $batches"
  grep -q 'ok stream=end rows=' <<<"$out" || fail "missing end frame"
  rows=$(field rows "$(grep 'ok stream=end' <<<"$out")")
  [ "$rows" -ge 10000 ] || fail "dense query produced only $rows rows"
  echo "streaming smoke: $batches batches, $rows rows, bounded memory"
}

scenario_prepared() {
  local sql="SELECT x.a, y.b FROM r x, s y WHERE x.a + ? <= y.a"
  # ---- stdin: the stateful lifecycle on one session ----
  local out hits h1 h2
  out=$(printf '%s\n' \
    "prepare $sql" \
    'execute 1 0' \
    'stats' \
    'execute 1 5' \
    'stats' \
    'close 1' \
    'execute 1 0' \
    'quit' \
    | session --demo)
  grep -q '^ok stmt=1 params=1$' <<<"$out" || fail "bad prepare response" "$out"
  [ "$(grep -c '^ok rows=' <<<"$out")" -eq 2 ] || fail "expected 2 executions" "$out"
  # hits= from the two stats lines: the second execution (different
  # params!) must have reused the first one's plan.
  hits=$(sed -n 's/^ok entries=.* hits=\([0-9]*\).*/\1/p' <<<"$out")
  h1=$(head -1 <<<"$hits")
  h2=$(tail -1 <<<"$hits")
  [ "$h2" -gt "$h1" ] || fail "no plan-cache hit on 2nd execute (hits $h1 -> $h2)" "$out"
  grep -q '^ok closed=1$' <<<"$out" || fail "close failed" "$out"
  grep -q '^err unknown statement id 1' <<<"$out" \
    || fail "executing a closed statement must be a typed error" "$out"
  echo "prepared smoke (stdin): plan-cache hits $h1 -> $h2 across two parameterised executions"

  # ---- TCP: the client's --prepare lifecycle and a streamed execute ----
  boot
  local prep_out stream_out
  prep_out=$("$BIN" client --prepare --params 3 "$ADDR" "$sql")
  grep -q '^ok stmt=' <<<"$prep_out" || fail "client --prepare missing prepare response" "$prep_out"
  grep -q '^ok rows=' <<<"$prep_out" || fail "client --prepare missing execute response" "$prep_out"
  grep -q '^ok closed=' <<<"$prep_out" || fail "client --prepare missing close response" "$prep_out"
  stream_out=$("$BIN" client --prepare --stream --params 0 "$ADDR" "$sql")
  grep -q 'ok stream=schema' <<<"$stream_out" \
    || fail "streamed execute missing schema frame" "$stream_out"
  grep -q 'ok stream=end' <<<"$stream_out" || fail "streamed execute missing end frame" "$stream_out"
  stop
  echo "prepared smoke (tcp): --prepare lifecycle + streamed execute ok"
}

scenario_skipping() {
  # 12k sorted rows: multiple value-clustered DFS blocks, so the band's
  # zone ranges prune most of them.
  local big small sql out on off stats fraction blocks
  big=$(awk 'BEGIN{for(i=0;i<12000;i++){printf "%d,%d",i,i; if(i<11999) printf ";"}}')
  small=$(awk 'BEGIN{for(i=0;i<8;i++){printf "%d,%d",30+i,i; if(i<7) printf ";"}}')
  sql='SELECT x.a, y.b FROM big x, small y WHERE x.a < y.a'
  out=$(printf '%s\n' \
    "load big a:int,b:int $big" \
    "load small a:int,b:int $small" \
    "run ours $sql" \
    'ping' \
    "run ours+noskip $sql" \
    'ping' \
    'stats' \
    'quit' \
    | session)
  grep -q 'rows=12000' <<<"$out" || fail "big relation did not load" "$out"
  # Skipping is drop-only: it never changes a row.
  on=$(body 1 "$out" | sort)
  off=$(body 2 "$out" | sort)
  [ -n "$on" ] || fail "no skip-on result" "$out"
  [ "$on" = "$off" ] || fail "skip-on and skip-off results differ" "$(diff <(echo "$on") <(echo "$off"))"
  # The tight band must actually have pruned.
  stats=$(grep '^ok entries=' <<<"$out" | tail -1)
  fraction=$(field skip_fraction "$stats")
  blocks=$(field zone_blocks_pruned "$stats")
  awk -v f="$fraction" 'BEGIN{exit !(f > 0)}' || fail "skip_fraction not > 0: $stats"
  [ "${blocks:-0}" -gt 0 ] || fail "no blocks pruned: $stats"
  echo "skipping smoke: row parity on $(grep -m1 '^ok rows=' <<<"$out"), skip_fraction=$fraction, blocks pruned=$blocks"
}

scenario_faults() {
  # Enough rows for several map blocks and reduce partitions, so a 0.3
  # fault rate reliably selects some attempts.
  local big sql out clean faulty stats retries panics attempts
  big=$(awk 'BEGIN{for(i=0;i<6000;i++){printf "%d,%d",i%97,i; if(i<5999) printf ";"}}')
  sql='SELECT x.a, y.b FROM big x, big2 y WHERE x.a = y.a AND x.b < y.b'
  out=$(printf '%s\n' \
    "load big a:int,b:int $big" \
    "load big2 a:int,b:int $big" \
    "run ours $sql" \
    'ping' \
    "run ours+faults=0.3@7/4 $sql" \
    'ping' \
    "run ours+deadline=0 $sql" \
    'ping' \
    'stats' \
    'quit' \
    | session)
  grep -q 'rows=6000' <<<"$out" || fail "relation did not load" "$out"
  # Injected faults really abort attempts, yet never change the
  # answer: the bodies are byte-identical, in order.
  clean=$(body 1 "$out")
  faulty=$(body 2 "$out")
  [ -n "$clean" ] || fail "no clean result" "$out"
  [ -n "$faulty" ] || fail "no faulty result" "$out"
  [ "$clean" = "$faulty" ] \
    || fail "fault-injected result differs from clean result" "$(diff <(echo "$clean") <(echo "$faulty"))"
  # The blown deadline answers the typed frame, not a success or a
  # free-text error.
  grep -q '^err deadline exceeded$' <<<"$out" \
    || fail "no typed deadline frame" "$(grep '^err' <<<"$out" || true)"
  # The stats frame must prove the retries were real.
  stats=$(grep '^ok entries=' <<<"$out" | tail -1)
  retries=$(field real_retries "$stats")
  panics=$(field panics_caught "$stats")
  attempts=$(field task_attempts "$stats")
  [ "${retries:-0}" -gt 0 ] || fail "real_retries not > 0: $stats"
  [ "${panics:-0}" -gt 0 ] || fail "panics_caught not > 0 (catch_unwind path untested): $stats"
  echo "faults smoke: byte parity on $(grep -m1 '^ok rows=' <<<"$out"), attempts=$attempts real_retries=$retries panics_caught=$panics"
}

scenario_obs() {
  # --slow-query-ms 1: every demo run clears the threshold, so the
  # recorder retains its profile and `profile <trace>` has something
  # to render.
  boot --slow-query-ms 1
  local sql="SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a"
  local out metrics bad latency history trace

  # Plain EXPLAIN answers the plan without executing.
  out=$("$BIN" client "$ADDR" explain "$sql")
  grep -q '^ok trace=' <<<"$out" || fail "explain missing trace id" "$out"
  grep -q '^plan: ours:' <<<"$out" || fail "explain missing plan line" "$out"

  # A real run, then scrape the registry.
  "$BIN" client "$ADDR" run ours "$sql" >/dev/null
  metrics=$("$BIN" client "$ADDR" metrics)
  [[ ${metrics%%$'\n'*} == 'ok format=text' ]] || fail "bad metrics header" "$metrics"
  # Every exposition line must parse as `name[{labels}] number`.
  bad=$(tail -n +2 <<<"$metrics" \
    | grep -cEv '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9e+-]+)?$' || true)
  [ "$bad" -eq 0 ] || fail "$bad unparseable exposition line(s)" "$metrics"
  latency=$(sed -n 's/^mwtj_query_latency_ms_count{method=ours} //p' <<<"$metrics")
  [ -n "$latency" ] && [ "$latency" -ge 1 ] || fail "no query latency samples" "$metrics"
  grep -q '^mwtj_queries_total{method=ours} ' <<<"$metrics" || fail "missing query counter" "$metrics"

  # The JSON variant answers the same registry.
  "$BIN" client "$ADDR" stats json | grep -q 'mwtj_queries_total' \
    || fail "stats json missing counters"

  # EXPLAIN ANALYZE executes and renders the per-stage profile tree.
  out=$("$BIN" client "$ADDR" run "EXPLAIN ANALYZE $sql")
  grep -q 'analyze=true' <<<"$out" || fail "explain analyze not analyzed" "$out"
  for stage in plan admission execute job0/map; do
    grep -q "$stage" <<<"$out" || fail "profile missing stage $stage" "$out"
  done

  # The flight recorder answers over the wire: the newest history
  # entry is a completed run whose trace id plain SQL can find in
  # sys.queries.
  history=$("$BIN" client --history 5 "$ADDR")
  grep -q '^ok entries=' <<<"$history" || fail "bad history header" "$history"
  trace=$(sed -n '2s/^trace=\([0-9][0-9]*\) .*/\1/p' <<<"$history")
  [ -n "$trace" ] || fail "history carried no trace id" "$history"
  grep -q "^trace=$trace outcome=ok " <<<"$history" || fail "newest history entry not ok" "$history"

  # The same trace id through the ordinary SQL path — a theta join
  # between two sys relations, served like any other query.
  out=$("$BIN" client "$ADDR" run ours \
    "SELECT q.trace_id, q.outcome FROM sys.queries q, sys.scheduler s WHERE q.granted_units <= s.budget")
  grep -q "^$trace,ok\$" <<<"$out" || fail "trace $trace missing from sys.queries" "$out"

  # Its retained profile renders the lifecycle tree.
  out=$("$BIN" client --profile "$trace" "$ADDR")
  grep -q "^ok trace=$trace" <<<"$out" || fail "no retained profile for trace $trace" "$out"
  grep -q 'execute' <<<"$out" || fail "profile missing execute stage" "$out"

  # Unknown trace ids answer a typed error, not a crash.
  if "$BIN" client --profile 999999999 "$ADDR" >/dev/null 2>&1; then
    fail "bogus profile id must answer err"
  fi

  stop
  echo "obs smoke: exposition parses, latency count=$latency, explain analyze profiled, sys.queries sees trace $trace"
}

SCENARIOS="server streaming prepared skipping faults obs"
case "$SCENARIO" in
  all)
    for s in $SCENARIOS; do bash scripts/smoke.sh "$s"; done
    ;;
  server | streaming | prepared | skipping | faults | obs)
    "scenario_$SCENARIO"
    ;;
  *)
    echo "usage: $0 <all|${SCENARIOS// /|}>" >&2
    exit 2
    ;;
esac
