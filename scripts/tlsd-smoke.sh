#!/bin/sh
# End-to-end smoke test of the serving daemon (CI "tlsd smoke" step):
# start tlsd with structured JSON logging, the flight recorder, and the
# debug surface; submit a correlated baseline job over HTTP, poll it to
# completion, and require the served result to be byte-identical to
# `tlssim -json` for the same spec; resubmit to require a content-addressed
# cache hit; scrape /metrics in both JSON and Prometheus form (the build
# cache's resident bytes, evictions, loads and clones included) and lint
# the exposition; force a structured failure and require its
# flight-recorder dump and a repro line that reproduces it; then SIGTERM the
# daemon and require a clean drain (exit 0).
# Finally restart the daemon over the same -cache-dir and require the
# first resubmission to be a disk-warm cache hit: byte-identical body,
# zero build/sim work, and the CAS counters visible in both metric forms;
# a variant of the spec must then read its SEQUENTIAL reference from disk
# and record only its own program, on one load with no clone, and the store
# must hold no machine checkpoint. Before any of that, usage errors must
# exit 2.
set -e
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
DEBUG_ADDR=127.0.0.1:18081
SPEC='{"benchmark":"NEW ORDER","experiment":"BASELINE","txns":3,"warmup":1}'
CORR=smoke-run-1
TMP="$(mktemp -d)"
# Every daemon started below joins PIDS, and the exit trap kills whatever
# is left of them, so a failed check does not leave a daemon holding the
# next run's port.
PIDS=
cleanup() {
    # shellcheck disable=SC2086 # PIDS is split into words on purpose
    [ -z "$PIDS" ] || kill -KILL $PIDS 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/tlsd" ./cmd/tlsd
go build -o "$TMP/tlssim" ./cmd/tlssim

# Usage errors exit 2 at once instead of serving: a stray word (flag
# parsing stops there, so every flag after it would be dropped silently)
# and a worker pool or queue below 1.
for ARGS in "-log-format json stray -workers 3 -queue 9" "-workers -4" "-queue 0"; do
    STATUS=0
    # shellcheck disable=SC2086 # ARGS is split into words on purpose
    timeout 5 "$TMP/tlsd" -addr "$ADDR" $ARGS >/dev/null 2>"$TMP/usage.err" || STATUS=$?
    if [ "$STATUS" != 2 ]; then
        echo "tlsd-smoke: tlsd $ARGS exited $STATUS, want usage error 2" >&2
        cat "$TMP/usage.err" >&2
        exit 1
    fi
done

"$TMP/tlsd" -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -log-format json \
    -flight-dir "$TMP/flight" -cache-dir "$TMP/cas" \
    >"$TMP/tlsd.log" 2>"$TMP/tlsd.jsonl" &
TLSD_PID=$!
PIDS="$PIDS $TLSD_PID"

# Wait for readiness.
for i in $(seq 1 100); do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
        break
    fi
    if [ "$i" = 100 ]; then
        echo "tlsd-smoke: daemon never became ready" >&2
        cat "$TMP/tlsd.log" "$TMP/tlsd.jsonl" >&2
        exit 1
    fi
    sleep 0.1
done

# Submit with a correlation ID, extract the job id, poll to a terminal
# state. The correlation ID must be echoed on the response.
curl -fsS -D "$TMP/submit.hdr" -H "X-Correlation-ID: $CORR" \
    -X POST "http://$ADDR/v1/jobs" -d "$SPEC" >"$TMP/submit.json"
if ! grep -qi "^X-Correlation-ID: $CORR" "$TMP/submit.hdr"; then
    echo "tlsd-smoke: correlation ID not echoed:" >&2
    cat "$TMP/submit.hdr" >&2
    exit 1
fi
JOB=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$TMP/submit.json" | head -1)
if [ -z "$JOB" ]; then
    echo "tlsd-smoke: no job id in submit response:" >&2
    cat "$TMP/submit.json" >&2
    exit 1
fi
for i in $(seq 1 600); do
    STATE=$(curl -fsS "http://$ADDR/v1/jobs/$JOB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)
    [ "$STATE" = "done" ] && break
    if [ "$STATE" = "failed" ]; then
        echo "tlsd-smoke: job failed:" >&2
        curl -fsS "http://$ADDR/v1/jobs/$JOB" >&2
        exit 1
    fi
    if [ "$i" = 600 ]; then
        echo "tlsd-smoke: job never finished (state=$STATE)" >&2
        exit 1
    fi
    sleep 0.1
done

# The serving contract: served bytes == tlssim -json bytes.
curl -fsS "http://$ADDR/v1/jobs/$JOB/result" >"$TMP/served.json"
"$TMP/tlssim" -benchmark "NEW ORDER" -experiment "BASELINE" -txns 3 -warmup 1 -json >"$TMP/cli.json"
if ! cmp -s "$TMP/served.json" "$TMP/cli.json"; then
    echo "tlsd-smoke: served result differs from tlssim -json" >&2
    diff "$TMP/cli.json" "$TMP/served.json" >&2 || true
    exit 1
fi

# Resubmitting the same spec must be a content-addressed cache hit serving
# the identical bytes without re-simulation.
curl -fsS -D "$TMP/hit.hdr" -X POST "http://$ADDR/v1/jobs" -d "$SPEC" >"$TMP/hit.json"
if ! grep -qi '^X-Cache: hit' "$TMP/hit.hdr"; then
    echo "tlsd-smoke: resubmission was not a cache hit:" >&2
    cat "$TMP/hit.hdr" >&2
    exit 1
fi
if ! cmp -s "$TMP/hit.json" "$TMP/cli.json"; then
    echo "tlsd-smoke: cache-hit body differs from tlssim -json" >&2
    exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q '"cache_hits": 1' || {
    echo "tlsd-smoke: /metrics does not show the cache hit" >&2
    curl -fsS "http://$ADDR/metrics" >&2
    exit 1
}

# The same endpoint under a Prometheus scraper's Accept header speaks the
# text exposition format; the in-repo linter must accept the scrape.
curl -fsS -H 'Accept: text/plain' "http://$ADDR/metrics" >"$TMP/metrics.prom"
grep -q '^tlsd_cache_hits_total 1$' "$TMP/metrics.prom" || {
    echo "tlsd-smoke: Prometheus exposition does not show the cache hit" >&2
    cat "$TMP/metrics.prom" >&2
    exit 1
}
grep -q '^tlsd_job_stage_latency_microseconds_count{stage="sim"} 1$' "$TMP/metrics.prom" || {
    echo "tlsd-smoke: Prometheus exposition missing stage histograms" >&2
    cat "$TMP/metrics.prom" >&2
    exit 1
}
# The build cache's memory tier: the job's TLS program is resident, well
# inside the daemon's program budget, so nothing was evicted. The job
# recorded that program and its one-use SEQUENTIAL reference program from
# one database load and its clone.
for NEEDLE in '^tlsd_builder_resident_bytes [1-9]' '^tlsd_builder_evictions_total 0$' \
    '^tlsd_builder_loads_total 1$' '^tlsd_builder_clones_total 1$'; do
    grep -q "$NEEDLE" "$TMP/metrics.prom" || {
        echo "tlsd-smoke: Prometheus exposition missing $NEEDLE" >&2
        cat "$TMP/metrics.prom" >&2
        exit 1
    }
done
PROMLINT_FILE="$TMP/metrics.prom" go test -count=1 -run TestLintPromFile ./internal/telemetry >/dev/null || {
    echo "tlsd-smoke: Prometheus exposition failed the format linter" >&2
    cat "$TMP/metrics.prom" >&2
    exit 1
}

# The opt-in debug surface answers on its own port with the in-flight view.
curl -fsS "http://$DEBUG_ADDR/debug/requests" | grep -q '"in_flight"' || {
    echo "tlsd-smoke: /debug/requests not served on the debug port" >&2
    exit 1
}

# A seeded injection run whose forward-progress watchdog trips must leave a
# flight-recorder dump whose path is attached to the job's failure and
# named in the failure log.
FAILSPEC='{"benchmark":"NEW ORDER","txns":3,"warmup":1,"inject":"seed=1,faults=5,window=60000","watchdog_cycles":2000}'
curl -fsS -H 'X-Correlation-ID: smoke-crash' -X POST "http://$ADDR/v1/jobs" -d "$FAILSPEC" >"$TMP/fail.json"
FAILJOB=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$TMP/fail.json" | head -1)
for i in $(seq 1 600); do
    STATE=$(curl -fsS "http://$ADDR/v1/jobs/$FAILJOB" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)
    [ "$STATE" = "failed" ] && break
    if [ "$i" = 600 ]; then
        echo "tlsd-smoke: budgeted job never failed (state=$STATE)" >&2
        exit 1
    fi
    sleep 0.1
done
FLIGHT=$(curl -fsS "http://$ADDR/v1/jobs/$FAILJOB" | sed -n 's/.*"flight_record": *"\([^"]*\)".*/\1/p' | head -1)
if [ -z "$FLIGHT" ] || [ ! -s "$FLIGHT" ]; then
    echo "tlsd-smoke: failed job has no flight-recorder dump (path='$FLIGHT')" >&2
    curl -fsS "http://$ADDR/v1/jobs/$FAILJOB" >&2
    exit 1
fi
case "$FLIGHT" in
*smoke-crash*) ;;
*)
    echo "tlsd-smoke: flight record $FLIGHT not named after the correlation ID" >&2
    exit 1
    ;;
esac

# The failure's repro line, run exactly as printed, must reproduce the
# failure locally: tlssim exits 1 and names the watchdog on stderr.
REPRO=$(curl -fsS "http://$ADDR/v1/jobs/$FAILJOB" |
    sed -n 's/.*"repro": *"\(\(\\.\|[^"\\]\)*\)".*/\1/p' | head -1 | sed 's/\\\(["\\]\)/\1/g')
STATUS=0
sh -c "$REPRO" >/dev/null 2>"$TMP/repro.err" || STATUS=$?
if [ "$STATUS" != 1 ] || ! grep -q watchdog "$TMP/repro.err"; then
    echo "tlsd-smoke: failure repro exited $STATUS without the watchdog failure: $REPRO" >&2
    cat "$TMP/repro.err" >&2
    exit 1
fi

# The structured log stream carries the lifecycle with correlation IDs.
for NEEDLE in '"msg":"job enqueued"' '"msg":"job completed"' '"msg":"job failed"' \
    "\"correlation_id\":\"$CORR\"" '"msg":"http access"' '"flight_record"'; do
    grep -q "$NEEDLE" "$TMP/tlsd.jsonl" || {
        echo "tlsd-smoke: structured log missing $NEEDLE" >&2
        cat "$TMP/tlsd.jsonl" >&2
        exit 1
    }
done

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$TLSD_PID"
STATUS=0
wait "$TLSD_PID" || STATUS=$?
if [ "$STATUS" != 0 ]; then
    echo "tlsd-smoke: daemon exited $STATUS on SIGTERM" >&2
    cat "$TMP/tlsd.log" "$TMP/tlsd.jsonl" >&2
    exit 1
fi
grep -q 'drained, bye' "$TMP/tlsd.log" || {
    echo "tlsd-smoke: no clean-drain message in log" >&2
    cat "$TMP/tlsd.log" >&2
    exit 1
}

# Warm restart: a fresh process over the same -cache-dir must serve the
# spec from byte one — a cache hit on the very first submission, the same
# bytes tlssim prints, and no build or simulation stage executed.
"$TMP/tlsd" -addr "$ADDR" -log-format json -flight-dir "$TMP/flight" \
    -cache-dir "$TMP/cas" >"$TMP/tlsd2.log" 2>"$TMP/tlsd2.jsonl" &
TLSD2_PID=$!
PIDS="$PIDS $TLSD2_PID"
for i in $(seq 1 100); do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
        break
    fi
    if [ "$i" = 100 ]; then
        echo "tlsd-smoke: restarted daemon never became ready" >&2
        cat "$TMP/tlsd2.log" "$TMP/tlsd2.jsonl" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS -D "$TMP/warm.hdr" -X POST "http://$ADDR/v1/jobs" -d "$SPEC" >"$TMP/warm.json"
if ! grep -qi '^X-Cache: hit' "$TMP/warm.hdr"; then
    echo "tlsd-smoke: warm restart did not serve from the persistent cache:" >&2
    cat "$TMP/warm.hdr" >&2
    exit 1
fi
if ! cmp -s "$TMP/warm.json" "$TMP/cli.json"; then
    echo "tlsd-smoke: disk-warm body differs from tlssim -json" >&2
    diff "$TMP/cli.json" "$TMP/warm.json" >&2 || true
    exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q '"cache_disk_hits": 1' || {
    echo "tlsd-smoke: /metrics does not show the disk-warm hit" >&2
    curl -fsS "http://$ADDR/metrics" >&2
    exit 1
}
curl -fsS -H 'Accept: text/plain' "http://$ADDR/metrics" >"$TMP/warm-metrics.prom"
grep -q '^tlsd_cache_disk_hits_total 1$' "$TMP/warm-metrics.prom" || {
    echo "tlsd-smoke: Prometheus exposition missing the disk-warm hit" >&2
    cat "$TMP/warm-metrics.prom" >&2
    exit 1
}
grep -Eq '^tlsd_cas_hit_total [1-9]' "$TMP/warm-metrics.prom" || {
    echo "tlsd-smoke: Prometheus exposition missing CAS hit counter" >&2
    cat "$TMP/warm-metrics.prom" >&2
    exit 1
}
if grep -Eq 'tlsd_job_stage_latency_microseconds_count\{stage="(build|sim)"\} [1-9]' "$TMP/warm-metrics.prom"; then
    echo "tlsd-smoke: warm restart ran build/sim work instead of serving from disk" >&2
    cat "$TMP/warm-metrics.prom" >&2
    exit 1
fi
PROMLINT_FILE="$TMP/warm-metrics.prom" go test -count=1 -run TestLintPromFile ./internal/telemetry >/dev/null || {
    echo "tlsd-smoke: warm-restart Prometheus exposition failed the format linter" >&2
    cat "$TMP/warm-metrics.prom" >&2
    exit 1
}
grep -q '"msg":"job disk-warm hit"' "$TMP/tlsd2.jsonl" || {
    echo "tlsd-smoke: structured log missing the disk-warm hit" >&2
    cat "$TMP/tlsd2.jsonl" >&2
    exit 1
}

# Restarted-variant leg: the cold run above published its SEQUENTIAL
# reference cycle count into the same cache dir; a variant of the spec
# (divergent sub-thread spacing) submitted to the restarted daemon must read
# its reference from disk and record its own program on one load and no
# SEQUENTIAL program (no clone) — byte-identical to tlssim -json for the
# variant, with the reference tier visible in the Prometheus exposition and
# the completion log line. The store holds results and references only: no
# job leaves a machine checkpoint (no snap namespace).
VARSPEC='{"benchmark":"NEW ORDER","experiment":"BASELINE","txns":3,"warmup":1,"spacing":2500}'
curl -fsS -X POST "http://$ADDR/v1/jobs?wait=1" -d "$VARSPEC" >"$TMP/variant.json"
"$TMP/tlssim" -benchmark "NEW ORDER" -experiment "BASELINE" -txns 3 -warmup 1 \
    -spacing 2500 -json >"$TMP/cli-variant.json"
if ! cmp -s "$TMP/variant.json" "$TMP/cli-variant.json"; then
    echo "tlsd-smoke: restarted variant's body differs from tlssim -json" >&2
    diff "$TMP/cli-variant.json" "$TMP/variant.json" >&2 || true
    exit 1
fi
curl -fsS -H 'Accept: text/plain' "http://$ADDR/metrics" >"$TMP/variant-metrics.prom"
for NEEDLE in '^tlsd_builder_reference_disk_hits_total 1$' '^tlsd_builder_builds_total 1$' \
    '^tlsd_builder_loads_total 1$' '^tlsd_builder_clones_total 0$'; do
    grep -q "$NEEDLE" "$TMP/variant-metrics.prom" || {
        echo "tlsd-smoke: Prometheus exposition missing $NEEDLE" >&2
        cat "$TMP/variant-metrics.prom" >&2
        exit 1
    }
done
PROMLINT_FILE="$TMP/variant-metrics.prom" go test -count=1 -run TestLintPromFile ./internal/telemetry >/dev/null || {
    echo "tlsd-smoke: restarted-variant Prometheus exposition failed the format linter" >&2
    cat "$TMP/variant-metrics.prom" >&2
    exit 1
}
grep '"msg":"job completed"' "$TMP/tlsd2.jsonl" | grep -q '"reference":"disk"' || {
    echo "tlsd-smoke: the variant's completion log line does not name a disk reference" >&2
    cat "$TMP/tlsd2.jsonl" >&2
    exit 1
}
if [ -e "$TMP/cas/snap" ]; then
    echo "tlsd-smoke: the store holds a snap namespace; no job should write a machine checkpoint" >&2
    ls -R "$TMP/cas" >&2
    exit 1
fi
kill -TERM "$TLSD2_PID"
STATUS=0
wait "$TLSD2_PID" || STATUS=$?
if [ "$STATUS" != 0 ]; then
    echo "tlsd-smoke: restarted daemon exited $STATUS on SIGTERM" >&2
    cat "$TMP/tlsd2.log" "$TMP/tlsd2.jsonl" >&2
    exit 1
fi

# Chaos leg: a daemon with the deterministic serving-fault schedule armed
# (disk errors, latency spikes, torn writes — over a fresh cache dir) must
# still serve bytes identical to tlssim -json, the injected faults must be
# visible in the Prometheus exposition, and the drain must stay clean.
"$TMP/tlsd" -addr "$ADDR" -log-format json \
    -cache-dir "$TMP/cas-chaos" -chaos 'seed=1,disk-err=3,slow=4,slow-ms=5,torn=3,panic=0' \
    >"$TMP/tlsd3.log" 2>"$TMP/tlsd3.jsonl" &
TLSD3_PID=$!
PIDS="$PIDS $TLSD3_PID"
for i in $(seq 1 100); do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
        break
    fi
    if [ "$i" = 100 ]; then
        echo "tlsd-smoke: chaos daemon never became ready" >&2
        cat "$TMP/tlsd3.log" "$TMP/tlsd3.jsonl" >&2
        exit 1
    fi
    sleep 0.1
done
grep -q 'CHAOS ARMED' "$TMP/tlsd3.log" || {
    echo "tlsd-smoke: chaos daemon did not announce its fault schedule" >&2
    cat "$TMP/tlsd3.log" >&2
    exit 1
}
# Three passes over the same spec walk every cache tier (cold, memory hit,
# and the faulted disk path); each must serve the exact CLI bytes.
for i in 1 2 3; do
    curl -fsS -X POST "http://$ADDR/v1/jobs?wait=1" -d "$SPEC" >"$TMP/chaos$i.json"
    if ! cmp -s "$TMP/chaos$i.json" "$TMP/cli.json"; then
        echo "tlsd-smoke: chaos-mode body $i differs from tlssim -json" >&2
        diff "$TMP/cli.json" "$TMP/chaos$i.json" >&2 || true
        exit 1
    fi
done
curl -fsS -H 'Accept: text/plain' "http://$ADDR/metrics" >"$TMP/chaos-metrics.prom"
grep -Eq '^tlsd_chaos_faults_total\{kind="(disk-err|disk-slow|torn-write)"\} [1-9]' "$TMP/chaos-metrics.prom" || {
    echo "tlsd-smoke: chaos run delivered no visible faults" >&2
    cat "$TMP/chaos-metrics.prom" >&2
    exit 1
}
grep -q '^tlsd_cas_breaker_state{state="' "$TMP/chaos-metrics.prom" || {
    echo "tlsd-smoke: Prometheus exposition missing the breaker state" >&2
    cat "$TMP/chaos-metrics.prom" >&2
    exit 1
}
PROMLINT_FILE="$TMP/chaos-metrics.prom" go test -count=1 -run TestLintPromFile ./internal/telemetry >/dev/null || {
    echo "tlsd-smoke: chaos Prometheus exposition failed the format linter" >&2
    cat "$TMP/chaos-metrics.prom" >&2
    exit 1
}
kill -TERM "$TLSD3_PID"
STATUS=0
wait "$TLSD3_PID" || STATUS=$?
if [ "$STATUS" != 0 ]; then
    echo "tlsd-smoke: chaos daemon exited $STATUS on SIGTERM" >&2
    cat "$TMP/tlsd3.log" "$TMP/tlsd3.jsonl" >&2
    exit 1
fi

echo "tlsd-smoke: ok (usage errors, job $JOB byte-identical, cache hit, clean exposition, flight record, clean drain, disk-warm restart, restarted variant with disk reference and no checkpoint, chaos leg)"
