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
# a variant of the spec must then run its SEQUENTIAL reference again,
# recording its own program and the reference program on one load and its
# clone, and the store must hold results only. Before any of that, usage
# errors must exit 2.
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
# parsing stops there, so every flag after it would be dropped silently),
# a worker pool or queue below 1, a negative job or drain timeout, and
# unknown flags: the job fields tlsd takes only from the spec (a job's
# digest depends on its request body alone), and -chaos (only tests inject
# disk faults, through the store's fault seam).
for ARGS in "-log-format json stray -workers 3 -queue 9" "-workers -4" "-queue 0" \
    "-job-timeout -1s" "-drain-timeout -1s" \
    "-paranoid" "-inject seed=1" "-max-cycles 5" "-chaos on"; do
    STATUS=0
    # shellcheck disable=SC2086 # ARGS is split into words on purpose
    timeout 5 "$TMP/tlsd" -addr "$ADDR" $ARGS >/dev/null 2>"$TMP/usage.err" || STATUS=$?
    if [ "$STATUS" != 2 ]; then
        echo "tlsd-smoke: tlsd $ARGS exited $STATUS, want usage error 2" >&2
        cat "$TMP/usage.err" >&2
        exit 1
    fi
    case "$ARGS" in
    -paranoid* | -inject* | -max-cycles* | -chaos*)
        if ! grep -q 'flag provided but not defined' "$TMP/usage.err"; then
            echo "tlsd-smoke: tlsd $ARGS is not an unknown flag" >&2
            cat "$TMP/usage.err" >&2
            exit 1
        fi
        ;;
    esac
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
grep -q '^tlsd_cas_breaker_state{state="' "$TMP/warm-metrics.prom" || {
    echo "tlsd-smoke: Prometheus exposition missing the breaker state" >&2
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

# Restarted-variant leg: the store keeps results only, so a variant of the
# spec (divergent sub-thread spacing) submitted to the restarted daemon must
# run its SEQUENTIAL reference again, exactly as a novel job does: one
# database load and its clone record its own program and the one-use
# reference program. Its body must be byte-identical to tlssim -json for
# the variant, the reference run must show in the Prometheus exposition and
# the completion log line, and the cache dir must hold no directory but
# result: no job stores a reference or a machine checkpoint.
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
for NEEDLE in '^tlsd_builder_reference_runs_total 1$' '^tlsd_builder_builds_total 2$' \
    '^tlsd_builder_loads_total 1$' '^tlsd_builder_clones_total 1$'; do
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
grep '"msg":"job completed"' "$TMP/tlsd2.jsonl" | grep -q '"reference":"run"' || {
    echo "tlsd-smoke: the variant's completion log line does not name a reference run" >&2
    cat "$TMP/tlsd2.jsonl" >&2
    exit 1
}
OTHER=$(find "$TMP/cas" -mindepth 1 -maxdepth 1 -type d ! -name result)
if [ -n "$OTHER" ]; then
    echo "tlsd-smoke: the store holds namespaces besides result: $OTHER" >&2
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

echo "tlsd-smoke: ok (usage errors, job $JOB byte-identical, cache hit, clean exposition, flight record, clean drain, disk-warm restart, restarted variant with a reference run and a results-only store)"
