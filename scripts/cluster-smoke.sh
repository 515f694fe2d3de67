#!/bin/sh
# End-to-end smoke test of the cluster layer (CI "cluster smoke" step):
# start two tlsd workers peered to each other's caches plus a tlsrouter in
# front, route a job through the router and require the served bytes to be
# byte-identical to `tlssim -json`; pull the digest through a worker's
# remote cache tier (the cross-process -peers wiring); give up on a routed
# ?wait=1 job mid-run and require the router to eject no worker and fail
# over nowhere; kill the digest's owner and require the router to fail
# over to the surviving replica, which serves the digest byte-identically
# as a cache hit; finally scrape the router's /metrics in both JSON and
# Prometheus form and lint the tlsrouter_* exposition. First, a stray word among either command's flags,
# a tuning flag tlsrouter no longer has, and a URL listed twice in either
# command's list must exit 2.
set -e
cd "$(dirname "$0")/.."

ADDR_A=127.0.0.1:18090
ADDR_B=127.0.0.1:18091
ADDR_R=127.0.0.1:18092
SPEC='{"benchmark":"NEW ORDER","experiment":"BASELINE","txns":3,"warmup":1}'
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
go build -o "$TMP/tlsrouter" ./cmd/tlsrouter
go build -o "$TMP/tlssim" ./cmd/tlssim

# A stray word is a usage error (exit 2 at once): flag parsing stops there,
# so a second unquoted URL would otherwise drop every flag after it and the
# command would serve on its defaults. tlsrouter's ring and prober settings
# are constants, so a flag that once set one is a usage error too. A
# sibling or worker listed twice is a typo, never a weight.
for CMD in "tlsd -addr $ADDR_A -peers http://127.0.0.1:1 http://127.0.0.1:2 -workers 3 -queue 9" \
    "tlsrouter -workers http://127.0.0.1:1 stray -addr $ADDR_R" \
    "tlsrouter -vnodes 64 -workers http://127.0.0.1:1" \
    "tlsd -addr $ADDR_A -peers http://127.0.0.1:1,http://127.0.0.1:1/" \
    "tlsrouter -addr $ADDR_R -workers http://127.0.0.1:1,http://127.0.0.1:1"; do
    STATUS=0
    # shellcheck disable=SC2086 # CMD is split into words on purpose
    timeout 5 "$TMP"/$CMD >/dev/null 2>"$TMP/usage.err" || STATUS=$?
    if [ "$STATUS" != 2 ]; then
        echo "cluster-smoke: $CMD exited $STATUS, want usage error 2" >&2
        cat "$TMP/usage.err" >&2
        exit 1
    fi
done

"$TMP/tlsd" -addr "$ADDR_A" -log-format json -cache-dir "$TMP/cas-a" \
    -peers "http://$ADDR_B" >"$TMP/a.log" 2>"$TMP/a.jsonl" &
PID_A=$!
PIDS="$PIDS $PID_A"
"$TMP/tlsd" -addr "$ADDR_B" -log-format json -cache-dir "$TMP/cas-b" \
    -peers "http://$ADDR_A" >"$TMP/b.log" 2>"$TMP/b.jsonl" &
PID_B=$!
PIDS="$PIDS $PID_B"
"$TMP/tlsrouter" -addr "$ADDR_R" -log-format json \
    -workers "http://$ADDR_A,http://$ADDR_B" \
    >"$TMP/r.log" 2>"$TMP/r.jsonl" &
PID_R=$!
PIDS="$PIDS $PID_R"

for HOST in "$ADDR_A" "$ADDR_B" "$ADDR_R"; do
    for i in $(seq 1 100); do
        if curl -fsS "http://$HOST/readyz" >/dev/null 2>&1; then
            break
        fi
        if [ "$i" = 100 ]; then
            echo "cluster-smoke: $HOST never became ready" >&2
            cat "$TMP"/*.log "$TMP"/*.jsonl >&2
            exit 1
        fi
        sleep 0.1
    done
done

# Route a job through the router; the result must be byte-identical to the
# CLI, and X-Served-By names the digest's owner.
curl -fsS -D "$TMP/routed.hdr" -H 'X-Correlation-ID: cluster-smoke-1' \
    -X POST "http://$ADDR_R/v1/jobs?wait=1" -d "$SPEC" >"$TMP/routed.json"
"$TMP/tlssim" -benchmark "NEW ORDER" -experiment "BASELINE" -txns 3 -warmup 1 -json >"$TMP/cli.json"
if ! cmp -s "$TMP/routed.json" "$TMP/cli.json"; then
    echo "cluster-smoke: routed result differs from tlssim -json" >&2
    diff "$TMP/cli.json" "$TMP/routed.json" >&2 || true
    exit 1
fi
if ! grep -qi '^X-Correlation-ID: cluster-smoke-1' "$TMP/routed.hdr"; then
    echo "cluster-smoke: correlation ID not echoed by the router:" >&2
    cat "$TMP/routed.hdr" >&2
    exit 1
fi
OWNER=$(sed -n 's/^X-Served-By: *\(http[^[:space:]]*\).*/\1/pi' "$TMP/routed.hdr" | head -1 | tr -d '\r')
if [ -z "$OWNER" ]; then
    echo "cluster-smoke: no X-Served-By on the routed response:" >&2
    cat "$TMP/routed.hdr" >&2
    exit 1
fi
if [ "$OWNER" = "http://$ADDR_A" ]; then
    SURVIVOR="http://$ADDR_B"
    OWNER_PID=$PID_A
else
    SURVIVOR="http://$ADDR_A"
    OWNER_PID=$PID_B
fi
echo "cluster-smoke: digest owner $OWNER, survivor $SURVIVOR"

# Submit the same spec directly to the non-owner: its memory and disk
# tiers miss, and the -peers remote tier must fetch the owner's bytes.
curl -fsS -D "$TMP/remote.hdr" -X POST "$SURVIVOR/v1/jobs?wait=1" -d "$SPEC" >"$TMP/remote.json"
if ! grep -qi '^X-Cache: hit' "$TMP/remote.hdr" || ! grep -qi '^X-Cache-Tier: remote' "$TMP/remote.hdr"; then
    echo "cluster-smoke: non-owner did not serve from the remote cache tier:" >&2
    cat "$TMP/remote.hdr" >&2
    exit 1
fi
if ! cmp -s "$TMP/remote.json" "$TMP/cli.json"; then
    echo "cluster-smoke: remote-tier body differs from tlssim -json" >&2
    exit 1
fi

# A client that gives up says nothing about the worker: a routed ?wait=1
# job that runs longer than the client waits (curl exits 28 on its
# timeout) must leave both workers alive, with no failover and no ring
# change, once the router has let go of the submission.
LONG='{"benchmark":"NEW ORDER","txns":32,"warmup":1,"seed":7}'
STATUS=0
curl -sS --max-time 0.2 -X POST "http://$ADDR_R/v1/jobs?wait=1" -d "$LONG" >/dev/null 2>&1 || STATUS=$?
if [ "$STATUS" != 28 ]; then
    echo "cluster-smoke: client-timeout leg: curl exited $STATUS, want its timeout (28)" >&2
    exit 1
fi
for i in $(seq 1 50); do
    curl -fsS "http://$ADDR_R/metrics" >"$TMP/gaveup.json"
    [ "$(grep -Ec '"load": *0[,}]?$' "$TMP/gaveup.json")" = 2 ] && break
    sleep 0.1
done
if [ "$(grep -Ec '"alive": *true' "$TMP/gaveup.json")" != 2 ] ||
    ! grep -Eq '"failovers": *0,' "$TMP/gaveup.json" ||
    ! grep -Eq '"ring_rebalances": *0,' "$TMP/gaveup.json"; then
    echo "cluster-smoke: a client's timeout ejected a worker or failed over:" >&2
    cat "$TMP/gaveup.json" >&2
    exit 1
fi

# Kill the owner. The router's proxy to it fails, so it fails over to the
# survivor, which holds the digest since its remote-tier fetch above: a
# cache hit with the CLI's bytes, never an error or a recompute.
kill -9 "$OWNER_PID" 2>/dev/null
wait "$OWNER_PID" 2>/dev/null || true
curl -fsS -D "$TMP/failover.hdr" -X POST "http://$ADDR_R/v1/jobs?wait=1" -d "$SPEC" >"$TMP/failover.json"
if ! cmp -s "$TMP/failover.json" "$TMP/cli.json"; then
    echo "cluster-smoke: post-owner-death body differs from tlssim -json" >&2
    diff "$TMP/cli.json" "$TMP/failover.json" >&2 || true
    exit 1
fi
if ! grep -qi '^X-Cache: hit' "$TMP/failover.hdr"; then
    echo "cluster-smoke: the failover worker did not serve the warm digest as a hit:" >&2
    cat "$TMP/failover.hdr" >&2
    exit 1
fi
SERVED_BY=$(sed -n 's/^X-Served-By: *\(http[^[:space:]]*\).*/\1/pi' "$TMP/failover.hdr" | head -1 | tr -d '\r')
if [ "$SERVED_BY" = "$OWNER" ]; then
    echo "cluster-smoke: dead owner allegedly served the failover:" >&2
    cat "$TMP/failover.hdr" >&2
    exit 1
fi

# Router metrics: the JSON view knows both workers; the Prometheus view
# carries the tlsrouter_* families and passes the in-repo linter.
curl -fsS "http://$ADDR_R/metrics" >"$TMP/metrics.json"
grep -q '"jobs_routed"' "$TMP/metrics.json" || {
    echo "cluster-smoke: router JSON metrics missing jobs_routed" >&2
    cat "$TMP/metrics.json" >&2
    exit 1
}
curl -fsS -H 'Accept: text/plain' "http://$ADDR_R/metrics" >"$TMP/metrics.prom"
for FAMILY in tlsrouter_build_info tlsrouter_nodes_alive \
    tlsrouter_jobs_routed_total tlsrouter_ring_rebalances_total tlsrouter_probes_total; do
    grep -q "^$FAMILY" "$TMP/metrics.prom" || {
        echo "cluster-smoke: Prometheus exposition missing $FAMILY" >&2
        cat "$TMP/metrics.prom" >&2
        exit 1
    }
done
grep -Eq '^tlsrouter_jobs_routed_total [1-9]' "$TMP/metrics.prom" || {
    echo "cluster-smoke: router counted no routed jobs" >&2
    cat "$TMP/metrics.prom" >&2
    exit 1
}
PROMLINT_FILE="$TMP/metrics.prom" go test -count=1 -run TestLintPromFile ./internal/telemetry >/dev/null || {
    echo "cluster-smoke: tlsrouter exposition failed the format linter" >&2
    cat "$TMP/metrics.prom" >&2
    exit 1
}

# Clean shutdown of the survivors.
kill -TERM "$PID_R"
STATUS=0
wait "$PID_R" || STATUS=$?
if [ "$STATUS" != 0 ]; then
    echo "cluster-smoke: router exited $STATUS on SIGTERM" >&2
    cat "$TMP/r.log" "$TMP/r.jsonl" >&2
    exit 1
fi
if [ "$OWNER_PID" = "$PID_A" ]; then
    SURVIVOR_PID=$PID_B
else
    SURVIVOR_PID=$PID_A
fi
kill -TERM "$SURVIVOR_PID"
STATUS=0
wait "$SURVIVOR_PID" || STATUS=$?
if [ "$STATUS" != 0 ]; then
    echo "cluster-smoke: surviving worker exited $STATUS on SIGTERM" >&2
    cat "$TMP"/*.log "$TMP"/*.jsonl >&2
    exit 1
fi

echo "cluster-smoke: ok (usage errors, routed byte-identical, remote tier, client timeout ejects nothing, owner-death failover hit, clean tlsrouter exposition)"
