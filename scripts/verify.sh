#!/bin/sh
# Full verification: vet, then the whole test suite under the race
# detector (this includes the fault-injection and failover tests, which
# exercise retry/failover paths concurrently with gpusim's goroutine
# threads).
set -eux

cd "$(dirname "$0")/.."

go vet ./...

# Project-specific invariant linter (internal/analysis suite): any
# finding — nondeterminism source, bare device op on a fault-aware
# path, broken ctx chain, untyped error check, lock held across a
# blocking call, leaked goroutine, mixed atomic/plain field access —
# fails the build. The stage is timed: the CFG/dataflow engine must
# stay cheap enough to run on every verification.
GPALINT_START=$(date +%s)
go run ./cmd/gpalint ./...
echo "gpalint sweep: $(( $(date +%s) - GPALINT_START ))s"

# The machine-readable output must stay valid JSON with the documented
# shape (a clean sweep is {"findings": [], "count": 0}), and the
# suppression audit must pass: every //gpalint:ignore names a
# registered analyzer and carries a reason.
go run ./cmd/gpalint -json ./... | jq -e '.findings == [] and .count == 0' > /dev/null
go run ./cmd/gpalint -ignores ./...

# Pinned staticcheck, when the module cache or network can supply it.
# Offline environments (no proxy access, tool not pre-fetched) skip it
# rather than fail — unless GPA_CI=1, where the toolchain is expected
# to be able to supply it and a skip would silently drop coverage.
STATICCHECK_VERSION=2024.1.1
if go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" -version >/dev/null 2>&1; then
    go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
elif [ "${GPA_CI:-0}" = "1" ]; then
    echo "staticcheck $STATICCHECK_VERSION unavailable but GPA_CI=1; failing" >&2
    exit 1
else
    echo "staticcheck $STATICCHECK_VERSION unavailable (offline); skipping"
fi

go test -race ./...

# Benchmark smoke: every benchmark (including the work-stealing
# pipeline and prefix-cache macro benchmarks) must run one iteration
# cleanly.
go test -run='^$' -bench=. -benchtime=1x ./...

# Alloc-regression gates. alloc_gate PKG BENCH fails unless one
# iteration of benchmark BENCH in PKG reports at most ALLOC_CEILING
# allocs/op.
ALLOC_CEILING=2000
alloc_gate() {
    local allocs
    allocs=$(go test -run='^$' -bench="$2" -benchmem -benchtime=1x "$1" \
        | awk '/allocs\/op/ { print $(NF-1); exit }')
    [ -n "$allocs" ]
    [ "$allocs" -le "$ALLOC_CEILING" ] || {
        echo "alloc gate: $2 reports $allocs allocs/op (ceiling $ALLOC_CEILING)" >&2
        exit 1
    }
    echo "alloc gate: $2 $allocs allocs/op <= $ALLOC_CEILING: OK"
}
# The pipeline's arena discipline holds steady-state mining to a few
# dozen allocations per T40I10D100K run (~40 measured; 55,278 before
# the arenas). The ceiling absorbs one-shot warmup noise (pool misses
# on a cold run) while still catching any real return of
# per-candidate allocation.
alloc_gate ./internal/apriori/ '^BenchmarkMinePipeline$/shape=T40I10D100K/workers=4$'
# The simulator's phase executor reuses one block's thread contexts
# per host worker: ~380 allocs per 256-candidate launch, against 25,885
# when every simulated thread was a goroutine. A return of per-thread
# allocation fails the gate.
alloc_gate . '^BenchmarkKernelSupportCounts$'

# Fuzz smoke: each hardened parser fuzzes for 10s (one target per
# invocation, as go test requires).
go test -fuzz='^FuzzRead$' -fuzztime=10s ./internal/resultio/
go test -fuzz='^FuzzRead$' -fuzztime=10s ./internal/dataset/
go test -fuzz='^FuzzReadNamed$' -fuzztime=10s ./internal/dataset/

# Kill/resume smoke: SIGKILL a checkpointing mine mid-run, resume it,
# and require the itemsets to be bit-identical to an uninterrupted run.
# (If the kill lands after completion the resume fast-forwards from the
# final checkpoint; the equality check is timing-independent.)
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/gpapriori" ./cmd/gpapriori
MINE="-dataset accidents -scale 0.3 -minsup 0.25 -algo cpu-bitset -json -top 0"

"$SMOKE/gpapriori" $MINE > "$SMOKE/oracle.json"

"$SMOKE/gpapriori" $MINE -checkpoint "$SMOKE/run.ckpt" > /dev/null 2>&1 &
PID=$!
sleep 0.8
kill -9 "$PID" 2>/dev/null || true
wait "$PID" || true

"$SMOKE/gpapriori" $MINE -checkpoint "$SMOKE/run.ckpt" -resume > "$SMOKE/resumed.json"

# Timings differ run to run; everything else must match exactly.
grep -v '_seconds"' "$SMOKE/oracle.json"  > "$SMOKE/oracle.cmp"
grep -v '_seconds"' "$SMOKE/resumed.json" > "$SMOKE/resumed.cmp"
diff -u "$SMOKE/oracle.cmp" "$SMOKE/resumed.cmp"
echo "kill/resume smoke: OK"

# Server request-decoder fuzz smoke: malformed or absurd requests must
# become typed 400s — never a panic, never an admitted job.
go test -fuzz='^FuzzDecodeMineRequest$' -fuzztime=10s ./internal/server/

# Serving smoke: boot the real daemon on a random port, mine the same
# dataset over HTTP and offline, and require the canonical results to
# be byte-identical; require the second identical request to hit the
# result cache; then SIGTERM and require a clean drain (exit 0).
go build -o "$SMOKE/gpaserve" ./cmd/gpaserve
"$SMOKE/gpaserve" -listen 127.0.0.1:0 -dataset chess=gen:chess:0.3 \
    -mem-mb 256 -cache-mb 16 -state-dir "$SMOKE/state" \
    -port-file "$SMOKE/port" > "$SMOKE/gpaserve.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/port" ] && break
    sleep 0.1
done
[ -s "$SMOKE/port" ]
ADDR=$(cat "$SMOKE/port")

"$SMOKE/gpapriori" -serve-url "http://$ADDR" -dataset chess \
    -minsup 0.8 -result-only > "$SMOKE/served.txt"
"$SMOKE/gpapriori" -dataset chess -scale 0.3 \
    -minsup 0.8 -result-only > "$SMOKE/offline.txt"
diff -u "$SMOKE/offline.txt" "$SMOKE/served.txt"

"$SMOKE/gpapriori" -serve-url "http://$ADDR" -dataset chess \
    -minsup 0.8 -quiet -serve-stats > "$SMOKE/stats.txt"
grep -q 'hits=1' "$SMOKE/stats.txt"

kill -TERM "$SRV_PID"
wait "$SRV_PID"
grep -q 'drained' "$SMOKE/gpaserve.log"
echo "serving smoke: OK"

# Crashpoint chaos smoke: arm a daemon to SIGKILL itself at its first
# checkpoint save, drive it with the retrying client, restart it on the
# same address, and require the client-recovered result to be
# byte-identical to the offline run. The full per-crashpoint matrix
# lives in the cmd/gpaserve torture test; this proves the wiring end to
# end from the shipped binaries.
GPAPRIORI_CRASHPOINT=checkpoint.after-rename "$SMOKE/gpaserve" \
    -listen 127.0.0.1:0 -dataset d=gen:chess:1.0 -state-dir "$SMOKE/chaos" \
    -port-file "$SMOKE/chaosport" > "$SMOKE/chaos1.log" 2>&1 &
CRASH_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/chaosport" ] && break
    sleep 0.1
done
[ -s "$SMOKE/chaosport" ]
CHAOS_ADDR=$(cat "$SMOKE/chaosport")

"$SMOKE/gpapriori" -serve-url "http://$CHAOS_ADDR" -dataset d \
    -algo goethals -minsup 0.45 -maxlen 5 -result-only \
    -retry-max 10 -retry-base-ms 100 -retry-jitter 0.2 -retry-seed 1 \
    > "$SMOKE/chaos-served.txt" &
CLIENT_PID=$!

# The daemon must die by its own SIGKILL (wait reports 137).
set +e
wait "$CRASH_PID"
CRASH_STATUS=$?
set -e
[ "$CRASH_STATUS" -eq 137 ]

"$SMOKE/gpaserve" -listen "$CHAOS_ADDR" -dataset d=gen:chess:1.0 \
    -state-dir "$SMOKE/chaos" > "$SMOKE/chaos2.log" 2>&1 &
SRV2_PID=$!

wait "$CLIENT_PID"

"$SMOKE/gpapriori" -dataset chess -scale 1.0 \
    -algo goethals -minsup 0.45 -maxlen 5 -result-only > "$SMOKE/chaos-offline.txt"
diff -u "$SMOKE/chaos-offline.txt" "$SMOKE/chaos-served.txt"

kill -TERM "$SRV2_PID"
wait "$SRV2_PID"
echo "crashpoint chaos smoke: OK"

# Overload smoke: boot a deliberately tiny daemon (one worker, short
# queue, no cache so every job mines for real), drive it with gpaload
# well above capacity with chaos mixed in, and hold it to the overload
# contract: gpaload exits non-zero on any 5xx outside the 503
# shed/drain protocol, any 429/503 without a Retry-After pacing hint,
# or any result divergence between identical queries. The daemon must
# then still drain cleanly — overload must not corrupt shutdown.
go build -o "$SMOKE/gpaload" ./cmd/gpaload
"$SMOKE/gpaserve" -listen 127.0.0.1:0 \
    -dataset hot=quest:80:3000:10:1 -dataset cold=quest:80:3000:10:2 \
    -workers 1 -queue 4 -cache-mb 0 -mem-mb 512 \
    -sojourn-target 300ms -sojourn-interval 600ms \
    -port-file "$SMOKE/loadport" > "$SMOKE/overload.log" 2>&1 &
LOAD_SRV_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/loadport" ] && break
    sleep 0.1
done
[ -s "$SMOKE/loadport" ]
LOAD_ADDR=$(cat "$SMOKE/loadport")

"$SMOKE/gpaload" -target "http://$LOAD_ADDR" \
    -duration 5s -rate 12 -burst 8 -burst-every 2s \
    -relative-support 0.15 -retries 3 \
    -drop-frac 0.1 -slow-frac 0.1 -slow-delay 50ms \
    -seed 1 -out "$SMOKE/slo.json"

# The report must show the daemon actually refused work under the
# burst (paced, not errored) and that nothing slipped through unpaced.
python3 - "$SMOKE/slo.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["arrivals"] > 0 and r["completed"] > 0, r
assert r["refusals"] > 0, "never oversubscribed: %s" % r
assert r["server_errors"] == 0, r
assert r["retry_after_missing"] == 0, r
assert r["result_hash_mismatches"] == 0, r
assert r["failed"] == 0, r
PY

kill -TERM "$LOAD_SRV_PID"
wait "$LOAD_SRV_PID"
grep -q 'drained' "$SMOKE/overload.log"
echo "overload smoke: OK"

# Multi-node cluster smoke: boot a 3-peer cluster (replication 2),
# submit through a peer that does not own the dataset and require the
# forwarded result to be byte-identical to the offline run; resubmit
# through the co-owner and require the answer to come from a peer cache
# replica; then kill -9 the primary owner mid-job and require the
# retrying client — still talking to the non-owner — to recover the
# identical result, the surviving owner to report degraded, and the
# survivors to drain cleanly.
CL_PORTS=$(python3 - <<'PY'
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
PY
)
set -- $CL_PORTS
CL_PEERS="http://127.0.0.1:$1,http://127.0.0.1:$2,http://127.0.0.1:$3"
for P in "$@"; do
    "$SMOKE/gpaserve" -listen "127.0.0.1:$P" -dataset d=gen:chess:1.0 \
        -state-dir "$SMOKE/cl$P" -cache-mb 16 \
        -peers "$CL_PEERS" -self "http://127.0.0.1:$P" -replication 2 \
        -probe-interval 100ms -suspect-after 2 -recover-after 1 \
        -port-file "$SMOKE/clport$P" > "$SMOKE/cl$P.log" 2>&1 &
done
for P in "$@"; do
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/clport$P" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE/clport$P" ]
done

# Placement is deterministic; read it from /statsz and classify the
# peers: primary owner, secondary owner, non-owner.
CL_ROLES=$(python3 - "$@" <<'PY'
import json, sys, urllib.request
ports = sys.argv[1:4]
urls = ["http://127.0.0.1:%s" % p for p in ports]
st = json.load(urllib.request.urlopen(urls[0] + "/statsz"))
owners = st["cluster"]["placement"]["d"]
non = [p for p, u in zip(ports, urls) if u not in owners][0]
print(ports[urls.index(owners[0])], ports[urls.index(owners[1])], non)
PY
)
set -- $CL_ROLES
CL_PRIM=$1; CL_SEC=$2; CL_NON=$3

# 1. Forwarded submit through the non-owner == offline bytes.
"$SMOKE/gpapriori" -serve-url "http://127.0.0.1:$CL_NON" -dataset d \
    -minsup 0.8 -result-only > "$SMOKE/cluster-served.txt"
"$SMOKE/gpapriori" -dataset chess -scale 1.0 \
    -minsup 0.8 -result-only > "$SMOKE/cluster-offline.txt"
diff -u "$SMOKE/cluster-offline.txt" "$SMOKE/cluster-served.txt"
python3 - "$CL_NON" <<'PY'
import json, sys, urllib.request
st = json.load(urllib.request.urlopen("http://127.0.0.1:%s/statsz" % sys.argv[1]))
assert st["cluster"]["forwarded_jobs"] >= 1, st["cluster"]
PY

# 2. Resubmit through the co-owner: answered from the primary's cache
# over the peer-cache protocol, installing a local replica.
"$SMOKE/gpapriori" -serve-url "http://127.0.0.1:$CL_SEC" -dataset d \
    -minsup 0.8 -result-only > "$SMOKE/cluster-resub.txt"
diff -u "$SMOKE/cluster-offline.txt" "$SMOKE/cluster-resub.txt"
python3 - "$CL_SEC" <<'PY'
import json, sys, urllib.request
st = json.load(urllib.request.urlopen("http://127.0.0.1:%s/statsz" % sys.argv[1]))
assert st["cluster"]["cache_peer_hits"] >= 1, st["cluster"]
PY

# 3. Kill -9 the primary owner mid-job; the retrying client through the
# non-owner must still recover the byte-identical result (the job fails
# over to a surviving replica).
"$SMOKE/gpapriori" -serve-url "http://127.0.0.1:$CL_NON" -dataset d \
    -algo goethals -minsup 0.45 -maxlen 5 -result-only \
    -retry-max 10 -retry-base-ms 100 -retry-jitter 0.2 -retry-seed 1 \
    > "$SMOKE/cluster-chaos.txt" &
CL_CLIENT_PID=$!
sleep 1
CL_PRIM_PID=$(pgrep -f -- "-listen 127.0.0.1:$CL_PRIM")
kill -9 "$CL_PRIM_PID"
wait "$CL_CLIENT_PID"
diff -u "$SMOKE/chaos-offline.txt" "$SMOKE/cluster-chaos.txt"

# 4. The surviving co-owner now holds the only replica of a dataset it
# owns: its health must degrade, not lie with "ok".
python3 - "$CL_SEC" <<'PY'
import json, sys, time, urllib.request
deadline = time.time() + 10
while True:
    h = json.load(urllib.request.urlopen("http://127.0.0.1:%s/healthz" % sys.argv[1]))
    if h["status"] == "degraded":
        assert "d" in h["cluster"]["degraded_datasets"], h
        break
    assert time.time() < deadline, "survivor never degraded: %s" % h
    time.sleep(0.2)
PY

# 5. Survivors drain cleanly.
for P in "$CL_SEC" "$CL_NON"; do
    PID=$(pgrep -f -- "-listen 127.0.0.1:$P")
    kill -TERM "$PID"
    while kill -0 "$PID" 2>/dev/null; do sleep 0.1; done
    grep -q 'drained' "$SMOKE/cl$P.log"
done
echo "cluster smoke: OK"
