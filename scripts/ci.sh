#!/usr/bin/env bash
# Offline CI gate for the relcheck workspace.
#
# Runs the tier-1 verification (release build + root test suite) plus the
# full workspace tests, docs, formatting, and lint checks. Everything here works
# without network access: the workspace has no external dependencies and
# CARGO_NET_OFFLINE is forced below as a belt-and-braces guard.
#
# Usage: scripts/ci.sh [--quick]
#   --quick   skip the workspace and perfbench test passes

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

step() { echo; echo "==> $*"; }

# Every temporary path this script makes, removed on exit however it
# exits. `tmp VAR [-d] TEMPLATE` makes one with mktemp and registers it;
# a derived path (`$X.verdicts`) is registered with `TEMPS+=(...)`.
TEMPS=()
trap 'rm -rf "${TEMPS[@]}"' EXIT
tmp() {
    local path
    path="$(mktemp "${@:2}")"
    TEMPS+=("$path")
    printf -v "$1" '%s' "$path"
}

step "test suites: no crate-level #![cfg(...)] gates"
# A suite gated off at crate level compiles to nothing, so its failures
# can never show; every integration test file must build and run here.
if grep -rn --include='*.rs' '^[[:space:]]*#!\[cfg(' crates/*/tests tests; then
    echo "integration test files above are gated off by a crate-level #![cfg(...)]" >&2
    exit 1
fi

step "tier-1: release build"
cargo build --release

step "tier-1: root test suite"
cargo test -q

if [ "$QUICK" -eq 0 ]; then
    step "full workspace tests"
    cargo test -q --workspace

    # perfbench/ is a workspace of its own, so the pass above never reaches
    # its tests; exact_counts.rs is the one that checks op counts repeat and
    # every benchmark answer is right.
    step "perfbench tests"
    CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
        --manifest-path perfbench/Cargo.toml

    # The deadline tests escalate their input until a compile outlives the
    # deadline; an optimised build needs the larger sizes, so run them
    # optimised too.
    step "resilience suite, release build"
    cargo test --release -q -p relcheck-core --test resilience
fi

step "metrics smoke: relcheck run --metrics on testdata/ + schema validation"
# phones.spec contains deliberate violations, so `run` exits 1 (violations
# found). Exit 2 is an operational error and must fail CI.
tmp METRICS_OUT /tmp/relcheck-metrics.XXXXXX.json
set +e
cargo run --release --quiet --bin relcheck -- \
    run testdata/phones.spec --metrics "$METRICS_OUT"
rc=$?
set -e
if [ "$rc" -ge 2 ]; then
    echo "relcheck run failed operationally (exit $rc)" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- metrics-check "$METRICS_OUT"

step "plan smoke: relcheck plan on the example suite + determinism"
# Two planning runs over the same spec must emit byte-identical output
# (fingerprints included) — the fingerprints certificates stamp.
tmp PLAN_A /tmp/relcheck-plan-a.XXXXXX.txt
tmp PLAN_B /tmp/relcheck-plan-b.XXXXXX.txt
cargo run --release --quiet --bin relcheck -- plan testdata/phones.spec > "$PLAN_A"
cargo run --release --quiet --bin relcheck -- plan testdata/phones.spec > "$PLAN_B"
cmp "$PLAN_A" "$PLAN_B"
# Plan bytes are pinned: both renderings must match the committed goldens
# (regenerate them only for a change that is meant to alter plans).
cmp "$PLAN_A" testdata/phones.plan.txt
cargo run --release --quiet --bin relcheck -- plan testdata/phones.spec --json \
    | cmp - testdata/phones.plan.json
# A second spec pins the negation lift on a ∀∃ inclusion of its own
# (supplier-city-known folds ∀s ¬CITIES back into ¬∃s CITIES).
cargo run --release --quiet --bin relcheck -- plan testdata/dialect.spec \
    | cmp - testdata/dialect.plan.txt
# CSV dialect golden: testdata/dialect.spec loads CSVs with a header, CRLF
# line endings, quoted fields with commas and "" escapes, and blank lines.
# Its `run` output (per-constraint timings stripped) is pinned byte for byte.
set +e
cargo run --release --quiet --bin relcheck -- run testdata/dialect.spec > "$PLAN_B"
rc=$?
set -e
if [ "$rc" -ge 2 ]; then
    echo "relcheck run on testdata/dialect.spec failed operationally (exit $rc)" >&2
    exit 1
fi
awk '{sub(/ in [0-9].*$/,"")}1' "$PLAN_B" | cmp - testdata/dialect.run.txt
for want in "passes:" "bdd step:" "sql step:" "ladder: bdd"; do
    if ! grep -q "$want" "$PLAN_A"; then
        echo "plan output missing '$want'" >&2
        exit 1
    fi
done
# The run's metrics document validates.
set +e
cargo run --release --quiet --bin relcheck -- \
    run testdata/phones.spec --metrics "$METRICS_OUT" >"$PLAN_A"
rc=$?
set -e
if [ "$rc" -ge 2 ]; then
    echo "relcheck run failed operationally (exit $rc)" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- metrics-check "$METRICS_OUT"

step "path differential: BDD vs SQL verdicts on every testdata/*.spec"
# Each committed spec decided twice, once on the BDD logical indices and
# once strictly through the translated SQL plans: the verdict lines (name
# and verdict) must be identical, and the first run must really have
# stayed on the BDD rung for the comparison to mean anything.
tmp BDD_OUT /tmp/relcheck-bdd.XXXXXX.txt
tmp SQL_OUT /tmp/relcheck-sql.XXXXXX.txt
for spec in testdata/*.spec; do
    for mode in bdd sql; do
        out="$BDD_OUT"; extra=""
        if [ "$mode" = sql ]; then out="$SQL_OUT"; extra="--sql"; fi
        set +e
        # shellcheck disable=SC2086 # $extra is empty or one flag
        cargo run --release --quiet --bin relcheck -- \
            run "$spec" $extra >"$out"
        rc=$?
        set -e
        if [ "$rc" -ge 2 ]; then
            echo "$mode run on $spec failed operationally (exit $rc)" >&2
            exit 1
        fi
    done
    if ! grep -q " via " "$BDD_OUT" || grep " via " "$BDD_OUT" | grep -qv " via Bdd "; then
        echo "the BDD run must decide every constraint of $spec on the BDD rung" >&2
        exit 1
    fi
    diff <(grep " via " "$BDD_OUT" | awk '{print $1, $2}') \
        <(grep " via " "$SQL_OUT" | awk '{print $1, $2}')
done
rm -f "$BDD_OUT" "$SQL_OUT"

step "ordering smoke: every --ordering prints the same run report"
# The variable ordering changes node counts, never an answer: for each
# committed spec, every strategy `run` accepts must print the report and
# the listed tuples of the default prob-converge run byte for byte (the
# per-constraint timings stripped). A removed strategy is a usage error.
tmp REF_OUT /tmp/relcheck-ordering-ref.XXXXXX.txt
tmp ORD_OUT /tmp/relcheck-ordering.XXXXXX.txt
TEMPS+=("$REF_OUT.raw" "$ORD_OUT.raw")
for spec in testdata/*.spec; do
    for ordering in prob-converge max-inf-gain min-cond-entropy schema random; do
        out="$ORD_OUT"
        if [ "$ordering" = prob-converge ]; then out="$REF_OUT"; fi
        set +e
        cargo run --release --quiet --bin relcheck -- \
            run "$spec" --ordering "$ordering" >"$out.raw"
        rc=$?
        set -e
        if [ "$rc" -ge 2 ]; then
            echo "run on $spec under --ordering $ordering failed (exit $rc)" >&2
            exit 1
        fi
        awk '{sub(/ in [0-9].*$/,"")}1' "$out.raw" >"$out"
        rm -f "$out.raw"
        if [ "$ordering" = prob-converge ]; then ref_rc=$rc; fi
        if [ "$rc" -ne "$ref_rc" ]; then
            echo "--ordering $ordering exits $rc on $spec, prob-converge $ref_rc" >&2
            exit 1
        fi
        if [ "$ordering" != prob-converge ] && ! cmp -s "$REF_OUT" "$ORD_OUT"; then
            echo "--ordering $ordering changed the run report of $spec" >&2
            diff "$REF_OUT" "$ORD_OUT" >&2 || true
            exit 1
        fi
    done
done
set +e
cargo run --release --quiet --bin relcheck -- \
    run testdata/phones.spec --ordering adaptive >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "--ordering adaptive should be a usage error (exit 2, got $rc)" >&2
    exit 1
fi
rm -f "$REF_OUT" "$ORD_OUT"

step "fault-injection smoke: each failpoint site, fixed seed"
# Fire every site at probability 1 with a fixed seed; the run must still
# terminate cleanly (exit 0 — injected faults are reported as DEGRADED/
# ERRORED, not as violations — or exit 1 when the surviving constraints
# include the fixture's genuine violations), the metrics document must
# stay schema-valid, and the degradation section must record the firing.
# Snapshots are decoded only when a warm start imports them, so the
# snapshot-decode run reads an index cache a clean run filled first.
tmp FAULT_CACHE -d /tmp/relcheck-fault-cache.XXXXXX
set +e
cargo run --release --quiet --bin relcheck -- \
    run testdata/phones.spec --index-cache "$FAULT_CACHE" >/dev/null
rc=$?
set -e
if [ "$rc" -ge 2 ]; then
    echo "filling the fault-injection index cache failed (exit $rc)" >&2
    exit 1
fi
for site in index-build snapshot-decode apply sql-fallback; do
    spec="$site=1"
    extra=""
    # The sql-fallback site only fires once the ladder actually reaches the
    # SQL rung, so knock out the BDD rung alongside it.
    if [ "$site" = sql-fallback ]; then spec="apply=1,sql-fallback=1"; fi
    if [ "$site" = snapshot-decode ]; then extra="--index-cache $FAULT_CACHE"; fi
    set +e
    # shellcheck disable=SC2086 # $extra is empty or one flag and its value
    cargo run --release --quiet --bin relcheck -- \
        run testdata/phones.spec $extra \
        --fail-spec "$spec" --fail-seed 20070415 \
        --metrics "$METRICS_OUT" >/dev/null
    rc=$?
    set -e
    if [ "$rc" -ge 2 ]; then
        echo "fault-injection run for site $site failed operationally (exit $rc)" >&2
        exit 1
    fi
    cargo run --release --quiet --bin relcheck -- metrics-check "$METRICS_OUT"
    if ! grep -q "\"failpoints\":{\"seed\":\"20070415\"" "$METRICS_OUT"; then
        echo "metrics for site $site missing the armed failpoint seed" >&2
        exit 1
    fi
    if ! grep -q "{\"site\":\"$site\",\"count\":[1-9]" "$METRICS_OUT"; then
        echo "metrics for site $site record no firing at that site" >&2
        exit 1
    fi
done
rm -rf "$FAULT_CACHE"

step "crash-recovery smoke: index cache warm starts, kills, and recovery"
# The warm-start differential: a second run against the same cache must
# hit every segment and produce byte-identical verdict lines; a run whose
# cache was torn apart by failpoint kills must auto-rebuild (recorded in
# the metrics index_cache section) and still produce the cold verdicts.
tmp CACHE_DIR -d /tmp/relcheck-cache.XXXXXX
tmp COLD_OUT /tmp/relcheck-cold.XXXXXX.txt
tmp WARM_OUT /tmp/relcheck-warm.XXXXXX.txt
TEMPS+=("$COLD_OUT.verdicts" "$WARM_OUT.verdicts")

run_cached() { # run_cached <outfile> [extra args...]
    local out="$1"; shift
    set +e
    cargo run --release --quiet --bin relcheck -- \
        run testdata/phones.spec --index-cache "$CACHE_DIR" \
        --metrics "$METRICS_OUT" "$@" >"$out"
    rc=$?
    set -e
    if [ "$rc" -ge 2 ]; then
        echo "cached run failed operationally (exit $rc)" >&2
        exit 1
    fi
    cargo run --release --quiet --bin relcheck -- metrics-check "$METRICS_OUT"
}

# Cold run populates the cache; keep only the verdict lines for diffing.
run_cached "$COLD_OUT"
cold_rc=$rc
grep " via " "$COLD_OUT" | awk '{print $1, $2, $4}' > "$COLD_OUT.verdicts"

# Warm run: every relation must hit, verdicts must be byte-identical.
run_cached "$WARM_OUT"
if [ "$rc" -ne "$cold_rc" ]; then
    echo "warm run exit code $rc differs from cold $cold_rc" >&2
    exit 1
fi
grep " via " "$WARM_OUT" | awk '{print $1, $2, $4}' > "$WARM_OUT.verdicts"
diff "$COLD_OUT.verdicts" "$WARM_OUT.verdicts"
if ! grep -q '"index_cache":{"hits":2,"misses":0,"rebuilds":0' "$METRICS_OUT"; then
    echo "warm run did not hit both cached segments" >&2
    exit 1
fi

# Kill mid-segment-write: `index build` under an armed segment-write
# failpoint leaves torn segments that the manifest already references.
# The next cached run must detect both, rebuild, and match cold verdicts.
rm -rf "$CACHE_DIR"; mkdir -p "$CACHE_DIR"
set +e
cargo run --release --quiet --bin relcheck -- \
    index build testdata/phones.spec --index-cache "$CACHE_DIR" \
    --fail-spec segment-write=1 --fail-seed 20070415 >/dev/null
set -e
run_cached "$WARM_OUT"
grep " via " "$WARM_OUT" | awk '{print $1, $2, $4}' > "$WARM_OUT.verdicts"
diff "$COLD_OUT.verdicts" "$WARM_OUT.verdicts"
if ! grep -q '"rebuilds":2' "$METRICS_OUT"; then
    echo "torn segments were not rebuilt" >&2
    exit 1
fi
if ! grep -q '"reason":"segment_corrupt"' "$METRICS_OUT"; then
    echo "metrics record no segment_corrupt recovery" >&2
    exit 1
fi

# Kill mid-journal-append: `index apply` dies half-way through the record
# (the delta is not acknowledged). Recovery truncates the torn tail and
# the cached run converges on the original cold verdicts.
set +e
cargo run --release --quiet --bin relcheck -- \
    index apply testdata/phones.spec --index-cache "$CACHE_DIR" \
    '+CUSTOMERS:Oshawa,905,ON' \
    --fail-spec journal-append=1 --fail-seed 20070415 >/dev/null
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "torn journal append should report an operational error (got $rc)" >&2
    exit 1
fi
run_cached "$WARM_OUT"
grep " via " "$WARM_OUT" | awk '{print $1, $2, $4}' > "$WARM_OUT.verdicts"
diff "$COLD_OUT.verdicts" "$WARM_OUT.verdicts"
if ! grep -q '"reason":"journal_torn"' "$METRICS_OUT"; then
    echo "metrics record no journal_torn recovery" >&2
    exit 1
fi

# A healthy apply folds deltas durably: verify reports every relation ok.
# (The tuple is NOT in the base data, so insert-then-delete is net zero;
# deltas touching existing rows would genuinely change the database.)
cargo run --release --quiet --bin relcheck -- \
    index apply testdata/phones.spec --index-cache "$CACHE_DIR" \
    '+CUSTOMERS:Oshawa,416,ON' '-CUSTOMERS:Oshawa,416,ON' >/dev/null
cargo run --release --quiet --bin relcheck -- \
    index verify testdata/phones.spec --index-cache "$CACHE_DIR" >/dev/null
run_cached "$WARM_OUT"
grep " via " "$WARM_OUT" | awk '{print $1, $2, $4}' > "$WARM_OUT.verdicts"
diff "$COLD_OUT.verdicts" "$WARM_OUT.verdicts"

# Manifest rolled back behind its segments, as a crash between a segment
# rename and the manifest commit leaves it: the apply's fresh CUSTOMERS
# segment folds two journal records the restored manifest does not know.
# `index verify` runs warm start's own check, so it must fail and name
# segment_corrupt, and the next cached run must rebuild to cold verdicts.
rm -rf "$CACHE_DIR"; mkdir -p "$CACHE_DIR"
cargo run --release --quiet --bin relcheck -- \
    index build testdata/phones.spec --index-cache "$CACHE_DIR" >/dev/null
cp "$CACHE_DIR/manifest" "$CACHE_DIR.manifest"
cargo run --release --quiet --bin relcheck -- \
    index apply testdata/phones.spec --index-cache "$CACHE_DIR" \
    '+CUSTOMERS:Oshawa,416,ON' '-CUSTOMERS:Oshawa,416,ON' >/dev/null
mv "$CACHE_DIR.manifest" "$CACHE_DIR/manifest"
set +e
cargo run --release --quiet --bin relcheck -- \
    index verify testdata/phones.spec --index-cache "$CACHE_DIR" >"$WARM_OUT"
rc=$?
set -e
if [ "$rc" -ne 1 ] || ! grep -q "segment_corrupt" "$WARM_OUT"; then
    echo "index verify passed a manifest rolled back behind its segment (exit $rc)" >&2
    cat "$WARM_OUT" >&2
    exit 1
fi
run_cached "$WARM_OUT"
grep " via " "$WARM_OUT" | awk '{print $1, $2, $4}' > "$WARM_OUT.verdicts"
diff "$COLD_OUT.verdicts" "$WARM_OUT.verdicts"
if ! grep -q '"reason":"segment_corrupt"' "$METRICS_OUT"; then
    echo "metrics record no segment_corrupt recovery after the manifest rollback" >&2
    exit 1
fi

step "serve smoke: scripted incremental session vs batch recheck"
# A scripted session: a delta dirties CITY_STATE, so the check must
# re-verify only the two constraints reading it and answer the two
# CUSTOMERS-only constraints from cache; then the inverse delta and a
# second check. Both tuple values are already in CITY_STATE's blocks, so
# both checks patch the cached CITY_STATE atoms (an insert, then a
# delete) instead of leaving the BDD rung. A last delta and check end the
# session on a changed state: Selkirk and MB are outside CITY_STATE's
# frozen blocks, so that delta is journaled, degrades to the SQL rung,
# and the batch run's warm start must rebuild wider blocks to replay it.
# The session's final verdicts (name + status) must match a batch
# `relcheck run` over the same cache — the journaled deltas make the
# batch run see the session's final state.
tmp SERVE_DIR -d /tmp/relcheck-serve.XXXXXX
tmp SERVE_OUT /tmp/relcheck-serve.XXXXXX.txt
tmp BATCH_OUT /tmp/relcheck-batch.XXXXXX.txt
TEMPS+=("$SERVE_OUT.verdicts" "$BATCH_OUT.verdicts")
set +e
printf '+CITY_STATE:Newark,NY\ncheck\n-CITY_STATE:Newark,NY\ncheck\n+CITY_STATE:Selkirk,MB\ncheck\nstats\nquit\n' | \
    cargo run --release --quiet --bin relcheck -- \
    serve testdata/phones.spec --index-cache "$SERVE_DIR" \
    --metrics "$METRICS_OUT" >"$SERVE_OUT"
rc=$?
set -e
if [ "$rc" -ge 2 ]; then
    echo "relcheck serve failed operationally (exit $rc)" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- metrics-check "$METRICS_OUT"
if ! grep -q '"serve":{"requests":8,"deltas":3,"checks":3,"constraints_checked":6,"constraints_skipped":6' "$METRICS_OUT"; then
    echo "serve metrics missing the expected session counters" >&2
    exit 1
fi
if ! grep -q 'ok check checked=2 skipped=2 dirty=1' "$SERVE_OUT"; then
    echo "serve session did not skip the read-set-disjoint constraints" >&2
    exit 1
fi
# `stats` reports the arena next to the session counters: live nodes, the
# nodes the collection rule counts as kept, and collections so far.
if ! grep -Eq '^ok stats .* live_nodes=[0-9]+ kept_nodes=[0-9]+ gc_runs=[0-9]+$' "$SERVE_OUT"; then
    echo "serve stats reply lacks live_nodes/kept_nodes/gc_runs" >&2
    exit 1
fi
set +e
cargo run --release --quiet --bin relcheck -- \
    run testdata/phones.spec --index-cache "$SERVE_DIR" >"$BATCH_OUT"
rc=$?
set -e
if [ "$rc" -ge 2 ]; then
    echo "batch recheck of the serve cache failed operationally (exit $rc)" >&2
    exit 1
fi
grep " via " "$BATCH_OUT" | awk '{print $1, $2}' | sort > "$BATCH_OUT.verdicts"
# The session answered three checks; its final verdicts are the last ones.
grep ' (checked)\| (cached)' "$SERVE_OUT" | tail -n "$(wc -l < "$BATCH_OUT.verdicts")" \
    | awk '{print $1, $2}' | sort > "$SERVE_OUT.verdicts"
diff "$SERVE_OUT.verdicts" "$BATCH_OUT.verdicts"
rm -f "$SERVE_OUT.verdicts" "$BATCH_OUT.verdicts"

step "overload smoke: 8 concurrent socket clients vs a depth-1 queue"
# A deliberately starved server: queue depth 1, 8 clients hammering it
# with certify/check traffic. The server must reject under the load,
# decide every admitted check on the BDD rung as an idle server does,
# keep every decided verdict correct, drain gracefully on quit, and emit
# a metrics document whose overload counters validate.
tmp OVER_DIR -d /tmp/relcheck-overload.XXXXXX
SOCK="$OVER_DIR/relcheck.sock"
BIN=./target/release/relcheck
"$BIN" serve testdata/phones.spec --socket "$SOCK" \
    --queue-depth 1 --max-sessions 8 \
    --idle-timeout-ms 10000 --metrics "$OVER_DIR/metrics.json" \
    >"$OVER_DIR/server.out" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && break
    sleep 0.05
done
if [ ! -S "$SOCK" ]; then
    echo "overload server never opened its socket" >&2
    cat "$OVER_DIR/server.out" >&2
    exit 1
fi
# Stale-socket guard: a second server against the *live* socket must
# refuse with a typed operational error, not steal the path.
set +e
"$BIN" serve testdata/phones.spec --socket "$SOCK" </dev/null \
    >"$OVER_DIR/second.out" 2>&1
rc=$?
set -e
if [ "$rc" -lt 2 ] || ! grep -q "already serving" "$OVER_DIR/second.out"; then
    echo "second server did not refuse the live socket (exit $rc)" >&2
    exit 1
fi
if [ ! -S "$SOCK" ]; then
    echo "refused server unlinked the live socket" >&2
    exit 1
fi
CLIENT_PIDS=""
for i in $(seq 1 8); do
    printf 'certify\ncheck\ncertify\ncheck\ncertify\ncheck\ncertify\ncheck\ncertify\ncheck\ncertify\ncheck\n' | \
        "$BIN" connect "$SOCK" >"$OVER_DIR/client$i.out" 2>&1 &
    CLIENT_PIDS="$CLIENT_PIDS $!"
done
# shellcheck disable=SC2086 # word-splitting the pid list is intended
wait $CLIENT_PIDS
# Quiet final client: its decided verdicts are the endpoint to diff.
printf 'check\nquit\n' | "$BIN" connect "$SOCK" >"$OVER_DIR/final.out"
set +e
wait "$SERVER_PID"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    # phones.spec plants violations: a graceful drain exits 1.
    echo "overloaded server should drain and exit 1 (got $rc)" >&2
    cat "$OVER_DIR/server.out" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- metrics-check "$OVER_DIR/metrics.json"
if ! grep -Eq '"overload":\{"admitted":[1-9]' "$OVER_DIR/metrics.json"; then
    echo "overload metrics block missing or empty" >&2
    exit 1
fi
if grep -q '"shed"' "$OVER_DIR/metrics.json"; then
    echo "overload metrics still carry the removed shed counter" >&2
    exit 1
fi
if ! grep -Eq '"rejected":[1-9]' "$OVER_DIR/metrics.json"; then
    echo "starved server never rejected a request" >&2
    exit 1
fi
# Load never picks the rung: every certificate a client received was
# decided on the BDD rung.
if ! grep -hq '^{' "$OVER_DIR"/client*.out; then
    echo "no overload client received a certificate" >&2
    exit 1
fi
if grep -h '^{' "$OVER_DIR"/client*.out | grep -vq '"rung":"bdd"'; then
    echo "a certificate under load left the BDD rung" >&2
    grep -h '^{' "$OVER_DIR"/client*.out | grep -v '"rung":"bdd"' | head -3 >&2
    exit 1
fi
# Under all that load, the decided verdicts must match a batch run.
grep ' (checked)\| (cached)' "$OVER_DIR/final.out" | awk '{print $1, $2}' | sort \
    > "$OVER_DIR/final.verdicts"
set +e
"$BIN" run testdata/phones.spec >"$OVER_DIR/batch.out"
rc=$?
set -e
if [ "$rc" -ge 2 ]; then
    echo "overload batch reference failed operationally (exit $rc)" >&2
    exit 1
fi
grep " via " "$OVER_DIR/batch.out" | awk '{print $1, $2}' | sort \
    > "$OVER_DIR/batch.verdicts"
diff "$OVER_DIR/final.verdicts" "$OVER_DIR/batch.verdicts"

# Fault-armed stdin regression: a journal that tears on every append
# exhausts the retry budget, degrades the delta to rows-only — reply
# marked `durable=false` — and the session still answers exactly (the
# dirtied relation re-checks on the SQL rung, the rest stay cached).
# The reply bytes and retry count are deterministic.
set +e
printf '+CITY_STATE:Selkirk,MB\ncheck\nquit\n' | \
    "$BIN" serve testdata/phones.spec --index-cache "$OVER_DIR/fault-cache" \
    --fail-spec journal-append=1 --fail-seed 20070415 \
    --metrics "$OVER_DIR/fault.json" >"$OVER_DIR/fault.out"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "fault-armed serve should exit 1 on the violation fixture (got $rc)" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- metrics-check "$OVER_DIR/fault.json"
if ! grep -q 'ok delta +CITY_STATE applied=true dirty=1 durable=false' "$OVER_DIR/fault.out"; then
    echo "retry-exhausted delta reply missing the durable=false marker" >&2
    exit 1
fi
if ! grep -q 'ok check checked=2 skipped=2 dirty=1' "$OVER_DIR/fault.out"; then
    echo "fault-armed session lost read-set-driven skipping" >&2
    exit 1
fi
if ! grep -Eq '"overload":\{"admitted":3,"rejected":0,"retries":3' "$OVER_DIR/fault.json"; then
    echo "fault-armed session metrics missing the absorbed retries" >&2
    exit 1
fi

step "audit smoke: run → certify → verify → tamper → expect rejection"
# The trust-but-verify loop end to end: a certified run writes a bundle
# whose every decided certificate passes the independent re-check; a
# single-character tamper of a witness value must be rejected (exit 1
# from `audit verify`, with the typed error on the offending line).
tmp BUNDLE /tmp/relcheck-bundle.XXXXXX.json
tmp TAMPERED /tmp/relcheck-tampered.XXXXXX.json
tmp AUDIT_OUT /tmp/relcheck-audit.XXXXXX.txt
set +e
cargo run --release --quiet --bin relcheck -- \
    run testdata/phones.spec --certify "$BUNDLE" --metrics "$METRICS_OUT" >/dev/null
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    # phones.spec plants violations: exit 1 is the certified-violations
    # outcome; 0 would mean the fixture lost them, >=2 an operational or
    # self-verification failure.
    echo "certified run should exit 1 on the violation fixture (got $rc)" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- metrics-check "$METRICS_OUT"
if ! grep -q '"audit":{"emitted":4,"verified":4,"failed":0' "$METRICS_OUT"; then
    echo "run metrics missing the audit block" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- \
    audit verify testdata/phones.spec "$BUNDLE" >"$AUDIT_OUT"
if ! grep -q '4 verified, 0 unauditable, 0 failed' "$AUDIT_OUT"; then
    echo "audit verify did not validate every certificate" >&2
    exit 1
fi
# `audit emit` must reproduce a bundle that verifies identically, and
# its bytes must equal the committed golden (witnesses, counts and
# fingerprints all pinned).
cargo run --release --quiet --bin relcheck -- \
    audit emit testdata/phones.spec "$TAMPERED" >/dev/null
if ! cmp "$TAMPERED" testdata/phones.certs.json; then
    echo "audit emit bytes differ from testdata/phones.certs.json" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- \
    audit verify testdata/phones.spec "$TAMPERED" >/dev/null
# A second golden: testdata/dialect.spec has three violated ∀ constraints
# with atom-local columns, whose witnesses the BDD path recovers from the
# check's projected compile.
cargo run --release --quiet --bin relcheck -- \
    audit emit testdata/dialect.spec "$TAMPERED" >/dev/null
if ! cmp "$TAMPERED" testdata/dialect.certs.json; then
    echo "audit emit bytes differ from testdata/dialect.certs.json" >&2
    exit 1
fi
cargo run --release --quiet --bin relcheck -- \
    audit verify testdata/dialect.spec "$TAMPERED" >"$AUDIT_OUT"
if ! grep -q '4 verified, 0 unauditable, 0 failed' "$AUDIT_OUT"; then
    echo "audit verify did not validate every dialect certificate" >&2
    exit 1
fi
# Tamper one witness value (the 212 prefix violation becomes 213, a
# value outside the areacode domain) and expect the typed rejection.
sed 's/{"int":212}/{"int":213}/' "$BUNDLE" > "$TAMPERED"
if cmp -s "$BUNDLE" "$TAMPERED"; then
    echo "tamper sed matched nothing; fixture witnesses changed?" >&2
    exit 1
fi
set +e
cargo run --release --quiet --bin relcheck -- \
    audit verify testdata/phones.spec "$TAMPERED" >"$AUDIT_OUT"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "tampered bundle must fail audit verify with exit 1 (got $rc)" >&2
    exit 1
fi
if ! grep -q 'FAILED' "$AUDIT_OUT"; then
    echo "tampered bundle rejection missing the FAILED line" >&2
    exit 1
fi

step "metrics schema smoke: metrics-check accepts exactly schema 14"
# The audit smoke's certified run left a complete metrics document (its
# audit block included) in $METRICS_OUT.
if ! grep -q '"schema_version":14' "$METRICS_OUT"; then
    echo "run metrics is not schema v14" >&2
    exit 1
fi
for removed in policy threads fleet telemetry_enabled total_ns; do
    if grep -q "\"$removed\":" "$METRICS_OUT"; then
        echo "run metrics still carries the removed $removed field" >&2
        exit 1
    fi
done
# Schema 13 dropped the retry rung and its fallback reason.
for removed in gc_retry retry_exhausted; do
    if grep -q "\"$removed\"" "$METRICS_OUT"; then
        echo "run metrics still names the removed $removed" >&2
        exit 1
    fi
done
if ! grep -q '"bdd":{"peak_nodes":' "$METRICS_OUT"; then
    echo "run metrics lacks the run-level bdd block" >&2
    exit 1
fi
# The validator reads exactly the schema the writer emits: the same
# document relabelled as an older or a newer schema_version, a constraint
# whose trace is null, a method its ladder's last rung contradicts, and a
# hostile nesting depth, must each be rejected as an error (exit 2),
# never crash the process (134 is a stack-overflow abort).
tmp NEG_DOC /tmp/relcheck-neg.XXXXXX.json
expect_rejected() { # expect_rejected <label>
    set +e
    "$BIN" metrics-check "$NEG_DOC" >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" -ne 2 ]; then
        echo "metrics-check on $1 should exit 2 (got $rc)" >&2
        exit 1
    fi
}
neg_edit() { # neg_edit <label> <sed-expression>: NEG_DOC := edited METRICS_OUT
    sed "$2" "$METRICS_OUT" >"$NEG_DOC"
    if cmp -s "$METRICS_OUT" "$NEG_DOC"; then
        echo "$1 rewrite matched nothing" >&2
        exit 1
    fi
    expect_rejected "$1"
}
for version in 13 15; do
    neg_edit "a schema_version $version document" \
        "s/\"schema_version\":14/\"schema_version\":$version/"
done
# The first constraint's trace becomes null (its object is kept under
# another key, so the document stays well-formed).
neg_edit "a null trace" 's/"trace":{/"trace":null,"untraced":{/'
# The first constraint decides on the BDD rung; relabel its method.
neg_edit "a ladder/method mismatch" 's/"method":"bdd"/"method":"sql_fallback"/'
# Schema 12's retry rung and reason are unknown; a ladder runs in order.
neg_edit "a gc_retry rung" 's/"ladder":\["bdd"\]/"ladder":["gc_retry","bdd"]/'
neg_edit "a retry_exhausted reason" \
    's/"fallback":null/"fallback":{"reason":"retry_exhausted","limit":1,"live":1}/'
neg_edit "an out-of-order ladder" 's/"ladder":\["bdd"\]/"ladder":["sql","bdd"]/'
head -c 100000 /dev/zero | tr '\0' '[' >"$NEG_DOC"
expect_rejected "a 100000-deep array"
rm -f "$NEG_DOC"

if [ "$QUICK" -eq 0 ]; then
    step "chaos soak: serve-mode fault injection + certificate audits (~10 s)"
    RELCHECK_CHAOS_SOAK_MS="${RELCHECK_CHAOS_SOAK_MS:-10000}" \
        cargo test --release -q -p relcheck-core --test chaos -- --ignored
fi

step "experiment smoke: table1 and fig6 at small size + metrics validation"
# The figure binaries still run end to end: table1 at 2,000 tuples, which
# with --metrics writes the metrics document `relcheck run --metrics`
# emits for Q1-Q5; that document must validate. fig6 asserts that the fused `app_exists` /
# `app_forall` the compiler quantifies with build the same BDDs as the
# separate and pushed-down forms. fig3 prints no timings, only the ordering
# heuristics' accuracy, so two runs must print the same bytes: the
# heuristics are deterministic, whatever order the generators' hash sets
# hand them rows in.
tmp TABLE1_METRICS /tmp/relcheck-table1.XXXXXX.json
tmp FIG3_A /tmp/relcheck-fig3-a.XXXXXX.txt
tmp FIG3_B /tmp/relcheck-fig3-b.XXXXXX.txt
cargo run --release --quiet -p relcheck-bench --bin table1 -- \
    --tuples 2000 --metrics "$TABLE1_METRICS" >/dev/null
cargo run --release --quiet --bin relcheck -- metrics-check "$TABLE1_METRICS"
cargo run --release --quiet -p relcheck-bench --bin fig6 -- \
    --steps 1 --base 2000 >/dev/null
for out in "$FIG3_A" "$FIG3_B"; do
    cargo run --release --quiet -p relcheck-bench --bin fig3 -- \
        --tuples 2000 --relations 3 >"$out"
done
cmp "$FIG3_A" "$FIG3_B"

step "docs (cargo doc, warnings denied)"
# A public doc that links a private item, or an intra-doc link that no
# longer resolves, fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "formatting (cargo fmt --check)"
cargo fmt --all --check

step "lints (cargo clippy -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo
echo "ci.sh: all checks passed"
