#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
#
#   ./scripts/ci.sh
#
# Mirrors what reviewers run before merging; keep it green. The vendored
# API-subset crates under vendor/ are workspace-excluded, so fmt/clippy
# sweeps only touch first-party code.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The sharded engine forbids unwrap() outright (deny(clippy::unwrap_used)
# at the engine module root, which covers the frame and exec submodules);
# guard the attribute so a refactor can't silently drop it.
echo "==> engine unwrap_used deny guard"
grep -q '^#!\[deny(clippy::unwrap_used)\]' crates/core/src/engine/mod.rs || {
    echo "crates/core/src/engine/mod.rs must keep #![deny(clippy::unwrap_used)]" >&2
    exit 1
}

# The untrusted-input parsers go further: no unwrap() *or* expect() at all
# outside #[cfg(test)] in frame.rs (hostile bytes), ecc.rs (GF(256)
# reconstruction feeds on damaged frames), reader.rs (streaming bytes
# straight off a pipe), plan.rs (the one frame walker classifying hostile
# slots), exec.rs (the executor under every job, with its panic
# isolation) and cancel.rs (the cancellation token checked on every
# worker's hot path) — every failure there must be a typed error or a
# poisoned result slot, never an abort. The whole serve crate is held to
# the same bar: every byte it parses arrived over a socket from an
# untrusted peer (including the chaos proxy, which feeds itself torn
# writes on purpose), and a panic in a handler thread is a denial of
# service for every tenant. archive.rs and scrub.rs join the list: they
# parse epoch indexes and stored blobs that may have rotted on disk for
# months, and a panic there takes the whole archive tier down instead of
# surfacing a typed Degraded/Lost verdict. crc.rs checksums every one of
# those byte streams, resync probes on hostile bytes included. decode.rs
# parses the payload bits of every CRC-valid segment a word at a time,
# and a hostile writer chooses those bits. stream.rs holds the input
# window and the output accumulator that every decode and every encode
# runs through, serve's compress op on client-chosen trits included.
# salvage.rs runs the repair and salvage rungs on hostile frames: it maps
# damaged plan entries onto parity-group slots and parses every rebuilt
# shard, so a panic there turns a repairable frame into an abort.
echo "==> frame/crc/ecc/reader/plan/exec/cancel/salvage/archive/scrub/decode/stream/serve no-unwrap/expect guard"
for f in crates/core/src/engine/frame.rs crates/core/src/engine/crc.rs \
         crates/core/src/engine/ecc.rs crates/core/src/engine/reader.rs \
         crates/core/src/engine/plan.rs crates/core/src/engine/exec.rs \
         crates/core/src/engine/cancel.rs crates/core/src/engine/salvage.rs \
         crates/core/src/engine/archive.rs crates/core/src/engine/scrub.rs \
         crates/core/src/decode.rs crates/core/src/stream.rs \
         crates/serve/src/*.rs; do
    head=$(sed '/#\[cfg(test)\]/q' "$f")
    if echo "$head" | grep -nE '\.(unwrap|expect)\(' >&2; then
        echo "$f: unwrap()/expect() outside #[cfg(test)] is forbidden" >&2
        exit 1
    fi
done

# Code size, for information: the counts use the guard's cut above, and
# no bound is checked on them.
echo "==> line counts (scripts/loc.sh)"
./scripts/loc.sh

echo "==> cargo build --release"
cargo build --release

# Rustdoc is warning-free for every first-party package (intra-doc links
# resolve, none is redundant). Packages are named one by one because
# `--workspace` would also document the vendored crates.
echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps \
    -p ninec-suite -p ninec -p ninec-testdata -p ninec-circuit -p ninec-fsim \
    -p ninec-atpg -p ninec-synth -p ninec-baselines -p ninec-decompressor \
    -p ninec-bench -p ninec-bist -p ninec-obs -p ninec-serve -p ninec-cli

# Paper-table drift guard: the committed snapshot in results/ must be
# byte-for-byte what the `tables` bin prints at this commit (both runs
# are deterministic and independent of the thread count). When a change
# moves a number on purpose, regenerate both files with the commands in
# results/README.md and update EXPERIMENTS.md in the same change.
echo "==> paper tables drift guard"
cargo build -q --release -p ninec-bench --bin tables
tablesdir="$(mktemp -d)"
trap 'rm -rf "$tablesdir"' EXIT
./target/release/tables all > "$tablesdir/tables.txt"
./target/release/tables --json table2 table4 table5 table6 table7 table8 \
    > "$tablesdir/tables.json"
cmp results/tables.txt "$tablesdir/tables.txt"
cmp results/tables.json "$tablesdir/tables.json"
rm -rf "$tablesdir"

# Golden-file bless switches rewrite the goldens they guard and pass; an
# exported one would turn every run below into a silent re-bless.
unset CORPUS_BLESS OBS_BLESS OUTCOME_BLESS

# Run the suite at both ends of the engine's thread spectrum: one thread,
# where the calling thread runs every job, and an oversubscribed executor.
# Output must be identical (the differential suite asserts byte-identity;
# this catches anything thread-count-sensitive that only manifests at
# runtime).
echo "==> cargo test -q (NINEC_THREADS=1)"
NINEC_THREADS=1 cargo test -q

echo "==> cargo test -q (NINEC_THREADS=8)"
NINEC_THREADS=8 cargo test -q

# The vendored proptest runs 64 cases per property by default. The
# codec's differential suites (word encoder against the scalar
# reference at every K and case policy, chunked against one-shot, the
# telemetry counters against the stats, the engine's parallel and
# in-place decodes against the serial stream, damaged frames' repair and
# salvage included, and the ladder's repair and salvage reports at 1
# and 8 threads) get 1024, and so does the recorder's span-pairing
# property, whose stack discipline every span in the workspace goes
# through.
echo "==> codec differentials, ladder and span pairing (PROPTEST_CASES=1024)"
PROPTEST_CASES=1024 cargo test -q --test streaming --test obs_differential \
    --test engine_differential --test ladder_equivalence --test trace_properties

# The root `cargo test` runs only the ninec-suite facade. Run the member
# crates' own tests (core's engine units, serve's service, chaos and soak
# suites, the obs crate's tests) too, at both thread counts.
echo "==> cargo test -q --workspace --exclude ninec-suite (NINEC_THREADS=1)"
NINEC_THREADS=1 cargo test -q --workspace --exclude ninec-suite

echo "==> cargo test -q --workspace --exclude ninec-suite (NINEC_THREADS=8)"
NINEC_THREADS=8 cargo test -q --workspace --exclude ninec-suite

# The executor's cancellation, panic and index-order tests at an
# oversubscribed thread count: a job claimed out of index order or a
# result slot out of place is a CI failure, not a flake.
echo "==> executor cancellation, panic and index-order tests (NINEC_THREADS=8)"
NINEC_THREADS=8 cargo test -q -p ninec --lib engine::exec::

# Fault-injection suite with the deterministic fail points armed: forced
# worker panics, delays and torn writes inside the pool, at 1 and 8
# threads (the feature only exists in test builds; see crates/core).
echo "==> cargo test -q --test fault_injection --features failpoints"
cargo test -q --test fault_injection --features failpoints

# Archive crash-safety at every byte boundary: the failpoints build arms
# the `arc` kill site so the torn-append sweep can abort a child append
# at each write offset and prove the prior epoch still reads (the
# default-feature mutation/truncation sweeps already ran under the
# workspace suites above).
echo "==> cargo test -q --test archive_fault_injection --features failpoints"
cargo test -q --test archive_fault_injection --features failpoints

# Tenant isolation under load: a hostile tenant hammering the service
# from several connections must not disturb a clean tenant, with the
# engine's worker pool explicitly oversubscribed under the wire path.
# The failpoints variant additionally injects a worker panic inside the
# decode pool and asserts it stays a per-request typed failure.
echo "==> tenant isolation (NINEC_THREADS=8)"
NINEC_THREADS=8 cargo test -q -p ninec-serve --test tenant_isolation
NINEC_THREADS=8 cargo test -q -p ninec-serve --test tenant_isolation \
    --features failpoints

# The client-deadline chaos test arms a per-segment delay fail point so
# its 1 ms budget is overrun by construction; it only exists in the
# failpoints build.
echo "==> chaos suite --features failpoints"
cargo test -q -p ninec-serve --test chaos --features failpoints

# The benchmark's own self-test: every workload at a tiny size, the
# printed metric names checked against BENCHMARK.json, and a corrupted
# expected output must fail the run — so the one timing harness is
# built and checked on every CI run. --locked turns a stale
# benchmark/Cargo.lock into a failure instead of a silent rewrite.
echo "==> benchmark self-test"
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

# Release-binary smoke test of the stats plumbing on a tiny CKT profile:
# generate -> compress --stats json must emit a JSON document with the
# encode counters in it.
echo "==> ninec --stats smoke test"
cargo build -q --release -p ninec-cli
smokedir="$(mktemp -d)"
trap 'kill "${serve_pid:-}" "${proxy_pid:-}" 2>/dev/null || true; rm -rf "$smokedir"' EXIT
./target/release/ninec generate custom:8,64,75 -o "$smokedir/t.cubes" >/dev/null
# Capture to a file first: `| grep -q` would close the pipe at the first
# match and race ninec's remaining writes into a broken-pipe i/o error.
./target/release/ninec compress "$smokedir/t.cubes" -o "$smokedir/t.te" \
    --stats json > "$smokedir/stats.json"
grep -q '"ninec.encode.blocks"' "$smokedir/stats.json"
./target/release/ninec compress "$smokedir/t.cubes" -o "$smokedir/t.te" \
    --stats text > "$smokedir/stats.txt"
grep -q '^# TYPE ninec_encode_blocks counter' "$smokedir/stats.txt"

# Span-listing smoke test: --trace-spans lists the command's span, the
# engine's call-level span under it and the executor's jobs from the
# flight recorder (same capture-to-file-first rationale as above).
echo "==> ninec --trace-spans smoke test"
./target/release/ninec --trace-spans compress "$smokedir/t.cubes" \
    -o "$smokedir/ts.9cf" --threads 4 --segment-bits 128 > "$smokedir/spans.txt"
grep -q ' cli_compress$' "$smokedir/spans.txt"
grep -q ' engine_encode_frame$' "$smokedir/spans.txt"
grep -q ' job$' "$smokedir/spans.txt"

# Parallel-engine smoke test: a 9CSF frame written with --threads 4 must
# be byte-identical to the serial one and decompress back losslessly.
echo "==> ninec --threads smoke test"
./target/release/ninec compress "$smokedir/t.cubes" -o "$smokedir/t4.9cf" \
    --threads 4 --segment-bits 128 >/dev/null
./target/release/ninec compress "$smokedir/t.cubes" -o "$smokedir/t1.9cf" \
    --threads 1 --segment-bits 128 >/dev/null
cmp "$smokedir/t4.9cf" "$smokedir/t1.9cf"
./target/release/ninec decompress "$smokedir/t4.9cf" -o "$smokedir/back.cubes" \
    --threads 4 --fill keep >/dev/null
# info now prints the multi-line per-segment plan, so capture to a file
# before grepping (a `| grep -q` quits at the first match and races the
# remaining plan lines into a broken-pipe i/o error).
./target/release/ninec info "$smokedir/t4.9cf" > "$smokedir/info.txt"
grep -q '9CSF frame' "$smokedir/info.txt"

# Salvage smoke test: corrupt the first payload byte (offset 47 =
# 31-byte file header + 16-byte segment header; 0xFF is never a valid
# packed-trit byte, so the write is guaranteed to be a real change).
# Strict decompress must fail (exit 3); --salvage must write output and
# exit 5 (partial recovery); info must print the damage map.
echo "==> ninec --salvage smoke test"
cp "$smokedir/t4.9cf" "$smokedir/corrupt.9cf"
printf '\xff' | dd of="$smokedir/corrupt.9cf" bs=1 seek=47 conv=notrunc status=none
if ./target/release/ninec decompress "$smokedir/corrupt.9cf" \
    -o "$smokedir/strict.cubes" --fill keep >/dev/null 2>&1; then
    echo "strict decompress of a corrupt frame must fail" >&2
    exit 1
fi
rc=0
./target/release/ninec decompress "$smokedir/corrupt.9cf" \
    -o "$smokedir/salvaged.cubes" --salvage --fill keep >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 5 ]; then
    echo "decompress --salvage on a damaged frame must exit 5, got $rc" >&2
    exit 1
fi
test -s "$smokedir/salvaged.cubes"
./target/release/ninec info "$smokedir/corrupt.9cf" > "$smokedir/cinfo.txt"
grep -q 'damaged segment' "$smokedir/cinfo.txt"

# Streaming-decode smoke test: `decompress -` reads the frame from stdin
# through the bounded-memory streaming reader and must produce output
# identical to the in-memory file path.
echo "==> ninec pipe-decode smoke test"
cat "$smokedir/t4.9cf" | ./target/release/ninec decompress - \
    -o "$smokedir/piped.cubes" --fill keep >/dev/null
cmp "$smokedir/back.cubes" "$smokedir/piped.cubes"

# Repair smoke test: an erasure-coded v3 frame (--parity 2:1) with one
# corrupted data segment must decode bit-exact through the automatic
# repair ladder (exit 0); --no-repair must fail strict+salvage-less
# (exit 3); --no-repair --salvage must degrade to X-erase (exit 5).
# Offset 49 = 33-byte v3 file header + 16-byte segment header = the
# first data segment's first payload byte (0xFF is never a valid
# packed-trit byte, so the write is guaranteed to be a real change).
echo "==> ninec --parity repair smoke test"
./target/release/ninec compress "$smokedir/t.cubes" -o "$smokedir/p.9cf" \
    --parity 2:1 --segment-bits 128 >/dev/null
./target/release/ninec info "$smokedir/p.9cf" > "$smokedir/pinfo.txt"
grep -q 'parity 2:1' "$smokedir/pinfo.txt"
./target/release/ninec decompress "$smokedir/p.9cf" \
    -o "$smokedir/pclean.cubes" --fill keep >/dev/null
cp "$smokedir/p.9cf" "$smokedir/pcorrupt.9cf"
printf '\xff' | dd of="$smokedir/pcorrupt.9cf" bs=1 seek=49 conv=notrunc status=none
cmp -s "$smokedir/p.9cf" "$smokedir/pcorrupt.9cf" && {
    echo "corruption write did not change the frame" >&2
    exit 1
}
# Capture to a file first (same rationale as the --stats smoke): a
# `| grep -q` would close the pipe at the first match and race ninec's
# remaining writes into a broken-pipe i/o error.
./target/release/ninec decompress "$smokedir/pcorrupt.9cf" \
    -o "$smokedir/prepaired.cubes" --fill keep > "$smokedir/repair.txt"
grep -q 'rebuilt from parity' "$smokedir/repair.txt"
cmp "$smokedir/pclean.cubes" "$smokedir/prepaired.cubes"
if ./target/release/ninec decompress "$smokedir/pcorrupt.9cf" \
    -o "$smokedir/pstrict.cubes" --no-repair --fill keep >/dev/null 2>&1; then
    echo "--no-repair on a damaged frame without --salvage must fail" >&2
    exit 1
fi
rc=0
./target/release/ninec decompress "$smokedir/pcorrupt.9cf" \
    -o "$smokedir/psalvaged.cubes" --no-repair --salvage --fill keep \
    >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 5 ]; then
    echo "--no-repair --salvage on a damaged v3 frame must exit 5, got $rc" >&2
    exit 1
fi
test -s "$smokedir/psalvaged.cubes"

# Plan-print smoke test: `info` on the committed repairable v3 corpus
# frame must print the per-segment decode plan — data slots, parity
# shards feeding the repair rung, and the damage map, one line each.
echo "==> ninec info plan-print smoke test"
./target/release/ninec info tests/corpus/v3_repairable.9cf > "$smokedir/plan.txt"
grep -q 'damaged segment' "$smokedir/plan.txt"
grep -q ': data k=' "$smokedir/plan.txt"
grep -q 'parity group .* — repair input' "$smokedir/plan.txt"

# --stats prom smoke: the Prometheus alias of --stats text (same
# capture-to-file-first rationale as the other stats smokes).
echo "==> ninec --stats prom smoke test"
./target/release/ninec compress "$smokedir/t.cubes" -o "$smokedir/t.te" \
    --stats prom > "$smokedir/stats.prom"
grep -q '^# TYPE ninec_encode_blocks counter' "$smokedir/stats.prom"

# Flight-recorder smoke: `trace` on the committed repairable corpus frame
# must replay the audited ladder and name the repaired rung per segment
# (exit 0 — the damage is within the parity budget); --json must carry
# the same audit machine-readably; --trace must dump a Chrome trace-event
# document any chrome://tracing/Perfetto build can load.
echo "==> ninec trace smoke test"
./target/release/ninec trace tests/corpus/v3_repairable.9cf > "$smokedir/audit.txt"
grep -q 'segments recovered' "$smokedir/audit.txt"
grep -q 'repaired' "$smokedir/audit.txt"
./target/release/ninec trace tests/corpus/v3_repairable.9cf --json \
    > "$smokedir/audit.json"
grep -q '"rung":"repaired"' "$smokedir/audit.json"
./target/release/ninec trace tests/corpus/v3_repairable.9cf \
    --trace "$smokedir/decode.trace.json" > /dev/null
grep -q '"traceEvents"' "$smokedir/decode.trace.json"

# Archive + scrub smoke test: append the parity-protected frame twice
# (full dedup, --verify re-decodes each frame), rot one stored byte, and
# walk the scrub contract end to end: --check reports without healing
# (exit 5), repair mode heals from parity and exits 0 with a report, and
# extraction is byte-exact again afterwards.
echo "==> ninec archive + scrub smoke test"
./target/release/ninec archive "$smokedir/p.9cf" "$smokedir/p.9cf" \
    -o "$smokedir/a.9ca" --verify > "$smokedir/arc.txt"
grep -q 'verified' "$smokedir/arc.txt"
grep -q '2 frames' "$smokedir/arc.txt"
./target/release/ninec extract "$smokedir/a.9ca" --frame 1 \
    -o "$smokedir/x.9cf" --verify >/dev/null
cmp "$smokedir/x.9cf" "$smokedir/p.9cf"
# Offset 16 = 12-byte store header + 4 bytes into the first blob's
# CRC-covered segment header (xor keeps the write a guaranteed change).
orig_byte=$(od -An -tu1 -j16 -N1 "$smokedir/a.9ca" | tr -d ' ')
printf "$(printf '\\%03o' $((orig_byte ^ 0xFF)))" \
    | dd of="$smokedir/a.9ca" bs=1 seek=16 conv=notrunc status=none
rc=0
./target/release/ninec scrub "$smokedir/a.9ca" --check >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 5 ]; then
    echo "scrub --check on a rotted archive must exit 5, got $rc" >&2
    exit 1
fi
./target/release/ninec scrub "$smokedir/a.9ca" > "$smokedir/scrub.txt"
grep -q 'repaired' "$smokedir/scrub.txt"
./target/release/ninec extract "$smokedir/a.9ca" -o "$smokedir/healed.9cf" >/dev/null
cmp "$smokedir/healed.9cf" "$smokedir/p.9cf"

# Torn-append smoke test: write epoch 1, append a second frame, then
# roll the index file back to epoch 1 — byte-for-byte the on-disk state
# a crash leaves after the new blobs hit the store but before the index
# rename commits. The archive must still open, see exactly one frame,
# extract it byte-exact, and a fresh append must reclaim the torn tail.
echo "==> ninec torn-append smoke test"
./target/release/ninec archive "$smokedir/p.9cf" -o "$smokedir/torn.9ca" >/dev/null
cp "$smokedir/torn.9ca.idx" "$smokedir/epoch1.idx"
./target/release/ninec archive "$smokedir/t4.9cf" -o "$smokedir/torn.9ca" >/dev/null
cp "$smokedir/epoch1.idx" "$smokedir/torn.9ca.idx"
./target/release/ninec info "$smokedir/torn.9ca" > "$smokedir/torninfo.txt"
grep -q '1 frames' "$smokedir/torninfo.txt"
./target/release/ninec extract "$smokedir/torn.9ca" -o "$smokedir/torn0.9cf" >/dev/null
cmp "$smokedir/torn0.9cf" "$smokedir/p.9cf"
./target/release/ninec archive "$smokedir/t4.9cf" -o "$smokedir/torn.9ca" >/dev/null
./target/release/ninec extract "$smokedir/torn.9ca" --frame 1 \
    -o "$smokedir/torn1.9cf" >/dev/null
cmp "$smokedir/torn1.9cf" "$smokedir/t4.9cf"

# Serve smoke test: bring the codec service up on ephemeral ports, read
# the bound addresses it prints, round-trip a cube file over the wire
# with `ninec client`, check the Prometheus exporter answers, and kill
# the server cleanly. The EXIT trap also kills it if any step fails.
echo "==> ninec serve smoke test"
./target/release/ninec serve --addr 127.0.0.1:0 --http-addr 127.0.0.1:0 \
    --archive "$smokedir/a.9ca" \
    > "$smokedir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q '^metrics ' "$smokedir/serve.log" 2>/dev/null && break
    kill -0 "$serve_pid" 2>/dev/null || {
        echo "ninec serve died on startup:" >&2
        cat "$smokedir/serve.log" >&2
        exit 1
    }
    sleep 0.1
done
wire_addr=$(awk '/^listening /{print $2; exit}' "$smokedir/serve.log")
http_url=$(awk '/^metrics /{print $2; exit}' "$smokedir/serve.log")
http_addr=${http_url#http://}
http_addr=${http_addr%/metrics}
./target/release/ninec client "$wire_addr" ping > "$smokedir/ping.txt"
grep -q 'tenant default' "$smokedir/ping.txt"
# Random access into the hosted archive over the wire must agree with
# the local seek-index decode of the same window.
./target/release/ninec client "$wire_addr" range --frame 1 --range 5:20 \
    -o "$smokedir/range.wire.txt" >/dev/null
./target/release/ninec extract "$smokedir/a.9ca" --frame 1 --range 5:20 \
    -o "$smokedir/range.local.txt" >/dev/null
cmp "$smokedir/range.wire.txt" "$smokedir/range.local.txt"
./target/release/ninec client "$wire_addr" compress "$smokedir/t.cubes" \
    -o "$smokedir/wire.9cf" >/dev/null
./target/release/ninec client "$wire_addr" decompress "$smokedir/wire.9cf" \
    -o "$smokedir/wire.trits" >/dev/null
test -s "$smokedir/wire.trits"
# Repair over the wire: the server writes parity-protected v3 frames
# (default 4:1), so xor-flipping a payload byte (offset 49 = 33-byte v3
# header + 16-byte segment header) fails that segment's CRC and must
# decode bit-identical through the client's default repair policy.
cp "$smokedir/wire.9cf" "$smokedir/wirecorrupt.9cf"
orig_byte=$(od -An -tu1 -j49 -N1 "$smokedir/wirecorrupt.9cf" | tr -d ' ')
printf "$(printf '\\%03o' $((orig_byte ^ 0x55)))" \
    | dd of="$smokedir/wirecorrupt.9cf" bs=1 seek=49 conv=notrunc status=none
./target/release/ninec client "$wire_addr" decompress "$smokedir/wirecorrupt.9cf" \
    -o "$smokedir/wirerepaired.trits" > "$smokedir/wirerepair.txt"
grep -q 'repaired rung' "$smokedir/wirerepair.txt"
cmp "$smokedir/wire.trits" "$smokedir/wirerepaired.trits"
./target/release/ninec client "$http_addr" metrics > "$smokedir/serve.prom"
grep -q '^# TYPE ninec_serve_requests counter' "$smokedir/serve.prom"

# Chaos smoke: put the in-repo fault-injection proxy between the client
# and the still-running server at a 10% torn-write rate (seed 3 is
# deterministic: among the first connections, ordinal 2 tears the
# server->client stream after a few bytes). A retrying client must still
# complete the compress/decompress roundtrip bit-exact — the torn attempt
# surfaces as a transport error, the retry reconnects onto a clean path.
echo "==> ninec chaos-proxy smoke test"
./target/release/ninec chaos-proxy "$wire_addr" --torn-permille 100 --seed 3 \
    > "$smokedir/proxy.log" 2>&1 &
proxy_pid=$!
for _ in $(seq 1 100); do
    grep -q '^listening ' "$smokedir/proxy.log" 2>/dev/null && break
    kill -0 "$proxy_pid" 2>/dev/null || {
        echo "ninec chaos-proxy died on startup:" >&2
        cat "$smokedir/proxy.log" >&2
        exit 1
    }
    sleep 0.1
done
proxy_addr=$(awk '/^listening /{print $2; exit}' "$smokedir/proxy.log")
# Connection ordinals through the proxy: 0 = compress (clean), 1 = first
# decompress (clean), 2 = second decompress (torn -> retried onto 3).
./target/release/ninec client "$proxy_addr" compress "$smokedir/t.cubes" \
    -o "$smokedir/chaos.9cf" --retries 6 >/dev/null
./target/release/ninec client "$proxy_addr" decompress "$smokedir/chaos.9cf" \
    -o "$smokedir/chaos1.trits" --retries 6 >/dev/null
./target/release/ninec client "$proxy_addr" decompress "$smokedir/chaos.9cf" \
    -o "$smokedir/chaos2.trits" --retries 6 >/dev/null
# Bit-exact under faults: both proxied decodes agree with the fault-free
# decode of the same payload over the direct wire path.
cmp "$smokedir/chaos.9cf" "$smokedir/wire.9cf"
cmp "$smokedir/chaos1.trits" "$smokedir/wire.trits"
cmp "$smokedir/chaos2.trits" "$smokedir/wire.trits"
kill "$proxy_pid"
wait "$proxy_pid" 2>/dev/null || true
proxy_pid=""
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "CI OK"
