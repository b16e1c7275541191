#!/usr/bin/env bash
# Full CI gate: formatting, lints, docs, build, the whole test suite, every
# equivalence / fault / allocation suite pinned to both extremes of the
# STRG_THREADS knob, and the benchmark's own tests and smoke run.
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# `strg-parallel`'s job-lifetime transmute is the workspace's one `unsafe`
# block. Every other crate root — libraries, binaries, shims, examples —
# forbids `unsafe_code`, so the compiler rejects a new block anywhere else.
echo "==> #![forbid(unsafe_code)] in every crate root but strg-parallel's"
shopt -s nullglob
missing=0
for root in crates/*/src/lib.rs crates/*/src/main.rs crates/*/src/bin/*.rs \
    crates/shims/*/src/lib.rs src/lib.rs examples/*.rs; do
    if [ "$root" != crates/parallel/src/lib.rs ] &&
        ! grep -qx '#!\[forbid(unsafe_code)\]' "$root"; then
        echo "missing #![forbid(unsafe_code)]: $root"
        missing=1
    fi
done
shopt -u nullglob
[ "$missing" = 0 ]

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: a dangling intra-doc link fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Both builds pass `--locked`: `benchmark/Cargo.lock` records every
# workspace dependency edge, so a manifest edit (adding or dropping a
# dependency) rewrites it, and that changes the benchmark package, which
# only a change to the benchmark itself may do. The drift fails here in
# seconds instead of silently rewriting either lockfile.
echo "==> cargo build --release --locked"
cargo build --workspace --release --locked

# `benchmark/` is a package of its own that `cargo test` never builds: a
# library change that breaks its API fails here in seconds, not after the
# test matrix (`tests/benchmark_surface.rs` names what it uses).
echo "==> benchmark: build against this checkout (--locked)"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo test"
cargo test --workspace -q

# Informational, not a gate: the size a simplification PR quotes.
echo "==> non-test lines per crate (scripts/loc.sh)"
scripts/loc.sh

# The distance kernels, the segmenter, the sliced CRC-32 and the
# persistence run decoders once more as they ship: debug builds neither
# vectorise the lane loops nor elide the bounds checks they rely on (and
# they trap the `u32` overflow a release build wraps), so arithmetic that
# only goes wrong optimised would pass the run above. The segmenter's
# ignored test compares it with its pixel-by-pixel reference on every
# frame of the benchmark's 150-clip corpus, too slow unoptimised, and
# `ingest_equivalence`'s pins Algorithm 1's temporal edges on the same
# clips (about 2 s optimised). `kernel_equivalence`'s fits the 600-object
# `lib_index` set with the midpoint gap's half-distance kernel and with its
# midpoint-element definition and requires the same clustering (about 2 s
# optimised). `paper_shapes`' assert Fig 7b/7c and Table 2 at the reduced
# paper scale (2,000 objects, full-length clips; about 5 s optimised). The
# thread-invariance suite rides along, so
# the pool's hand-off and the leaf scan are compared across worker counts
# in the build that ships.
echo "==> cargo test --release (distance, segmentation, tracking and persistence kernels, thread invariance)"
cargo test -q --release -p strg-distance -p strg-graph -p strg-video
cargo test -q --release -p strg-video -- --ignored
cargo test -q --release --test ingest_equivalence -- --ignored
cargo test -q --release --test kernel_equivalence -- --ignored
cargo test -q --release -p strg-bench --test paper_shapes -- --ignored
cargo test -q --release -p strg-core persist
cargo test -q --release --test kernel_equivalence
cargo test -q --release --test parallel_equivalence --test shard_equivalence
cargo test -q --release --test persist_faults --test persist_equivalence

# The matrix: every suite below runs once per STRG_THREADS value; adding a
# leg is one line. GUARDED suites talk to a real TCP server (or spawn
# one) or race writers against readers: `timeout` keeps a wedged worker, a
# lost response or a deadlock from turning CI into an infinite
# hang — the suites' own per-read timeouts should fire long before it does.
SUITES=(
    end_to_end
    parallel_equivalence
    obs_equivalence
    kernel_equivalence
    ingest_equivalence
    shard_equivalence
    persist_equivalence
    persist_faults
    store_model
    query_alloc
    ingest_alloc
    index_equivalence
    index_edge_cases
    robustness
)
GUARDED=(
    batch_equivalence
    concurrency
    serve_protocol
    serve_concurrency
    serve_faults
)
for threads in 1 8; do
    # The fork/join pool's own tests first: a pool deadlock must fail CI
    # here, under the timeout, not hang a suite further down.
    echo "==> strg-parallel under STRG_THREADS=$threads (timeout 600)"
    STRG_THREADS=$threads timeout 600 cargo test -q -p strg-parallel
    for suite in "${SUITES[@]}"; do
        echo "==> $suite under STRG_THREADS=$threads"
        STRG_THREADS=$threads cargo test -q --test "$suite"
    done
    for suite in "${GUARDED[@]}"; do
        echo "==> $suite under STRG_THREADS=$threads (timeout 600)"
        STRG_THREADS=$threads timeout 600 cargo test -q --test "$suite"
    done
done

# Once more with eight libtest threads, so that on a two-core runner the
# stress cases' concurrent callers (and the tests beside them, which share
# the process-wide pool) really overlap — the database's racing writers and
# readers included.
echo "==> pool and database stress with RUST_TEST_THREADS=8 (timeout 600)"
RUST_TEST_THREADS=8 timeout 600 cargo test -q -p strg-parallel
RUST_TEST_THREADS=8 timeout 600 cargo test -q --test parallel_equivalence \
    concurrent_queries_on_the_shared_pool_match_sequential
RUST_TEST_THREADS=8 timeout 600 cargo test -q --test concurrency

# After `too_large` the server replies, half-closes and drains before it
# drops the socket; closing with input unread instead sends an RST that can
# eat the error line, a "Connection reset by peer" about one run in forty.
# Fifty runs make such a regression all but certain to show.
echo "==> serve_faults oversized_request_errors_once_and_closes x50 (timeout 60 each)"
for _ in $(seq 50); do
    timeout 60 cargo test -q --test serve_faults -- --exact oversized_request_errors_once_and_closes
done

echo "==> benchmark: unit tests"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark: smoke run (all five workloads, failed: 0)"
benchmark/run.sh --smoke

echo "CI gate passed."
