#!/usr/bin/env sh
# Configure, build and run the full test suite under sanitizers. Any
# sanitizer report fails the run (-fno-sanitize-recover + halt_on_error).
#
# Usage: run_sanitized.sh [asan|tsan|all]   (default: all)
#   asan — ASan + UBSan  (preset "asan-ubsan", build dir build-asan/);
#          also covers the adversarial frame/parse sweeps in proto_test,
#          the zero-copy record path and bit-identity checks in tls_test,
#          the hostile-server client hardening in wire_test (bounds
#          of the gather/seal/view-aliasing buffers), the page
#          serialize/parse framing + tamper/replay sweeps in amap_test,
#          and the journal record parse/replay paths (reordered,
#          duplicated, torn and truncated sealed records) plus the
#          chain-compaction re-pack in amap_test.
#   tsan — ThreadSanitizer (preset "tsan",     build dir build-tsan/);
#          exercises the concurrent request pipeline in concurrency_test,
#          the switchless worker pool in sgx_test, the async store I/O
#          pool in store_test/pfs_test, the threaded pipeline on a
#          real DiskStore in disk_integration_test, the locked
#          DuplexChannel stats_snapshot() / wire_stats() counters in
#          net_test/wire_test, and the internally-synchronized paged
#          map's CryptoPool write-back batches, journal group commits
#          and streaming prefix scans in amap_test/tfm_test.
#
# The paged maps are the only implementation of the authoritative
# indexes, so every default-config test in both modes also runs the group
# membership map, and every dedup test the dedup map — not only the
# amap-specific tests named above. Headers and ACL/directory records have
# no paged tier; they run through the EPC metadata cache alone.
set -eu

repo="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"

run_asan() {
  cmake --preset asan-ubsan -S "$repo"
  cmake --build --preset asan-ubsan -j "$jobs"
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"
}

run_tsan() {
  cmake --preset tsan -S "$repo"
  cmake --build --preset tsan -j "$jobs"
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs"
}

case "$mode" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *) echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac
