// SeGShare enclave configuration.
//
// Every paper extension is a toggle so the benchmarks can ablate it:
// Fig. 5 compares individual-file rollback protection on/off, E8 measures
// deduplication, E9 the switchless-call choice.
#pragma once

#include <cstddef>

namespace seg::core {

/// How the root hashes are protected against whole-file-system rollback
/// (§V-E). kNone leaves only the per-file tree (§V-D).
enum class FsRollbackGuard {
  kNone,
  /// TEE-protected memory persisted across restarts.
  kProtectedMemory,
  /// TEE monotonic counter checked against a counter value stored in the
  /// root file.
  kMonotonicCounter,
};

struct EnclaveConfig {
  /// §V-C: store files under HMAC(SK_r, path) pseudorandom names.
  bool hide_names = true;
  /// §V-A: server-side, file-granular deduplication via a third store.
  bool deduplication = false;
  /// §V-A alternative: client-side deduplication — clients probe by
  /// plaintext hash and skip the upload on a hit. Saves bandwidth but
  /// has the classic existence-leak / fake-hash trade-offs [58], [59],
  /// which is why the paper's default is server-side. Requires
  /// `deduplication`.
  bool client_side_dedup = false;
  /// §V-D: multiset-hash tree over the file system for per-file rollback
  /// protection.
  bool rollback_protection = false;
  FsRollbackGuard fs_guard = FsRollbackGuard::kNone;
  /// Bucket hashes per directory node (§V-D second optimization). The
  /// paper sizes buckets "depending on the number of child files"; a
  /// fixed 64 keeps validation cost low even for huge flat directories.
  std::size_t rollback_buckets = 64;
  /// §VI: use switchless calls for TLS and file I/O.
  bool switchless = true;
  /// Enclave service threads (simulated TCS slots). 1 services every
  /// connection from the calling thread, exactly as before — store
  /// traffic stays bit-identical. >1 routes ready connections through a
  /// sgx::SwitchlessQueue worker pool: requests on different connections
  /// run in parallel under the trusted file manager's reader–writer
  /// locks, while each TLS session keeps at most one request in flight.
  std::size_t service_threads = 1;
  /// In-enclave crypto worker threads for the per-file data path. Chunks
  /// are independent under the position-bound AAD design, so seal/open and
  /// Merkle-level tag computation for one file fan out across this pool.
  /// 0 keeps the original serial path (and bit-identical store traffic);
  /// any value produces bit-identical stored blobs because IVs are drawn
  /// in chunk order on the submitting thread before the fan-out.
  std::size_t crypto_threads = 0;
  /// Untrusted-side store I/O worker threads (the completion half of the
  /// async store pipeline, DESIGN.md §7.3). 0 keeps every store_put/
  /// store_get synchronous on the submitting thread — bit-identical
  /// traffic and accounting to the pre-async path. >0 lets Protected-FS
  /// writers issue chunk puts as they seal and readers prefetch gets
  /// ahead of decrypt; stored blobs stay bit-identical because all bytes
  /// are computed before submission (only completion order may differ).
  std::size_t store_io_threads = 0;
  /// Bounded in-flight window of the store submission queue: submit
  /// blocks once this many operations are in flight, so a fast writer
  /// cannot pin unbounded ciphertext in the untrusted queue.
  std::size_t store_queue_depth = 64;
  /// Byte budget for the in-enclave decrypted-content chunk cache (the
  /// data-path sibling of `metadata_cache_bytes`). Entries are keyed by
  /// (file, chunk index, expected GCM tag), so a hit is exactly as fresh
  /// as the root-verified tag tree demands; see DESIGN.md §7.2. Cached
  /// bytes count against the simulated EPC. 0 disables the cache and the
  /// sequential-read prefetcher that feeds it.
  std::size_t content_cache_bytes = 0;
  /// Byte budget for the in-enclave metadata cache (hash-header sidecars,
  /// decrypted ACL/directory records), the one cache between requests and
  /// the authenticated content store. 0 disables it: every lookup then
  /// opens the sealed blob and re-validates, and stored bytes stay
  /// bit-identical to the cached code paths. Cached bytes count against
  /// the simulated EPC, so oversizing the budget shows up as paging cost,
  /// not free speed.
  std::size_t metadata_cache_bytes = 0;
  /// Kept only for source compatibility with callers that still assign
  /// it; it selects nothing. The dedup refcounts and the group membership
  /// index always live in `amap::AuthenticatedPageMap`s (DESIGN.md §9).
  /// `false` is rejected with EnclaveError.
  bool paged_metadata = true;
  /// EPC byte budget for the clean decrypted-page caches of the paged
  /// metadata maps (1/8 to the group map, the rest to the dedup map when
  /// deduplication is on). Counts against the simulated EPC.
  std::size_t amap_cache_bytes = 256 * 1024;
  /// Logical page size of the paged metadata maps. Every stored page blob
  /// has this plaintext size (padded), so fill levels don't leak.
  std::size_t amap_page_bytes = 4096;
  /// Append-journal budget for the paged maps (dedup index and group
  /// membership index). 0 keeps the write-back-per-barrier behaviour. >0
  /// turns each drain barrier into a group commit: the barrier's
  /// mutations are sealed as ONE journal record whose sequence number and
  /// GCM tag are bound into the guarded manifest root, and dirty pages
  /// are written back only once the journal exceeds this many bytes (or
  /// at compaction). Cuts the per-barrier write cost on mutation-heavy
  /// workloads; replay at restart fails closed on any tampered, replayed,
  /// reordered or truncated record.
  std::size_t amap_journal_bytes = 0;
  /// Capacity of the in-enclave ring of recent request traces (DESIGN.md
  /// §8). Each retained TraceSpan is a small fixed-size struct with no
  /// request data, so the default costs a few KiB of enclave memory.
  std::size_t telemetry_trace_ring = 128;
};

}  // namespace seg::core
