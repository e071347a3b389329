// Authenticated paged map — out-of-EPC metadata at millions-of-files
// scale (DESIGN.md §9).
//
// The authoritative metadata indexes (dedup refcounts, group membership)
// stop scaling long before the ROADMAP's millions-of-users target if they
// live in the enclave: EPC is small (§II-A), and an index kept as a
// single blob is re-serialized and re-encrypted on every mutation —
// O(total files) per PUT/DELETE. This layer moves the bulk of that state
// to untrusted storage as fixed-size encrypted pages while keeping only a
// compact page table inside the enclave:
//
//  * Layout: linear hashing (Litwin). A key maps to a bucket by a keyed
//    hash; each bucket is a short chain of fixed-size pages. When an
//    insert overflows a bucket, exactly ONE bucket (the split pointer) is
//    rehashed into two — every mutation touches O(page), never O(map).
//  * Authenticity + freshness: each page is sealed with AES-GCM (IV ||
//    ciphertext || tag, AAD binds map name + page id) and its 16-byte GCM
//    tag is pinned in the in-enclave page table. A flipped byte, a forged
//    page or a replayed stale page all fail closed: the stored tag no
//    longer matches the pinned one. The table itself persists in two
//    levels so a flush never re-seals O(map) bytes: fixed-span SEGMENT
//    blobs (the pinned tags of 256 buckets each; only segments touched
//    since the last flush are re-sealed) and a small MANIFEST blob that
//    pins every segment's GCM tag plus the hash geometry. The manifest's
//    serialized form hashes to a single root digest — the Merkle root the
//    owner can guard (sealed state, protected memory, counters) for
//    cross-restart freshness: root pins manifest, manifest pins segments,
//    segments pin pages.
//  * EPC budget: decrypted pages are cached in a core::LruCache charged
//    against the SgxPlatform residency model under `cache_bytes`; dirty
//    pages are held out of the LRU, charged separately, and written back
//    in coalesced batches (flush() at the caller's drain barriers, or
//    automatically once `dirty_flush_bytes` of pages are pending) instead
//    of write-through-per-mutation.
//  * Parallel crypto: a pfs::CryptoPool fans page seal (write-back batch)
//    and multi-page chain open across the enclave's crypto workers; IVs
//    are pre-drawn serially so stored bytes are deterministic for any
//    worker count.
//
// The map is internally synchronized: concurrent readers scanning it
// under the file manager's shared lock serialize on one mutex.
// Crash note: flush() writes pages first and the page-table blob last; a
// crash in between leaves table and pages inconsistent, which reopen()
// reports as tampering (fail closed — recoverable via the §V-G restore
// path), never as silently stale data.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/metadata_cache.h"
#include "crypto/gcm.h"
#include "crypto/sha2.h"
#include "pfs/crypto_pool.h"
#include "sgx/platform.h"
#include "store/async_store.h"
#include "store/untrusted_store.h"

namespace seg::amap {

struct AmapOptions {
  /// Namespace inside the untrusted store; blobs are named
  /// "__amap:<name>:p<bucket>.<index>" (pages), "__amap:<name>:t<seg>"
  /// (table segments) and "__amap:<name>:dir" (table manifest).
  std::string name = "map";
  /// Sealed page plaintext size. Every page blob is exactly this many
  /// bytes plus the constant AES-GCM overhead, so the provider learns
  /// nothing from page sizes.
  std::size_t page_bytes = 4096;
  /// EPC byte budget for the clean decrypted-page cache (0 keeps no clean
  /// pages resident — every read re-opens its page).
  std::size_t cache_bytes = 0;
  /// Dirty bytes that trigger an automatic write-back batch between
  /// explicit flush() barriers. 0 picks 16 pages.
  std::size_t dirty_flush_bytes = 0;
  /// Initial bucket count (must be a power of two).
  std::size_t initial_buckets = 8;
  /// Append-journal budget between checkpoints (DESIGN.md §9.4). 0 keeps
  /// the PR-8 behaviour: every flush() writes all dirty pages back. When
  /// set, flush() group-commits the barrier's mutations as ONE sealed
  /// journal record plus a manifest rewrite, and the dirty pages are only
  /// written back at a checkpoint — triggered once the persisted journal
  /// exceeds this many bytes or the dirty pages exceed dirty_flush_bytes.
  std::size_t journal_bytes = 0;
  /// When nonzero, the keyed bucket hash covers only the key up to and
  /// including its Nth ':' delimiter (the whole key when it has fewer),
  /// so keys sharing that prefix land in ONE bucket chain and
  /// for_each_prefix/scan_prefix over such a prefix reads O(partition)
  /// pages instead of O(map). 0 hashes whole keys (PR-8 layout).
  std::size_t hash_prefix_delimiters = 0;
  /// Async store I/O for write-back batches: page puts are submitted
  /// through the pool's submission/completion queues so seal + store
  /// overlap on device-backed (spilled) stores. Null or disabled keeps
  /// every put synchronous on the flushing thread.
  store::StoreIoPool* io = nullptr;
  /// Parallel page seal/open; null or disabled runs inline.
  pfs::CryptoPool* pool = nullptr;
  /// Cost accounting: store round trips are charged as (switchless)
  /// ocalls, materialized pages as EPC touches, cache/dirty/page-table
  /// residency via adjust_epc_resident.
  sgx::SgxPlatform* platform = nullptr;
  bool switchless = true;
};

class AuthenticatedPageMap {
 public:
  /// `key` (16 or 32 bytes) seals pages and the page-table blob. If a
  /// page-table blob already exists under this name it is loaded and its
  /// authenticity verified (freshness against a guarded root is the
  /// caller's contract — see reopen()).
  AuthenticatedPageMap(store::UntrustedStore& store, BytesView key,
                       RandomSource& rng, AmapOptions options);
  ~AuthenticatedPageMap();
  AuthenticatedPageMap(const AuthenticatedPageMap&) = delete;
  AuthenticatedPageMap& operator=(const AuthenticatedPageMap&) = delete;

  /// Largest key+value an entry may carry (one entry must fit a page).
  std::size_t max_entry_bytes() const;

  /// Copies the value out, or nullopt. Throws RollbackError when the
  /// stored page does not match its pinned tag (tamper/replay) and
  /// IntegrityError when authenticated decryption itself fails.
  std::optional<Bytes> get(const std::string& key);

  /// Inserts or replaces. Returns false (and stores nothing) when
  /// key+value exceed max_entry_bytes(). Every map is authoritative, so
  /// callers bound their entry sizes against max_entry_bytes() before
  /// mutating anything else; a false return is a caller bug. The mutation
  /// lands in an in-enclave dirty page; durability comes at the next
  /// flush()/write-back.
  bool put(const std::string& key, BytesView value);

  /// Removes the entry; returns whether it existed.
  bool erase(const std::string& key);

  std::uint64_t entry_count() const;

  /// Authenticated streaming scan: visits every entry whose key starts
  /// with `prefix`, page by page in deterministic order (buckets
  /// ascending, chain index ascending, in-page order). Every visited page
  /// is verified against its pinned tag exactly like get() — a tampered
  /// or replayed page fails the scan closed (RollbackError/IntegrityError)
  /// before any of its entries are yielded. When the map partitions its
  /// bucket hash (hash_prefix_delimiters) and `prefix` covers a whole
  /// partition, only that partition's chain is read. `fn` returns false
  /// to stop early and must not reenter the map. Returns entries visited.
  std::uint64_t for_each_prefix(
      const std::string& prefix,
      const std::function<bool(const std::string& key, const Bytes& value)>&
          fn);

  /// Resumable cursor over the same ordered scan, for callers that stream
  /// a large range in bounded batches. The cursor is a position, not a
  /// snapshot: pages are verified fresh at each visit, and mutations
  /// between batches may shift positions like any live iterator.
  struct ScanCursor {
    std::size_t bucket = 0;
    std::size_t page = 0;
    std::size_t entry = 0;
    bool started = false;
    bool partitioned = false;
    bool done = false;
  };
  /// Fills up to `limit` matching entries starting at `cursor`, advancing
  /// it; cursor.done turns true once the range is exhausted.
  std::vector<std::pair<std::string, Bytes>> scan_prefix(
      const std::string& prefix, ScanCursor& cursor, std::size_t limit);

  /// Re-packs sparse chains and reclaims empty tail pages left behind by
  /// delete storms. Every chain is re-verified while loading (tamper or
  /// replay fails the compaction closed), the logical contents are
  /// bit-preserved, and the result is flushed (journal mode: checkpointed)
  /// before returning. Returns the number of page slots reclaimed.
  std::uint64_t compact();

  /// Writes every dirty page back (sealed in parallel when a pool is
  /// attached) and persists the page table. Returns true when anything
  /// was written — the caller re-guards root() then.
  bool flush();

  /// Digest over the serialized table manifest (hash geometry + every
  /// pinned segment tag): the Merkle root pinning the entire map. Flushes
  /// first so the root always describes the persisted state.
  crypto::Sha256::Digest root();

  /// Re-loads the page table from the store (restart / §V-G restore),
  /// discarding any in-enclave state. Throws RollbackError when
  /// `expected_root` is given and the freshly loaded root differs.
  void reopen(const std::optional<crypto::Sha256::Digest>& expected_root);

  struct Stats {
    std::uint64_t entries = 0;
    std::uint64_t pages = 0;
    std::uint64_t splits = 0;
    std::uint64_t page_hits = 0;    // clean-cache or dirty-page hits
    std::uint64_t page_misses = 0;  // page opened from the store
    std::uint64_t page_evictions = 0;
    std::uint64_t dirty_pages = 0;
    std::uint64_t dirty_bytes = 0;
    std::uint64_t writeback_pages = 0;    // pages sealed + stored
    std::uint64_t writeback_batches = 0;  // flush batches that wrote
    std::uint64_t cache_resident_bytes = 0;
    std::uint64_t cache_budget_bytes = 0;
    std::uint64_t table_bytes = 0;  // in-enclave page-table residency
    std::uint64_t scans = 0;        // for_each_prefix / cursor ranges
    std::uint64_t scan_pages = 0;   // pages verified + visited by scans
    std::uint64_t journal_records = 0;   // sealed records pending replay
    std::uint64_t journal_bytes = 0;     // persisted journal blob bytes
    std::uint64_t journal_appends = 0;   // records ever group-committed
    std::uint64_t journal_replayed = 0;  // records replayed at load
    std::uint64_t checkpoints = 0;       // full write-backs (journal mode)
    std::uint64_t compactions = 0;
    std::uint64_t compaction_reclaimed_pages = 0;
  };
  Stats stats() const;

 private:
  // One decrypted page: unordered entry list (linear scan within a page —
  // a page holds at most a few dozen entries).
  using Page = std::vector<std::pair<std::string, Bytes>>;

  struct Bucket {
    std::vector<crypto::AesGcm::Tag> page_tags;  // chain, index 0 first
  };

  std::string page_blob(std::size_t bucket, std::size_t index) const;
  std::string segment_blob(std::size_t segment) const;
  std::string table_blob() const;
  std::string journal_blob(std::uint64_t seq) const;
  Bytes page_aad(std::size_t bucket, std::size_t index) const;
  Bytes segment_aad(std::size_t segment) const;
  Bytes journal_aad(std::uint64_t seq) const;

  /// The key span the bucket hash covers: the whole key, or — with
  /// hash_prefix_delimiters = N — the key up to and including its Nth ':'.
  std::string_view partition_view(const std::string& key) const;
  /// When `prefix` pins down a whole hash partition, the single bucket
  /// holding it; nullopt means the scan must cover every bucket.
  std::optional<std::size_t> partition_of(const std::string& prefix) const;
  std::uint64_t key_hash(const std::string& key) const;
  std::size_t bucket_of(std::uint64_t hash) const;

  Bytes serialize_page(const Page& page) const;
  Page parse_page(BytesView plain) const;
  std::size_t page_payload_bytes(const Page& page) const;

  /// Table segments: each covers a fixed span of buckets, so one flush
  /// re-seals only the segments whose chains changed, never O(map).
  std::size_t segment_count() const;
  Bytes serialize_segment(std::size_t segment) const;
  /// The manifest core: geometry + every segment's pinned GCM tag, as of
  /// the last checkpoint.
  Bytes serialize_manifest_core() const;
  /// The full manifest: checkpoint core + journal section (next sequence
  /// number and the pinned tag of every live journal record). Its SHA-256
  /// is root() — so the root binds the journal's order and content too.
  Bytes manifest_bytes() const;
  /// Parses the manifest plaintext, loads and verifies every segment blob
  /// against its pinned tag, then replays the journal section (strictly
  /// monotonic sequence numbers, each record's stored tag checked against
  /// the manifest-pinned one — replayed/tampered/truncated records fail
  /// closed).
  void load_table(BytesView manifest_plain);
  void replay_journal_record(BytesView plain, std::uint64_t seq);

  /// Loads (dirty > clean cache > store) one page of `bucket`'s chain.
  Page load_page(std::size_t bucket, std::size_t index);
  /// Loads the whole chain (multi-page cold opens fan across the pool).
  std::vector<Page> load_chain(std::size_t bucket);
  Bytes open_page_blob(std::size_t bucket, std::size_t index) const;
  void mark_dirty(std::size_t bucket, std::size_t index, Page page);
  /// mark_dirty + segment/table dirtying for a single-page mutation.
  void touch_page(std::size_t bucket, std::size_t index, Page page);
  /// Retires a stored page slot (journal mode defers the store remove to
  /// the next checkpoint so replay still finds the checkpointed pages).
  void remove_page_slot(std::size_t bucket, std::size_t index);
  /// Greedy first-fit re-pack of a chain's entries into fresh pages.
  std::vector<Page> repack(std::vector<Page> pages) const;
  /// Replaces `bucket`'s chain, retiring shrunk slots and dirtying the rest.
  void write_chain(std::size_t bucket, std::vector<Page> pages);

  /// Full mutation including any linear-hash split; shared by the public
  /// entry points and journal replay so both produce identical state.
  void apply_put(const std::string& key, BytesView value);
  bool apply_erase(const std::string& key);
  void record_journal_op(std::uint8_t type, const std::string& key,
                         BytesView value);

  void split_one_bucket();
  void maybe_autoflush_locked();
  bool flush_locked();
  void charge_io() const;
  void adjust_table_residency();

  bool journaling() const { return options_.journal_bytes > 0; }
  /// Seals the pending ops as one journal record and pins its tag.
  void append_journal_record();
  /// Journal-mode full write-back: dirty pages + deferred removes +
  /// segments + manifest, then retires every journal blob.
  void checkpoint_locked();
  /// Writes dirty pages + segments + manifest (the only write path in
  /// non-journal mode; the tail of a checkpoint in journal mode).
  void write_back_locked();

  void persist_table();
  void persist_manifest_only();

  store::UntrustedStore& store_;
  RandomSource& rng_;
  AmapOptions options_;
  crypto::AesGcm gcm_;
  Bytes hash_key_;  // keyed bucket hash (hides key structure from layout)

  mutable std::mutex mutex_;
  // Linear-hashing state: bucket count = initial_buckets << level_, the
  // first split_next_ of which have already been split into this level+1.
  std::size_t level_ = 0;
  std::size_t split_next_ = 0;
  std::vector<Bucket> buckets_;
  std::uint64_t entries_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t pages_ = 0;  // total pages across all chains
  bool table_dirty_ = false;
  // Pinned GCM tags of the persisted table segments (manifest content)
  // and the segments owning a bucket whose chain changed since the last
  // flush — the only ones the next flush re-seals.
  std::vector<crypto::AesGcm::Tag> segment_tags_;
  std::set<std::size_t> dirty_segments_;

  // Clean decrypted pages (LRU, EPC-budgeted). Keyed by page blob name.
  core::LruCache<Page> cache_;
  // Dirty pages: authoritative until written back; never in the LRU.
  struct DirtyPage {
    std::size_t bucket;
    std::size_t index;
    Page page;
  };
  std::map<std::string, DirtyPage> dirty_;
  std::uint64_t dirty_bytes_ = 0;
  std::uint64_t table_bytes_ = 0;  // registered page-table residency

  // Journal state (journaling() mode only; empty otherwise). The manifest
  // written between checkpoints is checkpoint_core_ + the journal section,
  // so the guarded root keeps pinning exactly what is persisted.
  Bytes checkpoint_core_;  // manifest core bytes as of the last checkpoint
  bool have_checkpoint_ = false;
  std::uint64_t next_journal_seq_ = 0;
  std::vector<std::pair<std::uint64_t, crypto::AesGcm::Tag>> journal_tags_;
  std::uint64_t journal_total_bytes_ = 0;  // persisted journal blob bytes
  // One (type, key, value) per mutation since the last barrier; sealed as
  // a single group-committed record by the next flush().
  struct PendingOp {
    std::uint8_t type;  // 1 = put, 2 = erase
    std::string key;
    Bytes value;
  };
  std::vector<PendingOp> pending_ops_;
  // Page blobs retired since the last checkpoint: their store removes are
  // deferred so journal replay still finds every checkpointed page.
  std::set<std::string> deferred_removes_;
  bool replaying_ = false;  // journal replay re-applies ops silently

  std::uint64_t hits_ = 0;    // dirty- or clean-cache page hits
  std::uint64_t misses_ = 0;  // pages opened from the store
  std::uint64_t writeback_pages_ = 0;
  std::uint64_t writeback_batches_ = 0;
  std::uint64_t scans_ = 0;
  std::uint64_t scan_pages_ = 0;
  std::uint64_t journal_appends_ = 0;
  std::uint64_t journal_replayed_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compaction_reclaimed_pages_ = 0;
};

}  // namespace seg::amap
