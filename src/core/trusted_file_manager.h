// Trusted file manager (paper §IV-B, Fig. 1) and its extensions:
// deduplication (§V-A), filename & directory-structure hiding (§V-C),
// per-file rollback protection via a multiset-hash tree with bucket
// hashes (§V-D), and whole-file-system rollback protection (§V-E).
//
// Lives inside the enclave. All persistent state goes through the
// untrusted file manager — here the store::UntrustedStore instances —
// only after PAE encryption:
//
//   content store  — content files, directory files, ACL files; stored via
//                    the Protected-FS layout under per-file keys derived
//                    from the root key SK_r
//   group store    — the group list file and one member list per user
//   dedup store    — single encrypted copy per distinct plaintext, named
//                    by HMAC(SK_r, content)
//
// With hide_names the physical blob namespace is HMAC(SK_r, logical name)
// in hex, so the cloud provider sees a flat directory of pseudorandom
// names (§V-C). The original paths live inside encrypted directory files,
// which keeps listing possible.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "amap/authenticated_page_map.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/metadata_cache.h"
#include "crypto/hmac.h"
#include "crypto/sha2.h"
#include "fs/records.h"
#include "crypto/gcm.h"
#include "mset/mset_hash.h"
#include "pfs/protected_fs.h"
#include "sgx/platform.h"
#include "store/async_store.h"
#include "store/untrusted_store.h"

namespace seg::core {

struct Stores {
  store::UntrustedStore& content;
  store::UntrustedStore& group;
  store::UntrustedStore& dedup;
};

class TrustedFileManager {
 public:
  /// Monotonic-counter ids for the §V-E guard; created on first start and
  /// persisted by the enclave inside the sealed bootstrap blob.
  struct GuardState {
    std::optional<std::uint64_t> fs_counter;
    std::optional<std::uint64_t> group_counter;
  };

  /// `root_key` is SK_r (16 bytes). `measurement` scopes the protected-
  /// memory guard; `platform` is required when config asks for a §V-E
  /// guard or when transition charging is wanted.
  /// `counters` overrides the monotonic-counter backend for the §V-E
  /// guard (e.g. a ROTE-style distributed service); defaults to the
  /// platform's native SGX counters.
  TrustedFileManager(Stores stores, BytesView root_key, RandomSource& rng,
                     const EnclaveConfig& config, sgx::SgxPlatform* platform,
                     const sgx::Measurement& measurement,
                     GuardState guard_state = {},
                     sgx::CounterProvider* counters = nullptr);

  /// Current guard state (for sealing across restarts).
  GuardState guard_state() const;

  // ---- reader–writer concurrency layer (multi-threaded pipeline) ----------
  //
  // Request-level locking used by the enclave's service-thread pool:
  // GET/LIST/STAT run under the shared lock (they may touch the metadata
  // caches, which are internally synchronized), every namespace/ACL/
  // membership mutation under the exclusive lock. The manager's methods
  // deliberately do NOT self-lock — std::shared_mutex is not recursive
  // and one request spans many calls — so the lock lives at the request
  // layer; single-threaded callers (tests, setup code) may call without
  // any lock. Lock ordering: fs lock → cache/group-hash locks → store
  // locks (see DESIGN.md threading model).
  using ReadGuard = std::shared_lock<std::shared_mutex>;
  using WriteGuard = std::unique_lock<std::shared_mutex>;
  ReadGuard read_guard() const { return ReadGuard(fs_mutex_); }
  WriteGuard write_guard() const { return WriteGuard(fs_mutex_); }

  // ---- content-store objects (content files, dir files, ACL files) -------

  bool exists(const std::string& logical) const;
  /// Reads and, when rollback protection is on, validates the object
  /// against the hash tree up to the guarded root.
  Bytes read(const std::string& logical) const;
  /// Children of a directory object: a validated read of the directory
  /// record, parsed.
  std::vector<std::string> list(const std::string& dir) const;
  void write(const std::string& logical, BytesView content);
  void remove(const std::string& logical);
  std::uint64_t logical_size(const std::string& logical) const;

  /// Moves an object to a new logical name without touching dedup
  /// refcounts (raw content — including indirection links — is preserved).
  void move_object(const std::string& from, const std::string& to);

  /// Streaming upload (constant enclave buffer; dedup-aware).
  class Upload {
   public:
    ~Upload();
    Upload(const Upload&) = delete;
    Upload& operator=(const Upload&) = delete;
    void append(BytesView data);
    /// Commits the object. No effect on the logical namespace until now.
    void finish();

   private:
    friend class TrustedFileManager;
    Upload(TrustedFileManager& tfm, std::string logical);
    TrustedFileManager& tfm_;
    std::string logical_;
    std::unique_ptr<pfs::ProtectedFs::Writer> writer_;
    // Staging name in the dedup store (dedup mode) or content store
    // (plain mode); the logical namespace is untouched until finish(), so
    // an abandoned upload never leaves a partial object behind.
    std::string temp_name_;
    crypto::Sha256 content_hash_;
    crypto::HmacSha256 dedup_mac_;
    std::uint64_t size_ = 0;
    bool finished_ = false;
  };
  std::unique_ptr<Upload> begin_upload(const std::string& logical);

  /// Client-side dedup probe (§V-A alternative): if content with this
  /// plaintext SHA-256 is already deduplicated, commits `logical` as a
  /// reference to it and returns true; returns false when the content is
  /// unknown and a normal upload is required.
  bool commit_by_hash(const std::string& logical,
                      const crypto::Sha256::Digest& content_hash);

  /// Streaming download. Rollback validation happens at open.
  /// Structural rollback validation (bucket chain to the guarded root)
  /// happens at open; the object's own content hash is accumulated while
  /// streaming and checked by finalize(), so large downloads stay
  /// streamed. Chunks must be read in order.
  class Download {
   public:
    std::uint64_t size() const;
    std::uint64_t chunk_count() const;
    Bytes read_chunk(std::uint64_t index);
    /// Throws RollbackError if the streamed content does not match the
    /// hash tree. Call after the last chunk, before trusting the data.
    void finalize();

   private:
    friend class TrustedFileManager;
    std::unique_ptr<pfs::ProtectedFs::Reader> reader_;
    crypto::Sha256 hasher_;
    std::optional<crypto::Sha256::Digest> expected_hash_;
    std::uint64_t next_chunk_ = 0;
    bool validate_ = false;
  };
  std::unique_ptr<Download> open_download(const std::string& logical) const;

  // ---- group-store records ------------------------------------------------

  fs::GroupList load_group_list() const;
  void save_group_list(const fs::GroupList& list);
  bool member_list_exists(const std::string& user) const;
  fs::MemberList load_member_list(const std::string& user) const;
  /// Throws ProtocolError, before any store write, when `user` is too
  /// long for the group amap's membership keys.
  void save_member_list(const std::string& user, const fs::MemberList& list);
  /// The name check save_member_list() applies, for callers that must
  /// reject a user before writing other group-store records.
  void check_member_name(const std::string& user) const;
  /// All users that have a member list, enumerated from the group amap's
  /// user registry.
  std::vector<std::string> member_list_users() const;
  /// Users that are members of `group`, answered from the group amap's
  /// reverse membership index — a partitioned prefix scan that reads
  /// O(members) pages, so deleting a group (the paper's one deliberately
  /// inefficient operation) does not scan every user in the store.
  std::vector<std::string> group_member_users(fs::GroupId group) const;

  // ---- accounting / maintenance -------------------------------------------

  std::uint64_t content_store_bytes() const;
  std::uint64_t dedup_store_bytes() const;
  std::uint64_t group_store_bytes() const;

  /// Snapshot of the in-enclave metadata cache (config.metadata_cache_bytes),
  /// the one cache between requests and the authenticated store.
  struct CacheStats {
    CacheCounters headers;  // rollback-tree hash-header sidecars
    CacheCounters objects;  // decrypted ACL / directory records
    std::uint64_t resident_bytes() const {
      return headers.resident_bytes + objects.resident_bytes;
    }
  };
  CacheStats cache_stats() const;

  /// Data-path accelerators (DESIGN.md §7.1/§7.2): stats exported via
  /// telemetry_snapshot() as pfs.crypto_pool.* / pfs.content_cache.*.
  const pfs::CryptoPool& crypto_pool() const { return *crypto_pool_; }
  pfs::ContentCache::Stats content_cache_stats() const {
    return content_cache_->stats();
  }
  /// Async store I/O pool (DESIGN.md §7.3): stats exported via
  /// telemetry_snapshot() as store.async.*.
  const store::StoreIoPool& store_io() const { return *store_io_; }
  store::StoreIoPool::Stats store_io_stats() const {
    return store_io_->stats();
  }

  /// Deduplication accounting (§V-A), maintained incrementally at
  /// commit/release time so a stats export never has to load the index.
  struct DedupStats {
    std::uint64_t hits = 0;      // commits that matched existing content
    std::uint64_t stores = 0;    // new unique blobs stored
    std::uint64_t releases = 0;  // link releases (refcount decrements)
    std::uint64_t refs = 0;      // live references to dedup blobs
    std::uint64_t blobs = 0;     // live unique blobs
  };
  DedupStats dedup_stats() const;

  /// Read-only dedup probe: live references behind a dedup-store name, or
  /// nullopt when unknown. Reads one amap page.
  std::optional<std::uint64_t> dedup_refcount(const std::string& hname) const;

  /// Out-of-EPC paged metadata stats (DESIGN.md §9), exported via
  /// telemetry_snapshot() as amap.*. `dedup` stays zero without dedup.
  struct AmapStats {
    amap::AuthenticatedPageMap::Stats dedup;  // authoritative dedup index
    amap::AuthenticatedPageMap::Stats group;  // membership reverse index
  };
  AmapStats amap_stats() const;

  /// Maintenance: re-packs sparse page chains of the paged maps after
  /// delete storms and re-guards the authoritative roots. Returns total
  /// page slots reclaimed.
  std::uint64_t compact_paged_metadata();

  /// Re-derives and checks the group-store root hash after a restart; also
  /// primes the in-enclave group-record cache. Throws RollbackError if the
  /// guarded root does not match the stored state.
  void startup_validation();

  /// §V-G backup restore: the CA authorised a reset, so adopt the current
  /// on-disk state as fresh (recompute roots, re-arm guards).
  void accept_restored_state();

  const EnclaveConfig& config() const { return config_; }

 private:
  friend class Upload;

  // --- physical naming (hiding extension §V-C) ---
  std::string physical(const std::string& logical) const;
  std::string header_blob(const std::string& logical) const;

  // --- rollback tree (§V-D/E) ---
  struct HashHeader {
    crypto::Sha256::Digest content_hash{};
    crypto::Sha256::Digest main_hash{};
    std::vector<mset::MsetXorHash> buckets;  // empty for leaves
    std::uint64_t counter = 0;               // root only, counter guard mode

    Bytes serialize() const;
    static HashHeader parse(BytesView data, std::size_t expected_buckets);
  };

  /// Header lookup: the resident header cache, then the sealed header
  /// blob in the content store. Misses are admitted; the cache's byte
  /// budget bounds EPC residency.
  std::optional<HashHeader> load_header(const std::string& logical) const;
  void store_header(const std::string& logical, const HashHeader& header);
  void remove_header(const std::string& logical);
  std::size_t bucket_of(const std::string& logical) const;
  crypto::Sha256::Digest leaf_main(const std::string& logical,
                                   const crypto::Sha256::Digest& content) const;
  crypto::Sha256::Digest dir_main(const std::string& logical,
                                  const HashHeader& header) const;
  bool is_tree_node_dir(const std::string& logical) const;

  /// Records a write in the tree and propagates to the guarded root.
  void tree_on_write(const std::string& logical,
                     const crypto::Sha256::Digest& content_hash);
  void tree_on_remove(const std::string& logical);
  void tree_propagate(const std::string& child,
                      const std::optional<crypto::Sha256::Digest>& old_main,
                      const std::optional<crypto::Sha256::Digest>& new_main);
  /// Full §V-D validation: own hashes, one bucket per level, root guard.
  void tree_validate(const std::string& logical,
                     const crypto::Sha256::Digest& content_hash) const;
  /// Structural part only; returns the expected content hash so streaming
  /// downloads can defer the content comparison to finalize().
  std::optional<crypto::Sha256::Digest> tree_validate_structure(
      const std::string& logical) const;
  void guard_update(const HashHeader& root_header);
  void guard_check(const HashHeader& root_header) const;
  /// Tree-children of directory `dir` that fall in bucket `bucket`.
  std::vector<std::string> bucket_children(const std::string& dir,
                                           std::size_t bucket) const;

  // --- dedup (§V-A) ---
  /// Decrements the refcount behind `logical`'s dedup link (if any) and
  /// garbage-collects the shared blob on last reference. The shared
  /// release step of remove(), write() and Upload::finish().
  void release_dedup_link(const std::string& logical);
  static bool is_link(BytesView content);
  static std::string link_target(BytesView content);
  static Bytes make_link(const std::string& hname);

  // --- paged metadata (DESIGN.md §9) ---
  //
  // Dedup amap (authoritative; dedup mode only): "r:<hname>" → u64
  // refcount, "c:<content-hash>" → hname (client probe), "b:<hname>" →
  // content hash (back-pointer: blob GC erases its client entry in O(page)
  // instead of scanning the whole client index).
  //
  // Group amap (DESIGN.md §9.6): authoritative membership index in the
  // group store. "u:<user>" → {} registers a user with a member list;
  // "g:<gid>:<user>" → {} is the reverse membership index. The map
  // partitions its bucket hash on the first two ':' spans, so all of one
  // group's members share one chain and group deletion scans O(members)
  // pages.
  static std::string group_user_key(const std::string& user);
  static std::string group_member_key(fs::GroupId group,
                                      const std::string& user);
  /// Drain barriers: write back the map's dirty pages and re-guard its
  /// root — after every dedup-mutating operation and every membership
  /// mutation respectively.
  void flush_paged_metadata();
  void flush_paged_group();
  /// Guards an authoritative map's root in protected-memory slot `slot`
  /// (no-op under kNone).
  void guard_update_amap(amap::AuthenticatedPageMap& map, const char* slot);
  /// Reopens `map` against the root guarded in `slot` (restart path).
  void guard_check_amap(amap::AuthenticatedPageMap& map, const char* slot);

  // --- group store guard ---
  void group_on_write(const std::string& record, BytesView content);
  void group_on_remove(const std::string& record);
  void guard_update_group();
  void group_validate(const std::string& record, BytesView content) const;
  std::string group_physical(const std::string& record) const;

  Bytes raw_read_content(const std::string& logical) const;

  // --- metadata cache (EPC-budgeted, write-through) ---
  /// True for the records worth caching at object granularity: directory
  /// files and ACLs are small, hot and written only by this enclave.
  static bool is_metadata_object(const std::string& logical);
  static std::size_t header_bytes(const HashHeader& header);
  /// Directory content for tree validation: served from the object cache
  /// when warm (same freshness argument as the group-record cache).
  Bytes cached_dir_content(const std::string& dir) const;
  void clear_caches();

  EnclaveConfig config_;
  Bytes root_key_;
  RandomSource& rng_;
  sgx::SgxPlatform* platform_;
  sgx::Measurement measurement_;
  store::UntrustedStore& content_store_;
  store::UntrustedStore& group_store_;
  store::UntrustedStore& dedup_store_;
  // Data-path acceleration shared by all three file systems (declared
  // before them: they capture raw pointers at construction). The pools
  // are always constructed — zero config threads makes each a disabled
  // inline executor; the cache likewise disables itself on a zero budget.
  std::unique_ptr<pfs::CryptoPool> crypto_pool_;
  std::unique_ptr<pfs::ContentCache> content_cache_;
  std::unique_ptr<store::StoreIoPool> store_io_;
  pfs::ProtectedFs content_fs_;
  pfs::ProtectedFs group_fs_;
  pfs::ProtectedFs dedup_fs_;
  Bytes header_key_;
  crypto::AesGcm header_gcm_;
  Bytes name_key_;
  Bytes mset_key_;
  std::unique_ptr<sgx::CounterProvider> owned_counters_;
  sgx::CounterProvider* counters_ = nullptr;
  std::optional<std::uint64_t> fs_counter_id_;
  std::optional<std::uint64_t> group_counter_id_;
  // Request-level reader–writer lock (see read_guard()/write_guard()).
  mutable std::shared_mutex fs_mutex_;
  // In-enclave cache of group-store record hashes: cheap per-read rollback
  // protection for the small, hot administration records. Guarded by its
  // own mutex because group_validate() inserts first-sighting entries on
  // *read* paths, which run concurrently under the shared fs lock.
  mutable std::mutex group_hash_mutex_;
  mutable std::map<std::string, crypto::Sha256::Digest> group_record_hashes_;
  mset::MsetXorHash group_root_;
  // Metadata caches (budget split between headers and objects; a zero
  // config budget disables them and keeps the uncached code paths exact).
  // Entries are only ever inserted after validation or by this enclave's
  // own writes, so they are the single cache over the authenticated store.
  mutable LruCache<HashHeader> header_cache_;
  mutable LruCache<Bytes> object_cache_;
  // Dedup accounting gets its own mutex so dedup_stats() can poll it
  // while uploads run.
  mutable std::mutex dedup_stats_mutex_;
  DedupStats dedup_stats_;  // guarded by dedup_stats_mutex_
  // Paged metadata maps (dedup_amap_ is null without deduplication). Both
  // are internally synchronized; group_amap_ is mutable because member
  // enumerations are scans from const read paths.
  std::unique_ptr<amap::AuthenticatedPageMap> dedup_amap_;
  mutable std::unique_ptr<amap::AuthenticatedPageMap> group_amap_;
};

}  // namespace seg::core
