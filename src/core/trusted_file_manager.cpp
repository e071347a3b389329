#include "core/trusted_file_manager.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "crypto/gcm.h"
#include "fs/path.h"

namespace seg::core {

namespace {

constexpr const char* kGroupListRecord = "grouplist";
constexpr const char* kLinkMagic = "@segshare-dedup-link:";
// Protected-memory slots guarding the roots of the authoritative amaps.
constexpr const char* kDedupAmapSlot = "dedup-amap-root";
constexpr const char* kGroupAmapSlot = "group-amap-root";

}  // namespace

// --------------------------------------------------------------- headers ---

Bytes TrustedFileManager::HashHeader::serialize() const {
  Bytes out;
  append(out, content_hash);
  append(out, main_hash);
  put_u64_be(out, counter);
  put_u32_be(out, static_cast<std::uint32_t>(buckets.size()));
  for (const auto& bucket : buckets) append(out, bucket.serialize());
  return out;
}

TrustedFileManager::HashHeader TrustedFileManager::HashHeader::parse(
    BytesView data, std::size_t expected_buckets) {
  HashHeader h;
  std::size_t offset = 0;
  std::memcpy(h.content_hash.data(), slice(data, offset, 32).data(), 32);
  offset += 32;
  std::memcpy(h.main_hash.data(), slice(data, offset, 32).data(), 32);
  offset += 32;
  h.counter = get_u64_be(data, offset);
  offset += 8;
  const std::uint32_t bucket_count = get_u32_be(data, offset);
  offset += 4;
  constexpr std::size_t kMsetSize = mset::MsetXorHash::kDigestSize + 8;
  h.buckets.reserve(bucket_count);
  for (std::uint32_t i = 0; i < bucket_count; ++i) {
    h.buckets.push_back(
        mset::MsetXorHash::deserialize(slice(data, offset, kMsetSize)));
    offset += kMsetSize;
  }
  if (offset != data.size()) throw IntegrityError("hash header: trailing data");
  if (bucket_count != 0 && bucket_count != expected_buckets)
    throw IntegrityError("hash header: bucket count mismatch");
  return h;
}

// ----------------------------------------------------------- construction ---

TrustedFileManager::TrustedFileManager(Stores stores, BytesView root_key,
                                       RandomSource& rng,
                                       const EnclaveConfig& config,
                                       sgx::SgxPlatform* platform,
                                       const sgx::Measurement& measurement,
                                       GuardState guard_state,
                                       sgx::CounterProvider* counters)
    : config_(config),
      root_key_(root_key.begin(), root_key.end()),
      rng_(rng),
      platform_(platform),
      measurement_(measurement),
      content_store_(stores.content),
      group_store_(stores.group),
      dedup_store_(stores.dedup),
      crypto_pool_(std::make_unique<pfs::CryptoPool>(config.crypto_threads)),
      content_cache_(std::make_unique<pfs::ContentCache>(
          config.content_cache_bytes, platform)),
      store_io_(std::make_unique<store::StoreIoPool>(
          store::StoreIoPool::Options{config.store_io_threads,
                                      config.store_queue_depth},
          platform)),
      content_fs_(stores.content,
                  crypto::hkdf({}, root_key, to_bytes("content-fs"), 16), rng,
                  platform, config.switchless,
                  pfs::PfsTuning{.pool = crypto_pool_.get(),
                                 .cache = content_cache_.get(),
                                 .cache_ns = "c:",
                                 .io = store_io_.get()}),
      group_fs_(stores.group,
                crypto::hkdf({}, root_key, to_bytes("group-fs"), 16), rng,
                platform, config.switchless,
                pfs::PfsTuning{.pool = crypto_pool_.get(),
                               .cache = content_cache_.get(),
                               .cache_ns = "g:",
                               .io = store_io_.get()}),
      dedup_fs_(stores.dedup,
                crypto::hkdf({}, root_key, to_bytes("dedup-fs"), 16), rng,
                platform, config.switchless,
                pfs::PfsTuning{.pool = crypto_pool_.get(),
                               .cache = content_cache_.get(),
                               .cache_ns = "d:",
                               .io = store_io_.get()}),
      header_key_(crypto::hkdf({}, root_key, to_bytes("hash-headers"), 16)),
      header_gcm_(header_key_),
      name_key_(crypto::hkdf({}, root_key, to_bytes("name-hiding"), 32)),
      mset_key_(crypto::hkdf({}, root_key, to_bytes("multiset-prf"), 32)),
      fs_counter_id_(guard_state.fs_counter),
      group_counter_id_(guard_state.group_counter),
      header_cache_(config.metadata_cache_bytes / 2, platform),
      object_cache_(config.metadata_cache_bytes -
                        config.metadata_cache_bytes / 2,
                    platform) {
  if (root_key_.size() != 16)
    throw CryptoError("SK_r must be 16 bytes (AES-128)");
  if (!config_.paged_metadata)
    throw EnclaveError("paged_metadata = false is no longer supported");
  // Every §V-E guard mode keeps the amap roots in protected memory, so a
  // platform is required even when the caller supplies the counters.
  if (config_.fs_guard != FsRollbackGuard::kNone && platform_ == nullptr)
    throw EnclaveError("a §V-E guard requires a platform");
  if (config_.fs_guard == FsRollbackGuard::kMonotonicCounter) {
    counters_ = counters;
    if (counters_ == nullptr) {
      owned_counters_ = std::make_unique<sgx::PlatformCounters>(*platform_);
      counters_ = owned_counters_.get();
    }
    if (!fs_counter_id_) fs_counter_id_ = counters_->create();
    if (!group_counter_id_) group_counter_id_ = counters_->create();
  }
  amap::AmapOptions base;
  base.page_bytes = config_.amap_page_bytes;
  base.pool = crypto_pool_.get();
  base.platform = platform_;
  base.switchless = config_.switchless;
  base.io = store_io_.get();
  // Budget split: the membership index is tiny next to the dedup index,
  // so it gets a 1/8 slice and the dedup map (when on) the rest.
  const std::size_t group_slice = config_.amap_cache_bytes / 8;
  if (config_.deduplication) {
    amap::AmapOptions o = base;
    o.name = "dedup";
    o.cache_bytes = config_.amap_cache_bytes - group_slice;
    o.journal_bytes = config_.amap_journal_bytes;
    dedup_amap_ = std::make_unique<amap::AuthenticatedPageMap>(
        dedup_store_, crypto::hkdf({}, root_key, to_bytes("amap-dedup"), 16),
        rng, std::move(o));
  }
  amap::AmapOptions o = base;
  o.name = "group";
  o.cache_bytes = group_slice;
  o.journal_bytes = config_.amap_journal_bytes;
  // Partition the bucket hash on "g:<gid>:" so one group's reverse
  // membership entries share a chain: deleting a group scans O(members)
  // pages, not O(store).
  o.hash_prefix_delimiters = 2;
  group_amap_ = std::make_unique<amap::AuthenticatedPageMap>(
      group_store_, crypto::hkdf({}, root_key, to_bytes("amap-group"), 16),
      rng, std::move(o));
}

TrustedFileManager::GuardState TrustedFileManager::guard_state() const {
  return GuardState{fs_counter_id_, group_counter_id_};
}

// ---------------------------------------------------------------- naming ---

std::string TrustedFileManager::physical(const std::string& logical) const {
  if (!config_.hide_names) return "f:" + logical;
  return to_hex(crypto::HmacSha256::mac(name_key_, to_bytes("f:" + logical)));
}

std::string TrustedFileManager::header_blob(const std::string& logical) const {
  if (!config_.hide_names) return "h:" + logical;
  return to_hex(crypto::HmacSha256::mac(name_key_, to_bytes("h:" + logical)));
}

std::string TrustedFileManager::group_physical(
    const std::string& record) const {
  if (!config_.hide_names) return "g:" + record;
  return to_hex(crypto::HmacSha256::mac(name_key_, to_bytes("g:" + record)));
}

// --------------------------------------------------------- content store ---

bool TrustedFileManager::exists(const std::string& logical) const {
  return content_fs_.exists(physical(logical));
}

Bytes TrustedFileManager::raw_read_content(const std::string& logical) const {
  return content_fs_.read_file(physical(logical));
}

Bytes TrustedFileManager::read(const std::string& logical) const {
  const bool cacheable = is_metadata_object(logical);
  if (cacheable) {
    if (auto hit = object_cache_.get(logical)) return std::move(*hit);
  }
  Bytes content = raw_read_content(logical);
  if (config_.rollback_protection)
    tree_validate(logical, crypto::Sha256::hash(content));
  if (config_.deduplication && is_link(content)) {
    const std::string hname = link_target(content);
    Bytes data = dedup_fs_.read_file(hname);
    // The dedup store is self-validating against rollback: the blob name
    // is HMAC(SK_r, content), so a stale blob no longer matches its name.
    const auto mac = crypto::HmacSha256::mac(root_key_, data);
    if (to_hex(mac) != hname)
      throw RollbackError("dedup object does not match its name");
    if (cacheable) object_cache_.put(logical, data, data.size());
    return data;
  }
  // Insert only after validation so tampered store content can never
  // poison the cache.
  if (cacheable) object_cache_.put(logical, content, content.size());
  return content;
}

std::vector<std::string> TrustedFileManager::list(const std::string& dir) const {
  // read() validates the directory record against the hash tree.
  return fs::Directory::parse(read(dir)).children();
}

void TrustedFileManager::write(const std::string& logical, BytesView content) {
  // Overwriting a dedup indirection must release the old shared blob's
  // reference, exactly like Upload::finish() and commit_by_hash() do.
  release_dedup_link(logical);
  content_fs_.write_file(physical(logical), content);
  if (config_.rollback_protection)
    tree_on_write(logical, crypto::Sha256::hash(content));
  if (is_metadata_object(logical))
    object_cache_.put(logical, Bytes(content.begin(), content.end()),
                      content.size());
  flush_paged_metadata();
}

void TrustedFileManager::remove(const std::string& logical) {
  release_dedup_link(logical);
  content_fs_.remove_file(physical(logical));
  if (config_.rollback_protection) tree_on_remove(logical);
  object_cache_.erase(logical);
  flush_paged_metadata();
}

void TrustedFileManager::move_object(const std::string& from,
                                     const std::string& to) {
  const Bytes raw = raw_read_content(from);
  content_fs_.write_file(physical(to), raw);
  content_fs_.remove_file(physical(from));
  if (config_.rollback_protection) {
    tree_on_remove(from);
    tree_on_write(to, crypto::Sha256::hash(raw));
  }
  object_cache_.erase(from);
  object_cache_.erase(to);
  if (is_metadata_object(to) && !(config_.deduplication && is_link(raw)))
    object_cache_.put(to, raw, raw.size());
}

std::uint64_t TrustedFileManager::logical_size(
    const std::string& logical) const {
  const std::uint64_t raw = content_fs_.file_size(physical(logical));
  // A dedup indirection is a few dozen bytes, so only a single-chunk
  // object can be one: probing just the first PFS chunk keeps PROPFIND on
  // a large non-link file O(1) instead of decrypting the whole object.
  if (config_.deduplication && raw > 0 && raw <= pfs::kChunkSize) {
    const auto reader = content_fs_.open_reader(physical(logical));
    const Bytes first = reader->read_chunk(0);
    if (is_link(first)) return dedup_fs_.file_size(link_target(first));
  }
  return raw;
}

// ---------------------------------------------------------------- upload ---

TrustedFileManager::Upload::Upload(TrustedFileManager& tfm, std::string logical)
    : tfm_(tfm), logical_(std::move(logical)), dedup_mac_(tfm.root_key_) {
  // Both modes stream into a staging temporary: a client that disconnects
  // mid-upload must not leave a partial object under the final name (the
  // tree never registered it, so nothing would ever detect it).
  temp_name_ = "tmp-" + to_hex(tfm_.rng_.bytes(16));
  writer_ = tfm_.config_.deduplication
                ? tfm_.dedup_fs_.open_writer(temp_name_)
                : tfm_.content_fs_.open_writer(temp_name_);
}

TrustedFileManager::Upload::~Upload() {
  if (!finished_) {
    // Abandoned upload: drop the staged temporary (the prefix-scan
    // fallback in remove_file cleans up chunks without a metadata node).
    writer_.reset();
    if (tfm_.config_.deduplication) {
      tfm_.dedup_fs_.remove_file(temp_name_);
    } else {
      tfm_.content_fs_.remove_file(temp_name_);
    }
  }
}

void TrustedFileManager::Upload::append(BytesView data) {
  if (finished_) throw ProtocolError("upload: append after finish");
  writer_->append(data);
  content_hash_.update(data);
  if (tfm_.config_.deduplication) dedup_mac_.update(data);
  size_ += data.size();
}

void TrustedFileManager::Upload::finish() {
  if (finished_) return;
  writer_->close();
  finished_ = true;

  if (tfm_.config_.deduplication) {
    // §V-A: deduplicate by content MAC; the single encrypted copy lives in
    // the dedup store, the content store holds an indirection.
    const std::string hname = to_hex(dedup_mac_.finish());
    // The refcount bump touches one amap page (O(page)), independent of
    // the number of deduplicated files.
    auto& am = *tfm_.dedup_amap_;
    const auto rc = am.get("r:" + hname);
    Bytes encoded;
    put_u64_be(encoded, rc ? get_u64_be(*rc, 0) + 1 : 1);
    if (rc) {
      tfm_.dedup_fs_.remove_file(temp_name_);
    } else {
      tfm_.dedup_fs_.rename_file(temp_name_, hname);
    }
    am.put("r:" + hname, encoded);
    if (tfm_.config_.client_side_dedup) {
      // Remember the plaintext hash so later probes can hit.
      crypto::Sha256 copy = content_hash_;
      const std::string chash = to_hex(copy.finish());
      am.put("c:" + chash, to_bytes(hname));
      am.put("b:" + hname, to_bytes(chash));
    }
    {
      const std::lock_guard<std::mutex> stats_lock(tfm_.dedup_stats_mutex_);
      if (rc) {
        ++tfm_.dedup_stats_.hits;
      } else {
        ++tfm_.dedup_stats_.stores;
        ++tfm_.dedup_stats_.blobs;
      }
      ++tfm_.dedup_stats_.refs;
    }

    // If the logical file previously pointed at other content, release it.
    if (tfm_.exists(logical_)) tfm_.remove(logical_);
    const Bytes link = make_link(hname);
    tfm_.content_fs_.write_file(tfm_.physical(logical_), link);
    tfm_.object_cache_.erase(logical_);
    if (tfm_.config_.rollback_protection)
      tfm_.tree_on_write(logical_, crypto::Sha256::hash(link));
    tfm_.flush_paged_metadata();
    return;
  }

  tfm_.content_fs_.rename_file(temp_name_, tfm_.physical(logical_));
  tfm_.object_cache_.erase(logical_);
  if (tfm_.config_.rollback_protection)
    tfm_.tree_on_write(logical_, content_hash_.finish());
}

std::unique_ptr<TrustedFileManager::Upload> TrustedFileManager::begin_upload(
    const std::string& logical) {
  return std::unique_ptr<Upload>(new Upload(*this, logical));
}

bool TrustedFileManager::commit_by_hash(
    const std::string& logical, const crypto::Sha256::Digest& content_hash) {
  if (!config_.deduplication || !config_.client_side_dedup)
    throw ProtocolError("client-side dedup disabled");
  // Probe read-only first: a miss (the common case for novel content)
  // must not dirty any pages.
  const auto hit = dedup_amap_->get("c:" + to_hex(content_hash));
  if (!hit) return false;
  const std::string hname = to_string(*hit);

  const auto rc = dedup_amap_->get("r:" + hname);
  Bytes encoded;
  put_u64_be(encoded, rc ? get_u64_be(*rc, 0) + 1 : 1);
  dedup_amap_->put("r:" + hname, encoded);
  {
    const std::lock_guard<std::mutex> stats_lock(dedup_stats_mutex_);
    ++dedup_stats_.hits;
    ++dedup_stats_.refs;
  }

  if (exists(logical)) remove(logical);
  const Bytes link = make_link(hname);
  content_fs_.write_file(physical(logical), link);
  object_cache_.erase(logical);
  if (config_.rollback_protection)
    tree_on_write(logical, crypto::Sha256::hash(link));
  flush_paged_metadata();
  return true;
}

// -------------------------------------------------------------- download ---

std::uint64_t TrustedFileManager::Download::size() const {
  return reader_->size();
}

std::uint64_t TrustedFileManager::Download::chunk_count() const {
  return reader_->chunk_count();
}

Bytes TrustedFileManager::Download::read_chunk(std::uint64_t index) {
  if (validate_ && index != next_chunk_)
    throw ProtocolError("download: chunks must be read in order");
  Bytes chunk = reader_->read_chunk(index);
  if (validate_) {
    hasher_.update(chunk);
    ++next_chunk_;
  }
  return chunk;
}

void TrustedFileManager::Download::finalize() {
  if (!validate_) return;
  if (next_chunk_ != reader_->chunk_count())
    throw ProtocolError("download: finalize before all chunks read");
  if (expected_hash_ && hasher_.finish() != *expected_hash_)
    throw RollbackError("download content does not match hash tree");
  validate_ = false;
}

std::unique_ptr<TrustedFileManager::Download> TrustedFileManager::open_download(
    const std::string& logical) const {
  auto download = std::unique_ptr<Download>(new Download());
  const bool rollback = config_.rollback_protection;
  std::optional<crypto::Sha256::Digest> expected;
  if (rollback) expected = tree_validate_structure(logical);

  if (config_.deduplication) {
    const Bytes content = raw_read_content(logical);
    if (rollback && expected &&
        crypto::Sha256::hash(content) != *expected)
      throw RollbackError("content object does not match hash tree");
    if (is_link(content)) {
      // The link object was already fully validated; the dedup blob is
      // integrity-protected chunk-wise by the Protected FS layer.
      download->reader_ = dedup_fs_.open_reader(link_target(content));
      download->validate_ = false;
      return download;
    }
    download->reader_ = content_fs_.open_reader(physical(logical));
    download->validate_ = false;
    return download;
  }

  download->reader_ = content_fs_.open_reader(physical(logical));
  download->validate_ = rollback;
  download->expected_hash_ = expected;
  return download;
}

// ----------------------------------------------------------- group store ---

fs::GroupList TrustedFileManager::load_group_list() const {
  const std::string phys = group_physical(kGroupListRecord);
  if (!group_fs_.exists(phys)) return fs::GroupList{};
  const Bytes content = group_fs_.read_file(phys);
  group_validate(kGroupListRecord, content);
  return fs::GroupList::parse(content);
}

void TrustedFileManager::save_group_list(const fs::GroupList& list) {
  const Bytes content = list.serialize();
  group_fs_.write_file(group_physical(kGroupListRecord), content);
  group_on_write(kGroupListRecord, content);
}

namespace {
std::string member_record(const std::string& user) { return "member:" + user; }
}  // namespace

bool TrustedFileManager::member_list_exists(const std::string& user) const {
  return group_fs_.exists(group_physical(member_record(user)));
}

fs::MemberList TrustedFileManager::load_member_list(
    const std::string& user) const {
  const std::string record = member_record(user);
  const Bytes content = group_fs_.read_file(group_physical(record));
  group_validate(record, content);
  return fs::MemberList::parse(content);
}

std::string TrustedFileManager::group_user_key(const std::string& user) {
  return "u:" + user;
}

std::string TrustedFileManager::group_member_key(fs::GroupId group,
                                                 const std::string& user) {
  return "g:" + std::to_string(group) + ":" + user;
}

void TrustedFileManager::check_member_name(const std::string& user) const {
  // The longest key save_member_list() can write for this user; the empty
  // value adds nothing. A user the group amap cannot index would be left
  // out of the authoritative membership index and fail the next guarded
  // startup validation.
  const std::string longest = group_member_key(
      std::numeric_limits<fs::GroupId>::max(), user);
  if (longest.size() > group_amap_->max_entry_bytes())
    throw ProtocolError("user name too long for the membership index");
}

void TrustedFileManager::save_member_list(const std::string& user,
                                          const fs::MemberList& list) {
  check_member_name(user);
  const std::string record = member_record(user);
  const bool is_new = !group_fs_.exists(group_physical(record));
  // Previous membership for the reverse-index diff — must be read before
  // the record is overwritten.
  std::vector<fs::GroupId> before;
  if (!is_new) before = load_member_list(user).groups();
  const Bytes content = list.serialize();
  group_fs_.write_file(group_physical(record), content);
  group_on_write(record, content);
  // Register the user and diff the reverse membership index: O(changed
  // groups) page touches.
  if (is_new) group_amap_->put(group_user_key(user), BytesView{});
  const auto& after = list.groups();  // both sides sorted
  for (const fs::GroupId g : after)
    if (!std::binary_search(before.begin(), before.end(), g))
      group_amap_->put(group_member_key(g, user), BytesView{});
  for (const fs::GroupId g : before)
    if (!std::binary_search(after.begin(), after.end(), g))
      group_amap_->erase(group_member_key(g, user));
  flush_paged_group();
}

std::vector<std::string> TrustedFileManager::member_list_users() const {
  // Page-streamed scan of the user registry: each visited page is verified
  // against the pinned-tag table, and only one decrypted page batch is
  // resident at a time.
  std::vector<std::string> users;
  group_amap_->for_each_prefix("u:", [&](const std::string& key, const Bytes&) {
    users.push_back(key.substr(2));
    return true;
  });
  std::sort(users.begin(), users.end());
  return users;
}

std::vector<std::string> TrustedFileManager::group_member_users(
    fs::GroupId group) const {
  // Partitioned prefix scan: every "g:<gid>:*" key hashes to the prefix's
  // bucket (hash_prefix_delimiters = 2), so this reads exactly the
  // group's own chain — O(members) pages, not O(store).
  const std::string prefix = "g:" + std::to_string(group) + ":";
  std::vector<std::string> users;
  group_amap_->for_each_prefix(
      prefix, [&](const std::string& key, const Bytes&) {
        users.push_back(key.substr(prefix.size()));
        return true;
      });
  std::sort(users.begin(), users.end());
  return users;
}

void TrustedFileManager::group_on_write(const std::string& record,
                                        BytesView content) {
  const auto new_hash = crypto::Sha256::hash(content);
  {
    const std::lock_guard<std::mutex> lock(group_hash_mutex_);
    const auto it = group_record_hashes_.find(record);
    if (it != group_record_hashes_.end()) {
      group_root_.remove(mset_key_, concat(to_bytes(record), it->second));
    }
    group_root_.add(mset_key_, concat(to_bytes(record), new_hash));
    group_record_hashes_[record] = new_hash;
  }
  guard_update_group();
}

void TrustedFileManager::group_on_remove(const std::string& record) {
  {
    const std::lock_guard<std::mutex> lock(group_hash_mutex_);
    const auto it = group_record_hashes_.find(record);
    if (it == group_record_hashes_.end()) return;
    group_root_.remove(mset_key_, concat(to_bytes(record), it->second));
    group_record_hashes_.erase(it);
  }
  guard_update_group();
}

void TrustedFileManager::group_validate(const std::string& record,
                                        BytesView content) const {
  // Intra-session (and, with a §V-E guard, cross-restart) rollback
  // protection for the small administration records: the enclave caches
  // every record's fresh hash. First sightings are inserted on *read*
  // paths, which run concurrently under the shared fs lock — hence the
  // dedicated mutex.
  const auto actual = crypto::Sha256::hash(content);
  const std::lock_guard<std::mutex> lock(group_hash_mutex_);
  const auto it = group_record_hashes_.find(record);
  if (it != group_record_hashes_.end()) {
    if (actual != it->second)
      throw RollbackError("group-store record is stale: " + record);
    return;
  }
  group_record_hashes_[record] = actual;  // first sighting this session
}

void TrustedFileManager::guard_update_group() {
  switch (config_.fs_guard) {
    case FsRollbackGuard::kNone:
      return;
    case FsRollbackGuard::kProtectedMemory:
      platform_->protected_put(measurement_, "group-root",
                               group_root_.serialize());
      return;
    case FsRollbackGuard::kMonotonicCounter: {
      const std::uint64_t value = counters_->increment(*group_counter_id_);
      Bytes record = group_root_.serialize();
      put_u64_be(record, value);
      group_fs_.write_file(group_physical("grouproot"), record);
      return;
    }
  }
}

// ------------------------------------------------------------ rollback tree ---

namespace {
/// Tree parent per Fig. 2: an ACL is a sibling of the file it protects
/// (child of that file's parent); the root's own ACL hangs off the root.
std::string tree_parent_of(const std::string& logical) {
  std::string base = logical;
  constexpr std::string_view kAclSuffix = ".acl";
  if (base.size() >= kAclSuffix.size() &&
      base.compare(base.size() - kAclSuffix.size(), kAclSuffix.size(),
                   kAclSuffix) == 0)
    base = base.substr(0, base.size() - kAclSuffix.size());
  if (base == "/" || base.empty()) return "/";
  return fs::parent(base);
}
}  // namespace

std::size_t TrustedFileManager::header_bytes(const HashHeader& header) {
  constexpr std::size_t kMsetSize = mset::MsetXorHash::kDigestSize + 8;
  return 32 + 32 + 8 + 4 + header.buckets.size() * kMsetSize;
}

std::optional<TrustedFileManager::HashHeader> TrustedFileManager::load_header(
    const std::string& logical) const {
  if (auto cached = header_cache_.get(logical)) return cached;
  const auto blob = content_store_.get(header_blob(logical));
  if (!blob) return std::nullopt;
  HashHeader header = HashHeader::parse(
      crypto::pae_decrypt_with(header_gcm_, *blob, to_bytes("hdr:" + logical)),
      config_.rollback_buckets);
  header_cache_.put(logical, header, header_bytes(header));
  return header;
}

void TrustedFileManager::store_header(const std::string& logical,
                                      const HashHeader& header) {
  content_store_.put(header_blob(logical),
                     crypto::pae_encrypt_with(header_gcm_, rng_,
                                              header.serialize(),
                                              to_bytes("hdr:" + logical)));
  header_cache_.put(logical, header, header_bytes(header));
}

void TrustedFileManager::remove_header(const std::string& logical) {
  content_store_.remove(header_blob(logical));
  header_cache_.erase(logical);
}

std::size_t TrustedFileManager::bucket_of(const std::string& logical) const {
  return crypto::Sha256::hash(to_bytes(logical))[0] % config_.rollback_buckets;
}

bool TrustedFileManager::is_tree_node_dir(const std::string& logical) const {
  return fs::is_dir_path(logical);
}

crypto::Sha256::Digest TrustedFileManager::leaf_main(
    const std::string& logical, const crypto::Sha256::Digest& content) const {
  crypto::Sha256 h;
  h.update(to_bytes("leaf:" + logical + ":"));
  h.update(content);
  return h.finish();
}

crypto::Sha256::Digest TrustedFileManager::dir_main(
    const std::string& logical, const HashHeader& header) const {
  crypto::Sha256 h;
  h.update(to_bytes("dir:" + logical + ":"));
  h.update(header.content_hash);
  for (const auto& bucket : header.buckets) h.update(bucket.digest());
  return h.finish();
}

void TrustedFileManager::tree_on_write(
    const std::string& logical, const crypto::Sha256::Digest& content_hash) {
  auto existing = load_header(logical);
  HashHeader header = existing.value_or(HashHeader{});
  header.content_hash = content_hash;
  std::optional<crypto::Sha256::Digest> old_main;
  if (existing) old_main = existing->main_hash;

  if (is_tree_node_dir(logical)) {
    if (header.buckets.empty())
      header.buckets.resize(config_.rollback_buckets);
    header.main_hash = dir_main(logical, header);
  } else {
    header.main_hash = leaf_main(logical, content_hash);
  }

  if (logical == "/") {
    if (config_.fs_guard == FsRollbackGuard::kMonotonicCounter)
      header.counter = counters_->increment(*fs_counter_id_);
    store_header(logical, header);
    guard_update(header);
    return;
  }
  store_header(logical, header);
  tree_propagate(logical, old_main, header.main_hash);
}

void TrustedFileManager::tree_on_remove(const std::string& logical) {
  const auto header = load_header(logical);
  if (!header) return;
  remove_header(logical);
  if (logical == "/") return;  // the root is never removed
  tree_propagate(logical, header->main_hash, std::nullopt);
}

void TrustedFileManager::tree_propagate(
    const std::string& child,
    const std::optional<crypto::Sha256::Digest>& old_main,
    const std::optional<crypto::Sha256::Digest>& new_main) {
  const std::string parent = tree_parent_of(child);
  auto existing = load_header(parent);
  HashHeader header = existing.value_or(HashHeader{});
  if (header.buckets.empty()) header.buckets.resize(config_.rollback_buckets);
  std::optional<crypto::Sha256::Digest> parent_old_main;
  if (existing) parent_old_main = existing->main_hash;

  auto& bucket = header.buckets[bucket_of(child)];
  if (old_main) bucket.remove(mset_key_, *old_main);
  if (new_main) bucket.add(mset_key_, *new_main);
  header.main_hash = dir_main(parent, header);

  if (parent == "/") {
    if (config_.fs_guard == FsRollbackGuard::kMonotonicCounter)
      header.counter = counters_->increment(*fs_counter_id_);
    store_header(parent, header);
    guard_update(header);
    return;
  }
  store_header(parent, header);
  tree_propagate(parent, parent_old_main, header.main_hash);
}

bool TrustedFileManager::is_metadata_object(const std::string& logical) {
  return fs::is_dir_path(logical) ||
         (logical.size() >= 4 &&
          logical.compare(logical.size() - 4, 4, ".acl") == 0);
}

Bytes TrustedFileManager::cached_dir_content(const std::string& dir) const {
  // Cache hits only — the cache is populated by read()/write() after
  // validation, so unvalidated store content never enters it here.
  if (auto hit = object_cache_.get(dir)) return std::move(*hit);
  return raw_read_content(dir);
}

std::vector<std::string> TrustedFileManager::bucket_children(
    const std::string& dir, std::size_t bucket) const {
  std::vector<std::string> result;
  const Bytes content = cached_dir_content(dir);
  const fs::Directory directory = fs::Directory::parse(content);
  auto consider = [&](const std::string& node) {
    if (bucket_of(node) == bucket && exists(node)) result.push_back(node);
  };
  for (const auto& child : directory.children()) {
    consider(child);
    consider(child + ".acl");
  }
  if (dir == "/") consider("/.acl");
  return result;
}

std::optional<crypto::Sha256::Digest>
TrustedFileManager::tree_validate_structure(const std::string& logical) const {
  if (!config_.rollback_protection) return std::nullopt;
  const auto header = load_header(logical);
  if (!header)
    throw RollbackError("no hash-tree header for " + logical);

  // Own main-hash consistency.
  const auto expected_main =
      is_tree_node_dir(logical) ? dir_main(logical, *header)
                                : leaf_main(logical, header->content_hash);
  if (expected_main != header->main_hash)
    throw RollbackError("inconsistent hash header for " + logical);

  // Walk to the root: one bucket re-computation per level (§V-D second
  // optimization — only same-bucket siblings are touched).
  std::string cur = logical;
  while (cur != "/") {
    const std::string parent = tree_parent_of(cur);
    const auto parent_header = load_header(parent);
    if (!parent_header)
      throw RollbackError("missing hash header for " + parent);
    const Bytes parent_content = cached_dir_content(parent);
    if (crypto::Sha256::hash(parent_content) != parent_header->content_hash)
      throw RollbackError("stale directory content: " + parent);
    if (dir_main(parent, *parent_header) != parent_header->main_hash)
      throw RollbackError("inconsistent hash header for " + parent);

    const std::size_t bucket = bucket_of(cur);
    mset::MsetXorHash recomputed;
    for (const auto& sibling : bucket_children(parent, bucket)) {
      const auto sibling_header = load_header(sibling);
      if (!sibling_header)
        throw RollbackError("missing hash header for " + sibling);
      recomputed.add(mset_key_, sibling_header->main_hash);
    }
    if (recomputed != parent_header->buckets[bucket])
      throw RollbackError("bucket hash mismatch under " + parent);
    cur = parent;
  }
  guard_check(*load_header("/"));
  return header->content_hash;
}

void TrustedFileManager::tree_validate(
    const std::string& logical,
    const crypto::Sha256::Digest& content_hash) const {
  const auto expected = tree_validate_structure(logical);
  if (expected && *expected != content_hash)
    throw RollbackError("content does not match hash tree: " + logical);
}

void TrustedFileManager::guard_update(const HashHeader& root_header) {
  switch (config_.fs_guard) {
    case FsRollbackGuard::kNone:
      return;
    case FsRollbackGuard::kProtectedMemory:
      platform_->protected_put(measurement_, "fs-root",
                               BytesView(root_header.main_hash));
      return;
    case FsRollbackGuard::kMonotonicCounter:
      // Counter already incremented and stored in the header by callers.
      return;
  }
}

void TrustedFileManager::guard_check(const HashHeader& root_header) const {
  switch (config_.fs_guard) {
    case FsRollbackGuard::kNone:
      return;
    case FsRollbackGuard::kProtectedMemory: {
      const auto guarded = platform_->protected_get(measurement_, "fs-root");
      if (!guarded ||
          !constant_time_equal(*guarded, root_header.main_hash))
        throw RollbackError("file-system root hash does not match guard");
      return;
    }
    case FsRollbackGuard::kMonotonicCounter: {
      const std::uint64_t current = counters_->read(*fs_counter_id_);
      if (root_header.counter != current)
        throw RollbackError("file-system counter mismatch (rollback)");
      return;
    }
  }
}

// ----------------------------------------------------------------- dedup ---

void TrustedFileManager::release_dedup_link(const std::string& logical) {
  if (!config_.deduplication || !exists(logical)) return;
  const Bytes content = raw_read_content(logical);
  if (!is_link(content)) return;
  const std::string hname = link_target(content);
  auto& am = *dedup_amap_;
  const auto rc = am.get("r:" + hname);
  if (!rc) return;
  const std::uint64_t refs = get_u64_be(*rc, 0);
  const std::lock_guard<std::mutex> stats_lock(dedup_stats_mutex_);
  ++dedup_stats_.releases;
  if (dedup_stats_.refs > 0) --dedup_stats_.refs;
  if (refs <= 1) {
    am.erase("r:" + hname);
    dedup_fs_.remove_file(hname);
    // The back-pointer makes last-reference GC O(page): no scan over the
    // whole client index to find the entry naming this blob.
    if (const auto chash = am.get("b:" + hname)) {
      am.erase("c:" + to_string(*chash));
      am.erase("b:" + hname);
    }
    if (dedup_stats_.blobs > 0) --dedup_stats_.blobs;
  } else {
    Bytes encoded;
    put_u64_be(encoded, refs - 1);
    am.put("r:" + hname, encoded);
  }
}

bool TrustedFileManager::is_link(BytesView content) {
  const Bytes magic = to_bytes(kLinkMagic);
  return content.size() > magic.size() &&
         std::equal(magic.begin(), magic.end(), content.begin());
}

std::string TrustedFileManager::link_target(BytesView content) {
  const Bytes magic = to_bytes(kLinkMagic);
  return to_string(content.subspan(magic.size()));
}

Bytes TrustedFileManager::make_link(const std::string& hname) {
  return concat(to_bytes(kLinkMagic), to_bytes(hname));
}

// ------------------------------------------------------------ accounting ---

std::uint64_t TrustedFileManager::content_store_bytes() const {
  return content_store_.total_bytes();
}

std::uint64_t TrustedFileManager::dedup_store_bytes() const {
  return dedup_store_.total_bytes();
}

std::uint64_t TrustedFileManager::group_store_bytes() const {
  return group_store_.total_bytes();
}

TrustedFileManager::CacheStats TrustedFileManager::cache_stats() const {
  return CacheStats{header_cache_.counters(), object_cache_.counters()};
}

TrustedFileManager::DedupStats TrustedFileManager::dedup_stats() const {
  const std::lock_guard<std::mutex> lock(dedup_stats_mutex_);
  return dedup_stats_;
}

std::optional<std::uint64_t> TrustedFileManager::dedup_refcount(
    const std::string& hname) const {
  if (!config_.deduplication) return std::nullopt;
  if (const auto rc = dedup_amap_->get("r:" + hname))
    return get_u64_be(*rc, 0);
  return std::nullopt;
}

TrustedFileManager::AmapStats TrustedFileManager::amap_stats() const {
  AmapStats out;
  if (dedup_amap_) out.dedup = dedup_amap_->stats();
  out.group = group_amap_->stats();
  return out;
}

std::uint64_t TrustedFileManager::compact_paged_metadata() {
  std::uint64_t reclaimed = 0;
  if (dedup_amap_) {
    reclaimed += dedup_amap_->compact();
    guard_update_amap(*dedup_amap_, kDedupAmapSlot);
  }
  reclaimed += group_amap_->compact();
  guard_update_amap(*group_amap_, kGroupAmapSlot);
  return reclaimed;
}

// ------------------------------------------------------- paged metadata ---

void TrustedFileManager::flush_paged_metadata() {
  if (dedup_amap_ && dedup_amap_->flush())
    guard_update_amap(*dedup_amap_, kDedupAmapSlot);
}

void TrustedFileManager::flush_paged_group() {
  if (group_amap_->flush()) guard_update_amap(*group_amap_, kGroupAmapSlot);
}

void TrustedFileManager::guard_update_amap(amap::AuthenticatedPageMap& map,
                                           const char* slot) {
  // The amap roots are guarded through protected memory in BOTH §V-E
  // guard modes: a per-mutation monotonic-counter increment would cost the
  // modeled 100 ms and burn through the 1M wear limit at production write
  // rates, defeating the O(page) goal (DESIGN.md §9.3). kNone keeps the
  // paper's baseline: no cross-restart freshness for the maps either.
  if (config_.fs_guard == FsRollbackGuard::kNone) return;
  const auto root = map.root();
  platform_->protected_put(measurement_, slot, Bytes(root.begin(), root.end()));
}

void TrustedFileManager::guard_check_amap(amap::AuthenticatedPageMap& map,
                                          const char* slot) {
  if (config_.fs_guard == FsRollbackGuard::kNone) {
    map.reopen(std::nullopt);
    return;
  }
  const auto guarded = platform_->protected_get(measurement_, slot);
  if (!guarded.has_value()) {
    map.reopen(std::nullopt);
    if (map.entry_count() != 0)
      throw RollbackError(std::string(slot) + " guard missing");
    return;
  }
  crypto::Sha256::Digest expected{};
  if (guarded->size() != expected.size())
    throw RollbackError(std::string(slot) + " guard is malformed");
  std::copy(guarded->begin(), guarded->end(), expected.begin());
  map.reopen(expected);
}

void TrustedFileManager::clear_caches() {
  header_cache_.clear();
  object_cache_.clear();
  content_cache_->clear();
}

// ------------------------------------------------------------ maintenance ---

void TrustedFileManager::startup_validation() {
  // Cached metadata was authenticated against the previous trusted state;
  // after a restart (or restore) it must be re-derived from the stores.
  clear_caches();
  // Reload the authoritative amaps' page tables from the stores and (guard
  // modes) check them against their protected-memory roots: a rolled-back
  // or tampered-with table fails closed here, before any request runs.
  if (dedup_amap_) guard_check_amap(*dedup_amap_, kDedupAmapSlot);
  guard_check_amap(*group_amap_, kGroupAmapSlot);
  // Rebuild the group-store root from disk and compare with the guard.
  // Member lists are enumerated from the just-revalidated membership
  // index, a page-streamed scan whose freshness the amap guard vouches for.
  group_record_hashes_.clear();
  group_root_ = mset::MsetXorHash{};
  std::vector<std::string> records = {kGroupListRecord};
  for (const auto& user : member_list_users())
    records.push_back(member_record(user));
  for (const auto& record : records) {
    if (!group_fs_.exists(group_physical(record))) continue;
    const auto hash =
        crypto::Sha256::hash(group_fs_.read_file(group_physical(record)));
    group_root_.add(mset_key_, concat(to_bytes(record), hash));
    group_record_hashes_[record] = hash;
  }

  // With per-file rollback protection active, also verify the content
  // store's guarded root now: a whole-file-system rollback performed
  // while the enclave was down must surface at startup (§V-E / §V-G).
  if (config_.rollback_protection &&
      config_.fs_guard != FsRollbackGuard::kNone) {
    if (const auto root = load_header("/")) guard_check(*root);
  }

  switch (config_.fs_guard) {
    case FsRollbackGuard::kNone:
      return;
    case FsRollbackGuard::kProtectedMemory: {
      const auto guarded = platform_->protected_get(measurement_, "group-root");
      if (guarded.has_value() &&
          mset::MsetXorHash::deserialize(*guarded) != group_root_)
        throw RollbackError("group store was rolled back");
      if (!guarded.has_value() && !group_record_hashes_.empty())
        throw RollbackError("group-store guard missing");
      return;
    }
    case FsRollbackGuard::kMonotonicCounter: {
      const std::string phys = group_physical("grouproot");
      if (!group_fs_.exists(phys)) {
        if (!group_record_hashes_.empty())
          throw RollbackError("group-store guard record missing");
        return;
      }
      const Bytes record = group_fs_.read_file(phys);
      constexpr std::size_t kMsetSize = mset::MsetXorHash::kDigestSize + 8;
      const auto stored =
          mset::MsetXorHash::deserialize(slice(record, 0, kMsetSize));
      const std::uint64_t counter = get_u64_be(record, kMsetSize);
      if (counter != counters_->read(*group_counter_id_))
        throw RollbackError("group store counter mismatch (rollback)");
      if (stored != group_root_)
        throw RollbackError("group store was rolled back");
      return;
    }
  }
}

void TrustedFileManager::accept_restored_state() {
  // §V-G: adopt the on-disk state as authoritative and re-arm the guards.
  group_record_hashes_.clear();
  group_root_ = mset::MsetXorHash{};
  const EnclaveConfig saved = config_;
  config_.fs_guard = FsRollbackGuard::kNone;  // skip checks while rebuilding
  try {
    startup_validation();
  } catch (...) {
    config_ = saved;
    throw;
  }
  config_ = saved;
  guard_update_group();
  // §V-G: the restored amap state (already reopened with no root check
  // above) becomes authoritative — re-arm the guards.
  if (dedup_amap_) guard_update_amap(*dedup_amap_, kDedupAmapSlot);
  guard_update_amap(*group_amap_, kGroupAmapSlot);
  if (config_.rollback_protection && config_.fs_guard != FsRollbackGuard::kNone) {
    auto root = load_header("/");
    if (root) {
      if (config_.fs_guard == FsRollbackGuard::kMonotonicCounter) {
        root->counter = counters_->increment(*fs_counter_id_);
        store_header("/", *root);
      }
      guard_update(*root);
    }
  }
}

}  // namespace seg::core
