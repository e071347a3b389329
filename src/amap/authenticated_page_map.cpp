#include "amap/authenticated_page_map.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "crypto/hmac.h"

namespace seg::amap {

namespace {

// Serialized table-manifest framing. The CORE is unchanged from AMT2:
// magic, initial buckets, level, split pointer, entry count, split count,
// bucket count, segment count, then one pinned GCM tag per segment. AMT3
// appends a JOURNAL SECTION: u64 next sequence number, u32 record count,
// then (u64 sequence, 16-byte pinned GCM tag) per live journal record —
// so the manifest root binds the journal's order and content exactly like
// it binds the segments.
constexpr char kTableMagic[4] = {'A', 'M', 'T', '3'};
constexpr std::size_t kManifestHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kJournalSectionHeaderBytes = 8 + 4;
constexpr std::size_t kJournalEntryBytes = 8 + crypto::AesGcm::kTagSize;
// Journal record plaintext: u64 sequence, u32 op count, then per op a
// u8 type (1 = put, 2 = erase), u16 key length, u32 value length, key,
// value.
constexpr std::size_t kJournalRecordHeaderBytes = 8 + 4;
constexpr std::size_t kJournalOpHeaderBytes = 1 + 2 + 4;
constexpr std::uint8_t kJournalOpPut = 1;
constexpr std::uint8_t kJournalOpErase = 2;

// Buckets per persisted table segment. A flush re-seals only segments
// holding a changed chain (usually one), so per-mutation table cost is
// O(segment), not O(map) — the property the bench_metadata sweep checks.
constexpr std::size_t kBucketsPerSegment = 256;

// Per-entry framing inside a page: u16 key length + u32 value length.
constexpr std::size_t kEntryHeaderBytes = 2 + 4;
// Page prefix: u16 entry count.
constexpr std::size_t kPageHeaderBytes = 2;

constexpr std::size_t kDefaultDirtyFlushPages = 16;

}  // namespace

AuthenticatedPageMap::AuthenticatedPageMap(store::UntrustedStore& store,
                                           BytesView key, RandomSource& rng,
                                           AmapOptions options)
    : store_(store),
      rng_(rng),
      options_(std::move(options)),
      gcm_(key),
      cache_(options_.cache_bytes, options_.platform) {
  if (options_.initial_buckets == 0 ||
      (options_.initial_buckets & (options_.initial_buckets - 1)) != 0) {
    throw Error("amap: initial_buckets must be a power of two");
  }
  if (options_.page_bytes < kPageHeaderBytes + kEntryHeaderBytes + 2) {
    throw Error("amap: page_bytes too small");
  }
  if (options_.dirty_flush_bytes == 0) {
    options_.dirty_flush_bytes = kDefaultDirtyFlushPages * options_.page_bytes;
  }
  // The bucket hash is keyed so the adversary cannot choose keys that all
  // collide into one chain (and the layout leaks nothing about key text).
  hash_key_ = crypto::hkdf(/*salt=*/{}, key,
                           to_bytes("segshare-amap-bucket-hash:" + options_.name),
                           crypto::Sha256::kDigestSize);
  const std::lock_guard lock(mutex_);
  if (store_.exists(table_blob())) {
    charge_io();
    const auto sealed = store_.get(table_blob());
    if (!sealed) throw StorageError("amap: page table vanished");
    load_table(crypto::pae_decrypt_with(gcm_, *sealed,
                                        to_bytes("amap:" + options_.name +
                                                 ":table")));
    have_checkpoint_ = true;
  } else {
    buckets_.assign(options_.initial_buckets, Bucket{});
  }
  adjust_table_residency();
}

AuthenticatedPageMap::~AuthenticatedPageMap() {
  // Bookkeeping only: dirty pages are intentionally dropped (the owner's
  // flush barriers decide durability), but their EPC charge is returned.
  if (options_.platform != nullptr) {
    options_.platform->adjust_epc_resident(
        -static_cast<std::int64_t>(dirty_bytes_ + table_bytes_));
  }
}

std::size_t AuthenticatedPageMap::max_entry_bytes() const {
  return options_.page_bytes - kPageHeaderBytes - kEntryHeaderBytes;
}

std::string AuthenticatedPageMap::page_blob(std::size_t bucket,
                                            std::size_t index) const {
  return "__amap:" + options_.name + ":p" + std::to_string(bucket) + "." +
         std::to_string(index);
}

std::string AuthenticatedPageMap::segment_blob(std::size_t segment) const {
  return "__amap:" + options_.name + ":t" + std::to_string(segment);
}

std::string AuthenticatedPageMap::table_blob() const {
  return "__amap:" + options_.name + ":dir";
}

std::string AuthenticatedPageMap::journal_blob(std::uint64_t seq) const {
  return "__amap:" + options_.name + ":j" + std::to_string(seq);
}

Bytes AuthenticatedPageMap::page_aad(std::size_t bucket,
                                     std::size_t index) const {
  // Binds ciphertext to map identity AND page slot: a valid page cannot be
  // transplanted to another slot (or another map) by the provider.
  return to_bytes("amap:" + options_.name + ":p" + std::to_string(bucket) +
                  "." + std::to_string(index));
}

Bytes AuthenticatedPageMap::segment_aad(std::size_t segment) const {
  return to_bytes("amap:" + options_.name + ":t" + std::to_string(segment));
}

Bytes AuthenticatedPageMap::journal_aad(std::uint64_t seq) const {
  // Binds the record to map identity AND sequence slot: the provider can
  // neither transplant a record to another sequence number nor to another
  // map.
  return to_bytes("amap:" + options_.name + ":j" + std::to_string(seq));
}

std::string_view AuthenticatedPageMap::partition_view(
    const std::string& key) const {
  if (options_.hash_prefix_delimiters == 0) return key;
  std::size_t seen = 0;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (key[i] == ':' && ++seen == options_.hash_prefix_delimiters) {
      return std::string_view(key.data(), i + 1);
    }
  }
  return key;
}

std::optional<std::size_t> AuthenticatedPageMap::partition_of(
    const std::string& prefix) const {
  if (options_.hash_prefix_delimiters == 0) return std::nullopt;
  std::size_t seen = 0;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i] == ':' && ++seen == options_.hash_prefix_delimiters) {
      // The prefix pins the entire hashed span: every key it can match
      // shares this bucket.
      const auto mac = crypto::HmacSha256::mac(
          hash_key_,
          BytesView(reinterpret_cast<const std::uint8_t*>(prefix.data()),
                    i + 1));
      return bucket_of(get_u64_be(BytesView(mac.data(), mac.size()), 0));
    }
  }
  return std::nullopt;
}

std::uint64_t AuthenticatedPageMap::key_hash(const std::string& key) const {
  const std::string_view span = partition_view(key);
  const auto mac = crypto::HmacSha256::mac(
      hash_key_,
      BytesView(reinterpret_cast<const std::uint8_t*>(span.data()),
                span.size()));
  return get_u64_be(BytesView(mac.data(), mac.size()), 0);
}

std::size_t AuthenticatedPageMap::bucket_of(std::uint64_t hash) const {
  const std::size_t base = options_.initial_buckets << level_;
  std::size_t b = static_cast<std::size_t>(hash % base);
  // Buckets below the split pointer have already been split into the next
  // level; their keys hash over 2×base.
  if (b < split_next_) b = static_cast<std::size_t>(hash % (base * 2));
  return b;
}

Bytes AuthenticatedPageMap::serialize_page(const Page& page) const {
  Bytes out;
  out.reserve(options_.page_bytes);
  put_u16_be(out, static_cast<std::uint16_t>(page.size()));
  for (const auto& [key, value] : page) {
    put_u16_be(out, static_cast<std::uint16_t>(key.size()));
    put_u32_be(out, static_cast<std::uint32_t>(value.size()));
    append(out, to_bytes(key));
    append(out, value);
  }
  if (out.size() > options_.page_bytes) {
    throw Error("amap: page overflow during serialization");
  }
  // Pad to the fixed page size: every stored page blob is the same length,
  // so the provider learns nothing from page fill levels.
  out.resize(options_.page_bytes, 0);
  return out;
}

AuthenticatedPageMap::Page AuthenticatedPageMap::parse_page(
    BytesView plain) const {
  if (plain.size() != options_.page_bytes) {
    throw IntegrityError("amap: page has wrong size");
  }
  Page page;
  const std::size_t count = get_u16_be(plain, 0);
  std::size_t off = kPageHeaderBytes;
  page.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t klen = get_u16_be(plain, off);
    const std::size_t vlen = get_u32_be(plain, off + 2);
    off += kEntryHeaderBytes;
    page.emplace_back(to_string(slice(plain, off, klen)),
                      slice(plain, off + klen, vlen));
    off += klen + vlen;
  }
  return page;
}

std::size_t AuthenticatedPageMap::page_payload_bytes(const Page& page) const {
  std::size_t total = kPageHeaderBytes;
  for (const auto& [key, value] : page) {
    total += kEntryHeaderBytes + key.size() + value.size();
  }
  return total;
}

std::size_t AuthenticatedPageMap::segment_count() const {
  return (buckets_.size() + kBucketsPerSegment - 1) / kBucketsPerSegment;
}

Bytes AuthenticatedPageMap::serialize_segment(std::size_t segment) const {
  const std::size_t begin = segment * kBucketsPerSegment;
  const std::size_t end =
      std::min(begin + kBucketsPerSegment, buckets_.size());
  Bytes out;
  out.reserve((end - begin) * (2 + 2 * crypto::AesGcm::kTagSize));
  for (std::size_t b = begin; b < end; ++b) {
    put_u16_be(out, static_cast<std::uint16_t>(buckets_[b].page_tags.size()));
    for (const auto& tag : buckets_[b].page_tags) {
      append(out, BytesView(tag.data(), tag.size()));
    }
  }
  return out;
}

Bytes AuthenticatedPageMap::serialize_manifest_core() const {
  Bytes out;
  out.reserve(kManifestHeaderBytes +
              segment_tags_.size() * crypto::AesGcm::kTagSize);
  append(out, BytesView(reinterpret_cast<const std::uint8_t*>(kTableMagic), 4));
  put_u32_be(out, static_cast<std::uint32_t>(options_.initial_buckets));
  put_u32_be(out, static_cast<std::uint32_t>(level_));
  put_u32_be(out, static_cast<std::uint32_t>(split_next_));
  put_u64_be(out, entries_);
  put_u64_be(out, splits_);
  put_u32_be(out, static_cast<std::uint32_t>(buckets_.size()));
  put_u32_be(out, static_cast<std::uint32_t>(segment_tags_.size()));
  for (const auto& tag : segment_tags_) {
    append(out, BytesView(tag.data(), tag.size()));
  }
  return out;
}

Bytes AuthenticatedPageMap::manifest_bytes() const {
  // Between checkpoints the persisted core must stay the CHECKPOINT's
  // geometry (the stored pages/segments match it), while journaled
  // mutations live only in the appended journal section.
  Bytes out =
      checkpoint_core_.empty() ? serialize_manifest_core() : checkpoint_core_;
  put_u64_be(out, next_journal_seq_);
  put_u32_be(out, static_cast<std::uint32_t>(journal_tags_.size()));
  for (const auto& [seq, tag] : journal_tags_) {
    put_u64_be(out, seq);
    append(out, BytesView(tag.data(), tag.size()));
  }
  return out;
}

void AuthenticatedPageMap::load_table(BytesView manifest_plain) {
  if (manifest_plain.size() < kManifestHeaderBytes ||
      std::memcmp(manifest_plain.data(), kTableMagic, 4) != 0) {
    throw IntegrityError("amap: malformed page table");
  }
  const std::size_t n0 = get_u32_be(manifest_plain, 4);
  if (n0 != options_.initial_buckets) {
    throw IntegrityError("amap: page table bucket geometry mismatch");
  }
  level_ = get_u32_be(manifest_plain, 8);
  split_next_ = get_u32_be(manifest_plain, 12);
  entries_ = get_u64_be(manifest_plain, 16);
  splits_ = get_u64_be(manifest_plain, 24);
  const std::size_t bucket_count = get_u32_be(manifest_plain, 32);
  if (bucket_count != (n0 << level_) + split_next_) {
    throw IntegrityError("amap: page table bucket count mismatch");
  }
  const std::size_t seg_count = get_u32_be(manifest_plain, 36);
  if (seg_count !=
      (bucket_count + kBucketsPerSegment - 1) / kBucketsPerSegment) {
    throw IntegrityError("amap: page table segment count mismatch");
  }
  const std::size_t core_len =
      kManifestHeaderBytes + seg_count * crypto::AesGcm::kTagSize;
  if (manifest_plain.size() < core_len + kJournalSectionHeaderBytes) {
    throw IntegrityError("amap: page table manifest size mismatch");
  }
  segment_tags_.resize(seg_count);
  std::size_t off = kManifestHeaderBytes;
  for (auto& tag : segment_tags_) {
    std::memcpy(tag.data(), manifest_plain.data() + off, tag.size());
    off += tag.size();
  }

  buckets_.assign(bucket_count, Bucket{});
  pages_ = 0;
  for (std::size_t seg = 0; seg < seg_count; ++seg) {
    const std::string name = segment_blob(seg);
    charge_io();
    const auto sealed = store_.get(name);
    if (!sealed) {
      throw RollbackError("amap: table segment " + name +
                          " missing from store");
    }
    // Same freshness rule as pages: the stored segment's GCM tag must be
    // the one the manifest pins — a replayed stale segment fails here.
    if (sealed->size() < crypto::AesGcm::kTagSize ||
        !constant_time_equal(
            BytesView(sealed->data() + sealed->size() -
                          crypto::AesGcm::kTagSize,
                      crypto::AesGcm::kTagSize),
            BytesView(segment_tags_[seg].data(), segment_tags_[seg].size()))) {
      throw RollbackError("amap: table segment " + name +
                          " does not match its pinned tag");
    }
    const Bytes plain =
        crypto::pae_decrypt_with(gcm_, *sealed, segment_aad(seg));
    const std::size_t begin = seg * kBucketsPerSegment;
    const std::size_t end =
        std::min(begin + kBucketsPerSegment, buckets_.size());
    std::size_t seg_off = 0;
    for (std::size_t b = begin; b < end; ++b) {
      if (seg_off + 2 > plain.size()) {
        throw IntegrityError("amap: truncated table segment");
      }
      const std::size_t chain = get_u16_be(plain, seg_off);
      seg_off += 2;
      buckets_[b].page_tags.resize(chain);
      for (auto& tag : buckets_[b].page_tags) {
        if (seg_off + tag.size() > plain.size()) {
          throw IntegrityError("amap: truncated table segment");
        }
        std::memcpy(tag.data(), plain.data() + seg_off, tag.size());
        seg_off += tag.size();
      }
      pages_ += chain;
    }
    if (seg_off != plain.size()) {
      throw IntegrityError("amap: oversized table segment");
    }
  }
  dirty_segments_.clear();

  // The loaded core bytes ARE the checkpoint the journal builds on.
  checkpoint_core_ =
      Bytes(manifest_plain.begin(), manifest_plain.begin() + core_len);

  // Journal section: parse the pinned (sequence, tag) list, then fetch,
  // verify and replay every record in order.
  next_journal_seq_ = get_u64_be(manifest_plain, core_len);
  const std::size_t rec_count =
      get_u32_be(manifest_plain, core_len + 8);
  if (manifest_plain.size() !=
      core_len + kJournalSectionHeaderBytes + rec_count * kJournalEntryBytes) {
    throw IntegrityError("amap: page table manifest size mismatch");
  }
  journal_tags_.clear();
  journal_total_bytes_ = 0;
  pending_ops_.clear();
  deferred_removes_.clear();
  journal_tags_.reserve(rec_count);
  std::size_t joff = core_len + kJournalSectionHeaderBytes;
  for (std::size_t i = 0; i < rec_count; ++i) {
    const std::uint64_t seq = get_u64_be(manifest_plain, joff);
    crypto::AesGcm::Tag tag;
    std::memcpy(tag.data(), manifest_plain.data() + joff + 8, tag.size());
    joff += kJournalEntryBytes;
    // Strict monotonicity below the published next-sequence bound: a
    // duplicated, reordered or future-dated record is a forged/replayed
    // manifest, not a decode error — fail closed as rollback.
    if (seq >= next_journal_seq_ ||
        (i > 0 && seq <= journal_tags_.back().first)) {
      throw RollbackError(
          "amap: journal sequence regression or duplicate in manifest");
    }
    journal_tags_.emplace_back(seq, tag);
  }
  replaying_ = true;
  try {
    for (const auto& [seq, tag] : journal_tags_) {
      const std::string name = journal_blob(seq);
      charge_io();
      const auto sealed = store_.get(name);
      if (!sealed) {
        throw RollbackError("amap: journal record " + name +
                            " missing from store (torn or truncated journal)");
      }
      // Same freshness rule as pages and segments: the stored record's
      // GCM tag must be the one the manifest pins. A truncated, replayed
      // or tampered record fails here, before any of its ops are applied.
      if (sealed->size() < crypto::AesGcm::kTagSize ||
          !constant_time_equal(
              BytesView(sealed->data() + sealed->size() -
                            crypto::AesGcm::kTagSize,
                        crypto::AesGcm::kTagSize),
              BytesView(tag.data(), tag.size()))) {
        throw RollbackError("amap: journal record " + name +
                            " does not match its pinned tag");
      }
      const Bytes plain =
          crypto::pae_decrypt_with(gcm_, *sealed, journal_aad(seq));
      replay_journal_record(plain, seq);
      journal_total_bytes_ += sealed->size();
      ++journal_replayed_;
    }
  } catch (...) {
    replaying_ = false;
    throw;
  }
  replaying_ = false;
}

void AuthenticatedPageMap::replay_journal_record(BytesView plain,
                                                 std::uint64_t seq) {
  if (plain.size() < kJournalRecordHeaderBytes) {
    throw IntegrityError("amap: truncated journal record");
  }
  if (get_u64_be(plain, 0) != seq) {
    throw IntegrityError("amap: journal record sequence mismatch");
  }
  const std::size_t count = get_u32_be(plain, 8);
  std::size_t off = kJournalRecordHeaderBytes;
  for (std::size_t i = 0; i < count; ++i) {
    if (off + kJournalOpHeaderBytes > plain.size()) {
      throw IntegrityError("amap: truncated journal record");
    }
    const std::uint8_t type = plain[off];
    const std::size_t klen = get_u16_be(plain, off + 1);
    const std::size_t vlen = get_u32_be(plain, off + 3);
    off += kJournalOpHeaderBytes;
    const std::string key = to_string(slice(plain, off, klen));
    const Bytes value = slice(plain, off + klen, vlen);
    off += klen + vlen;
    if (type == kJournalOpPut) {
      apply_put(key, value);
    } else if (type == kJournalOpErase) {
      apply_erase(key);
    } else {
      throw IntegrityError("amap: unknown journal op type");
    }
  }
  if (off != plain.size()) {
    throw IntegrityError("amap: oversized journal record");
  }
}

void AuthenticatedPageMap::charge_io() const {
  if (options_.platform != nullptr) {
    options_.platform->charge_ocall(options_.switchless);
  }
}

void AuthenticatedPageMap::adjust_table_residency() {
  const std::uint64_t now = kManifestHeaderBytes + 2 * buckets_.size() +
                            crypto::AesGcm::kTagSize *
                                (pages_ + segment_count()) +
                            kJournalEntryBytes * journal_tags_.size();
  if (options_.platform != nullptr) {
    options_.platform->adjust_epc_resident(static_cast<std::int64_t>(now) -
                                           static_cast<std::int64_t>(
                                               table_bytes_));
  }
  table_bytes_ = now;
}

Bytes AuthenticatedPageMap::open_page_blob(std::size_t bucket,
                                           std::size_t index) const {
  const std::string name = page_blob(bucket, index);
  charge_io();
  const auto sealed = store_.get(name);
  if (!sealed) {
    throw RollbackError("amap: page " + name + " missing from store");
  }
  // Freshness first: the stored GCM tag must be the one pinned in the
  // in-enclave table. A replayed stale page authenticates under GCM but
  // carries the old tag — caught here, before any decryption.
  const auto& pinned = buckets_[bucket].page_tags[index];
  if (sealed->size() < crypto::AesGcm::kTagSize ||
      !constant_time_equal(
          BytesView(sealed->data() + sealed->size() - crypto::AesGcm::kTagSize,
                    crypto::AesGcm::kTagSize),
          BytesView(pinned.data(), pinned.size()))) {
    throw RollbackError("amap: page " + name +
                        " does not match its pinned tag");
  }
  return crypto::pae_decrypt_with(gcm_, *sealed, page_aad(bucket, index));
}

AuthenticatedPageMap::Page AuthenticatedPageMap::load_page(std::size_t bucket,
                                                           std::size_t index) {
  const std::string name = page_blob(bucket, index);
  if (const auto it = dirty_.find(name); it != dirty_.end()) {
    ++hits_;
    return it->second.page;
  }
  if (auto cached = cache_.get(name)) {
    ++hits_;
    return std::move(*cached);
  }
  ++misses_;
  Page page = parse_page(open_page_blob(bucket, index));
  cache_.put(name, page, options_.page_bytes);
  return page;
}

std::vector<AuthenticatedPageMap::Page> AuthenticatedPageMap::load_chain(
    std::size_t bucket) {
  const std::size_t chain = buckets_[bucket].page_tags.size();
  std::vector<Page> pages(chain);
  std::vector<std::size_t> cold;  // indices that need a store open
  for (std::size_t i = 0; i < chain; ++i) {
    const std::string name = page_blob(bucket, i);
    if (const auto it = dirty_.find(name); it != dirty_.end()) {
      ++hits_;
      pages[i] = it->second.page;
    } else if (auto cached = cache_.get(name)) {
      ++hits_;
      pages[i] = std::move(*cached);
    } else {
      cold.push_back(i);
    }
  }
  misses_ += cold.size();
  if (cold.size() >= 2 && options_.pool != nullptr &&
      options_.pool->enabled()) {
    // Multi-page cold chains fan their GCM opens across the crypto pool
    // (store + gcm_ are thread-safe; each task owns one result slot).
    std::vector<Bytes> plains(cold.size());
    options_.pool->run(cold.size(), [&](std::size_t t) {
      plains[t] = open_page_blob(bucket, cold[t]);
    });
    for (std::size_t t = 0; t < cold.size(); ++t) {
      pages[cold[t]] = parse_page(plains[t]);
      cache_.put(page_blob(bucket, cold[t]), pages[cold[t]],
                 options_.page_bytes);
    }
  } else {
    for (const std::size_t i : cold) {
      pages[i] = parse_page(open_page_blob(bucket, i));
      cache_.put(page_blob(bucket, i), pages[i], options_.page_bytes);
    }
  }
  return pages;
}

void AuthenticatedPageMap::mark_dirty(std::size_t bucket, std::size_t index,
                                      Page page) {
  const std::string name = page_blob(bucket, index);
  // A re-dirtied slot is live again: cancel any checkpoint-deferred remove.
  deferred_removes_.erase(name);
  cache_.erase(name);  // the clean copy is stale now
  const auto it = dirty_.find(name);
  if (it != dirty_.end()) {
    it->second.page = std::move(page);
    return;
  }
  dirty_.emplace(name, DirtyPage{bucket, index, std::move(page)});
  dirty_bytes_ += options_.page_bytes;
  if (options_.platform != nullptr) {
    options_.platform->adjust_epc_resident(
        static_cast<std::int64_t>(options_.page_bytes));
  }
}

std::vector<AuthenticatedPageMap::Page> AuthenticatedPageMap::repack(
    std::vector<Page> pages) const {
  // Greedy first-fit in stable entry order; trailing pages that end up
  // empty are dropped by write_chain.
  Page all;
  for (auto& page : pages) {
    all.insert(all.end(), std::make_move_iterator(page.begin()),
               std::make_move_iterator(page.end()));
  }
  std::vector<Page> out;
  std::size_t used = kPageHeaderBytes;
  for (auto& entry : all) {
    const std::size_t need =
        kEntryHeaderBytes + entry.first.size() + entry.second.size();
    if (out.empty() || used + need > options_.page_bytes) {
      out.emplace_back();
      used = kPageHeaderBytes;
    }
    used += need;
    out.back().push_back(std::move(entry));
  }
  return out;
}

void AuthenticatedPageMap::remove_page_slot(std::size_t bucket,
                                            std::size_t index) {
  // Retires one stored page slot everywhere it might live.
  const std::string name = page_blob(bucket, index);
  if (const auto it = dirty_.find(name); it != dirty_.end()) {
    dirty_.erase(it);
    dirty_bytes_ -= options_.page_bytes;
    if (options_.platform != nullptr) {
      options_.platform->adjust_epc_resident(
          -static_cast<std::int64_t>(options_.page_bytes));
    }
  }
  cache_.erase(name);
  if (journaling()) {
    // Journal replay rebuilds from the checkpointed pages, so the store
    // blob must outlive the journal: defer the remove to the checkpoint.
    deferred_removes_.insert(name);
    return;
  }
  charge_io();
  store_.remove(name);
}

void AuthenticatedPageMap::touch_page(std::size_t bucket, std::size_t index,
                                      Page page) {
  mark_dirty(bucket, index, std::move(page));
  dirty_segments_.insert(bucket / kBucketsPerSegment);
  table_dirty_ = true;
}

void AuthenticatedPageMap::write_chain(std::size_t bucket,
                                       std::vector<Page> pages) {
  auto& tags = buckets_[bucket].page_tags;
  const std::size_t old_len = tags.size();
  const std::size_t new_len = pages.size();
  for (std::size_t i = new_len; i < old_len; ++i) {
    remove_page_slot(bucket, i);
  }
  tags.resize(new_len);  // placeholder tags; flush seals and fills them
  pages_ += new_len;
  pages_ -= old_len;
  for (std::size_t i = 0; i < new_len; ++i) {
    mark_dirty(bucket, i, std::move(pages[i]));
  }
  dirty_segments_.insert(bucket / kBucketsPerSegment);
  table_dirty_ = true;
}

void AuthenticatedPageMap::split_one_bucket() {
  const std::size_t base = options_.initial_buckets << level_;
  const std::size_t src = split_next_;
  const std::size_t sibling = base + src;
  std::vector<Page> src_pages = load_chain(src);
  if (buckets_.size() != sibling) {
    throw Error("amap: bucket table out of step with split pointer");
  }
  buckets_.emplace_back();
  ++split_next_;
  if (split_next_ == base) {
    ++level_;
    split_next_ = 0;
  }
  Page keep;
  Page move;
  for (auto& page : src_pages) {
    for (auto& entry : page) {
      const std::uint64_t h = key_hash(entry.first);
      if (h % (base * 2) == src) {
        keep.push_back(std::move(entry));
      } else {
        move.push_back(std::move(entry));
      }
    }
  }
  write_chain(src, repack({std::move(keep)}));
  write_chain(sibling, repack({std::move(move)}));
  ++splits_;
  adjust_table_residency();
}

std::optional<Bytes> AuthenticatedPageMap::get(const std::string& key) {
  const std::lock_guard lock(mutex_);
  const std::size_t bucket = bucket_of(key_hash(key));
  const std::size_t chain = buckets_[bucket].page_tags.size();
  for (std::size_t i = 0; i < chain; ++i) {
    Page page = load_page(bucket, i);
    for (auto& [k, v] : page) {
      if (k == key) return std::move(v);
    }
  }
  return std::nullopt;
}

void AuthenticatedPageMap::apply_put(const std::string& key, BytesView value) {
  const std::size_t bucket = bucket_of(key_hash(key));
  const std::size_t chain = buckets_[bucket].page_tags.size();
  const std::size_t need = kEntryHeaderBytes + key.size() + value.size();
  for (std::size_t i = 0; i < chain; ++i) {
    Page page = load_page(bucket, i);
    for (auto& [k, v] : page) {
      if (k != key) continue;
      const std::size_t grown =
          page_payload_bytes(page) - v.size() + value.size();
      if (grown <= options_.page_bytes) {
        // Overwrite in place: the mutation touches exactly one page.
        v = Bytes(value.begin(), value.end());
        touch_page(bucket, i, std::move(page));
        return;
      }
      // The grown value no longer fits its page — fall back to a full
      // chain re-pack (rare: one map's values are similarly sized).
      std::vector<Page> pages = load_chain(bucket);
      for (auto& p : pages) {
        for (auto& [k2, v2] : p) {
          if (k2 == key) v2 = Bytes(value.begin(), value.end());
        }
      }
      std::vector<Page> packed = repack(std::move(pages));
      const bool overflowed = packed.size() > std::max<std::size_t>(chain, 1);
      write_chain(bucket, std::move(packed));
      if (overflowed) split_one_bucket();
      adjust_table_residency();
      return;
    }
  }
  // New key: append to the chain's last page when it fits, else grow the
  // chain by one page (which is the linear-hashing overflow signal).
  ++entries_;
  if (chain > 0) {
    Page last = load_page(bucket, chain - 1);
    if (page_payload_bytes(last) + need <= options_.page_bytes) {
      last.emplace_back(key, Bytes(value.begin(), value.end()));
      touch_page(bucket, chain - 1, std::move(last));
      return;
    }
  }
  buckets_[bucket].page_tags.push_back(crypto::AesGcm::Tag{});
  ++pages_;
  Page fresh;
  fresh.emplace_back(key, Bytes(value.begin(), value.end()));
  touch_page(bucket, chain, std::move(fresh));
  if (chain > 0) split_one_bucket();
  adjust_table_residency();
}

bool AuthenticatedPageMap::apply_erase(const std::string& key) {
  const std::size_t bucket = bucket_of(key_hash(key));
  const std::size_t chain = buckets_[bucket].page_tags.size();
  for (std::size_t i = 0; i < chain; ++i) {
    Page page = load_page(bucket, i);
    const auto it = std::find_if(page.begin(), page.end(),
                                 [&](const auto& e) { return e.first == key; });
    if (it == page.end()) continue;
    page.erase(it);
    --entries_;
    if (page.empty() && i + 1 == chain) {
      // Trailing page drained: drop it, plus any empty pages now exposed
      // at the tail (left sparse by earlier mid-chain erases). Interior
      // sparsity stays for compact() to reclaim.
      std::size_t new_len = i;
      while (new_len > 0 && load_page(bucket, new_len - 1).empty()) {
        --new_len;
      }
      for (std::size_t j = chain; j-- > new_len;) {
        remove_page_slot(bucket, j);
      }
      buckets_[bucket].page_tags.resize(new_len);
      pages_ -= chain - new_len;
      dirty_segments_.insert(bucket / kBucketsPerSegment);
      table_dirty_ = true;
    } else {
      touch_page(bucket, i, std::move(page));
    }
    adjust_table_residency();
    return true;
  }
  return false;
}

void AuthenticatedPageMap::record_journal_op(std::uint8_t type,
                                             const std::string& key,
                                             BytesView value) {
  if (!journaling() || replaying_) return;
  pending_ops_.push_back(
      PendingOp{type, key, Bytes(value.begin(), value.end())});
}

bool AuthenticatedPageMap::put(const std::string& key, BytesView value) {
  if (key.size() + value.size() > max_entry_bytes()) return false;
  const std::lock_guard lock(mutex_);
  apply_put(key, value);
  record_journal_op(kJournalOpPut, key, value);
  maybe_autoflush_locked();
  return true;
}

bool AuthenticatedPageMap::erase(const std::string& key) {
  const std::lock_guard lock(mutex_);
  if (!apply_erase(key)) return false;
  record_journal_op(kJournalOpErase, key, BytesView());
  maybe_autoflush_locked();
  return true;
}

std::uint64_t AuthenticatedPageMap::entry_count() const {
  const std::lock_guard lock(mutex_);
  return entries_;
}

std::vector<std::pair<std::string, Bytes>> AuthenticatedPageMap::scan_prefix(
    const std::string& prefix, ScanCursor& cursor, std::size_t limit) {
  const std::lock_guard lock(mutex_);
  if (!cursor.started) {
    cursor.started = true;
    ++scans_;
    if (const auto part = partition_of(prefix)) {
      // The prefix pins a whole hash partition: only its chain can hold
      // matching keys.
      cursor.bucket = *part;
      cursor.partitioned = true;
    }
  }
  std::vector<std::pair<std::string, Bytes>> out;
  while (!cursor.done && out.size() < limit) {
    if (cursor.bucket >= buckets_.size()) {
      cursor.done = true;
      break;
    }
    const std::size_t chain = buckets_[cursor.bucket].page_tags.size();
    if (cursor.page >= chain) {
      if (cursor.partitioned) {
        cursor.done = true;
      } else {
        ++cursor.bucket;
        cursor.page = 0;
        cursor.entry = 0;
      }
      continue;
    }
    // load_page applies the same pinned-tag freshness check as get(): a
    // tampered or replayed page throws before any entry is yielded.
    const Page page = load_page(cursor.bucket, cursor.page);
    if (cursor.entry == 0) ++scan_pages_;
    for (; cursor.entry < page.size() && out.size() < limit; ++cursor.entry) {
      const auto& [k, v] = page[cursor.entry];
      if (k.size() >= prefix.size() &&
          k.compare(0, prefix.size(), prefix) == 0) {
        out.emplace_back(k, v);
      }
    }
    if (cursor.entry >= page.size()) {
      ++cursor.page;
      cursor.entry = 0;
    }
  }
  return out;
}

std::uint64_t AuthenticatedPageMap::for_each_prefix(
    const std::string& prefix,
    const std::function<bool(const std::string&, const Bytes&)>& fn) {
  ScanCursor cursor;
  std::uint64_t visited = 0;
  while (!cursor.done) {
    for (const auto& [k, v] : scan_prefix(prefix, cursor, 128)) {
      ++visited;
      if (!fn(k, v)) return visited;
    }
  }
  return visited;
}

std::uint64_t AuthenticatedPageMap::compact() {
  const std::lock_guard lock(mutex_);
  std::uint64_t reclaimed = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::size_t chain = buckets_[b].page_tags.size();
    if (chain == 0) continue;
    // load_chain re-verifies every page against its pinned tag, so a
    // tampered or replayed chain fails the compaction closed untouched.
    std::vector<Page> packed = repack(load_chain(b));
    if (packed.size() < chain) {
      reclaimed += chain - packed.size();
      write_chain(b, std::move(packed));
    }
  }
  ++compactions_;
  compaction_reclaimed_pages_ += reclaimed;
  if (journaling()) {
    checkpoint_locked();
  } else {
    flush_locked();
  }
  adjust_table_residency();
  return reclaimed;
}

void AuthenticatedPageMap::maybe_autoflush_locked() {
  if (dirty_bytes_ < options_.dirty_flush_bytes) return;
  if (journaling()) {
    // Journal mode never writes partial page batches between barriers:
    // once the dirty set outgrows its budget the whole map checkpoints.
    checkpoint_locked();
  } else {
    flush_locked();
  }
}

bool AuthenticatedPageMap::flush() {
  const std::lock_guard lock(mutex_);
  return flush_locked();
}

bool AuthenticatedPageMap::flush_locked() {
  if (!journaling()) {
    const bool leftover_journal = !journal_tags_.empty();
    if (dirty_.empty() && !table_dirty_ && !leftover_journal) return false;
    if (leftover_journal) {
      // A journal written under a previous configuration was replayed at
      // load; fold it into the pages so it is not replayed twice.
      checkpoint_locked();
    } else {
      write_back_locked();
    }
    return true;
  }
  // First barrier ever must lay down the full checkpoint the journal
  // builds on; after that, checkpoint only once the journal or the dirty
  // set outgrow their budgets.
  if (!have_checkpoint_ || journal_total_bytes_ >= options_.journal_bytes ||
      dirty_bytes_ >= options_.dirty_flush_bytes) {
    if (pending_ops_.empty() && dirty_.empty() && !table_dirty_ &&
        journal_tags_.empty()) {
      return false;
    }
    checkpoint_locked();
    return true;
  }
  if (pending_ops_.empty() && !table_dirty_) return false;
  // Group commit: the barrier's mutations become ONE sealed record plus a
  // manifest rewrite — dirty pages stay in EPC until the checkpoint.
  if (!pending_ops_.empty()) append_journal_record();
  persist_manifest_only();
  table_dirty_ = false;
  return true;
}

void AuthenticatedPageMap::append_journal_record() {
  const std::uint64_t seq = next_journal_seq_++;
  Bytes plain;
  put_u64_be(plain, seq);
  put_u32_be(plain, static_cast<std::uint32_t>(pending_ops_.size()));
  for (const auto& op : pending_ops_) {
    plain.push_back(op.type);
    put_u16_be(plain, static_cast<std::uint16_t>(op.key.size()));
    put_u32_be(plain, static_cast<std::uint32_t>(op.value.size()));
    append(plain, to_bytes(op.key));
    append(plain, op.value);
  }
  const Bytes sealed =
      crypto::pae_encrypt_with(gcm_, rng_, plain, journal_aad(seq));
  crypto::AesGcm::Tag tag;
  std::memcpy(tag.data(), sealed.data() + sealed.size() - tag.size(),
              tag.size());
  charge_io();
  store_.put(journal_blob(seq), sealed);
  journal_tags_.emplace_back(seq, tag);
  journal_total_bytes_ += sealed.size();
  pending_ops_.clear();
  ++journal_appends_;
  adjust_table_residency();
}

void AuthenticatedPageMap::checkpoint_locked() {
  // Clear the journal bookkeeping FIRST so the manifest written below
  // carries an empty journal section; the superseded blobs are removed
  // only after that manifest no longer references them.
  std::vector<std::uint64_t> retired;
  retired.reserve(journal_tags_.size());
  for (const auto& [seq, tag] : journal_tags_) retired.push_back(seq);
  journal_tags_.clear();
  journal_total_bytes_ = 0;
  pending_ops_.clear();
  write_back_locked();
  for (const std::uint64_t seq : retired) {
    charge_io();
    store_.remove(journal_blob(seq));
  }
  have_checkpoint_ = true;
  ++checkpoints_;
  adjust_table_residency();
}

void AuthenticatedPageMap::write_back_locked() {
  if (!dirty_.empty()) {
    // Snapshot in deterministic (map) order; IVs are pre-drawn serially so
    // the sealed bytes do not depend on worker interleaving.
    std::vector<std::pair<const std::string, DirtyPage>*> batch;
    batch.reserve(dirty_.size());
    for (auto& item : dirty_) batch.push_back(&item);
    std::vector<crypto::AesGcm::Iv> ivs(batch.size());
    for (auto& iv : ivs) rng_.fill(MutableBytesView(iv.data(), iv.size()));
    std::vector<Bytes> sealed(batch.size());
    const auto seal_one = [&](std::size_t i) {
      const DirtyPage& d = batch[i]->second;
      crypto::pae_seal_into(gcm_, ivs[i], serialize_page(d.page),
                            page_aad(d.bucket, d.index), sealed[i]);
    };
    if (batch.size() >= 2 && options_.pool != nullptr &&
        options_.pool->enabled()) {
      options_.pool->run(batch.size(), seal_one);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) seal_one(i);
    }
    // Pin the fresh tags, then write the pages — through the async
    // submission/completion queues when an I/O pool is attached (distinct
    // names, so ordering within the batch is free), synchronously
    // otherwise. Either way every page put completes before the table is
    // persisted below.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const DirtyPage& d = batch[i]->second;
      std::memcpy(buckets_[d.bucket].page_tags[d.index].data(),
                  sealed[i].data() + sealed[i].size() - crypto::AesGcm::kTagSize,
                  crypto::AesGcm::kTagSize);
    }
    if (options_.io != nullptr && options_.io->enabled()) {
      store::AsyncStore async(store_, options_.io);
      std::vector<store::AsyncStore::Ticket> tickets;
      tickets.reserve(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        charge_io();
        tickets.push_back(
            async.submit_put(batch[i]->first, std::move(sealed[i])));
      }
      for (auto& ticket : tickets) async.complete_put(std::move(ticket));
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        charge_io();
        store_.put(batch[i]->first, sealed[i]);
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // The freshly written page is the hottest candidate for the clean
      // cache — re-admit it before dropping the dirty copy.
      cache_.put(batch[i]->first, std::move(batch[i]->second.page),
                 options_.page_bytes);
    }
    writeback_pages_ += batch.size();
    if (options_.platform != nullptr) {
      options_.platform->adjust_epc_resident(
          -static_cast<std::int64_t>(dirty_bytes_));
    }
    dirty_.clear();
    dirty_bytes_ = 0;
  }
  if (!deferred_removes_.empty()) {
    for (const auto& name : deferred_removes_) {
      charge_io();
      store_.remove(name);
    }
    deferred_removes_.clear();
  }
  persist_table();
  table_dirty_ = false;
  ++writeback_batches_;
}

void AuthenticatedPageMap::persist_table() {
  // Pages first, segments next, manifest last (callers already wrote the
  // pages): a crash between any two steps leaves pinned tags that reject
  // the newer blobs — the map fails closed at reopen instead of serving
  // mixed state. Only segments owning a changed chain are re-sealed, so
  // per-flush table cost is O(changed segments), not O(map).
  if (segment_tags_.size() < segment_count()) {
    // Bucket growth spilled into new segments; they must be written even
    // on a flush that somehow left their chains untouched.
    for (std::size_t s = segment_tags_.size(); s < segment_count(); ++s) {
      dirty_segments_.insert(s);
    }
    segment_tags_.resize(segment_count());
  }
  for (const std::size_t seg : dirty_segments_) {
    const Bytes sealed = crypto::pae_encrypt_with(
        gcm_, rng_, serialize_segment(seg), segment_aad(seg));
    std::memcpy(segment_tags_[seg].data(),
                sealed.data() + sealed.size() - crypto::AesGcm::kTagSize,
                crypto::AesGcm::kTagSize);
    charge_io();
    store_.put(segment_blob(seg), sealed);
  }
  dirty_segments_.clear();
  checkpoint_core_ = serialize_manifest_core();
  persist_manifest_only();
}

void AuthenticatedPageMap::persist_manifest_only() {
  charge_io();
  store_.put(table_blob(),
             crypto::pae_encrypt_with(gcm_, rng_, manifest_bytes(),
                                      to_bytes("amap:" + options_.name +
                                               ":table")));
}

crypto::Sha256::Digest AuthenticatedPageMap::root() {
  const std::lock_guard lock(mutex_);
  flush_locked();
  return crypto::Sha256::hash(manifest_bytes());
}

void AuthenticatedPageMap::reopen(
    const std::optional<crypto::Sha256::Digest>& expected_root) {
  const std::lock_guard lock(mutex_);
  if (options_.platform != nullptr) {
    options_.platform->adjust_epc_resident(
        -static_cast<std::int64_t>(dirty_bytes_));
  }
  dirty_.clear();
  dirty_bytes_ = 0;
  cache_.clear();
  table_dirty_ = false;
  checkpoint_core_.clear();
  have_checkpoint_ = false;
  next_journal_seq_ = 0;
  journal_tags_.clear();
  journal_total_bytes_ = 0;
  pending_ops_.clear();
  deferred_removes_.clear();
  charge_io();
  const auto sealed = store_.get(table_blob());
  if (!sealed) {
    if (expected_root.has_value()) {
      throw RollbackError("amap: page table missing at reopen");
    }
    buckets_.assign(options_.initial_buckets, Bucket{});
    level_ = 0;
    split_next_ = 0;
    entries_ = 0;
    pages_ = 0;
    segment_tags_.clear();
    dirty_segments_.clear();
    adjust_table_residency();
    return;
  }
  load_table(crypto::pae_decrypt_with(
      gcm_, *sealed, to_bytes("amap:" + options_.name + ":table")));
  have_checkpoint_ = true;
  adjust_table_residency();
  if (expected_root.has_value()) {
    const auto now = crypto::Sha256::hash(manifest_bytes());
    if (!constant_time_equal(BytesView(now.data(), now.size()),
                             BytesView(expected_root->data(),
                                       expected_root->size()))) {
      throw RollbackError("amap: page table does not match guarded root");
    }
  }
}

AuthenticatedPageMap::Stats AuthenticatedPageMap::stats() const {
  const std::lock_guard lock(mutex_);
  Stats out;
  out.entries = entries_;
  out.pages = pages_;
  out.splits = splits_;
  out.page_hits = hits_;
  out.page_misses = misses_;
  const auto cc = cache_.counters();
  out.page_evictions = cc.evictions;
  out.dirty_pages = dirty_.size();
  out.dirty_bytes = dirty_bytes_;
  out.writeback_pages = writeback_pages_;
  out.writeback_batches = writeback_batches_;
  out.cache_resident_bytes = cc.resident_bytes;
  out.cache_budget_bytes = cc.budget_bytes;
  out.table_bytes = table_bytes_;
  out.scans = scans_;
  out.scan_pages = scan_pages_;
  out.journal_records = journal_tags_.size();
  out.journal_bytes = journal_total_bytes_;
  out.journal_appends = journal_appends_;
  out.journal_replayed = journal_replayed_;
  out.checkpoints = checkpoints_;
  out.compactions = compactions_;
  out.compaction_reclaimed_pages = compaction_reclaimed_pages_;
  return out;
}

}  // namespace seg::amap
