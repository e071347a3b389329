// Unit tests of the authenticated paged map (src/amap): linear-hashing
// layout, dirty write-back, EPC-budgeted page cache, crypto-pool fan-out
// bit-identity, and — most importantly — the adversarial cases: page
// tamper, stale-page replay, table replay and cold-restart validation
// against a guarded root must all fail closed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "amap/authenticated_page_map.h"
#include "common/error.h"
#include "common/rng.h"
#include "pfs/crypto_pool.h"
#include "sgx/platform.h"
#include "store/untrusted_store.h"

namespace seg::amap {
namespace {

Bytes val(const std::string& s) { return to_bytes(s); }

class AmapTest : public ::testing::Test {
 protected:
  AmapTest()
      : rng_(11),
        platform_(rng_),
        adversary_(std::make_unique<store::MemoryStore>()) {}

  AmapOptions options(std::string name = "t") {
    AmapOptions o;
    o.name = std::move(name);
    o.page_bytes = 256;  // small pages force chains and splits quickly
    o.cache_bytes = 4 * 1024;
    o.initial_buckets = 4;
    o.platform = &platform_;
    return o;
  }

  std::unique_ptr<AuthenticatedPageMap> make(AmapOptions o) {
    return std::make_unique<AuthenticatedPageMap>(adversary_, Bytes(16, 0x22),
                                                  rng_, std::move(o));
  }

  TestRng rng_;
  sgx::SgxPlatform platform_;
  store::AdversaryStore adversary_;
};

TEST_F(AmapTest, PutGetEraseRoundTrip) {
  auto map = make(options());
  EXPECT_EQ(map->get("missing"), std::nullopt);
  EXPECT_TRUE(map->put("a", val("1")));
  EXPECT_TRUE(map->put("b", val("2")));
  EXPECT_EQ(map->get("a"), val("1"));
  EXPECT_EQ(map->get("b"), val("2"));
  EXPECT_EQ(map->entry_count(), 2u);
  EXPECT_TRUE(map->put("a", val("one")));  // overwrite
  EXPECT_EQ(map->get("a"), val("one"));
  EXPECT_EQ(map->entry_count(), 2u);
  EXPECT_TRUE(map->erase("a"));
  EXPECT_FALSE(map->erase("a"));
  EXPECT_EQ(map->get("a"), std::nullopt);
  EXPECT_EQ(map->entry_count(), 1u);
}

TEST_F(AmapTest, OversizeEntryIsRefusedNotTruncated) {
  auto map = make(options());
  const Bytes big(300, 0xab);  // > 256-byte page
  EXPECT_FALSE(map->put("big", big));
  EXPECT_EQ(map->get("big"), std::nullopt);
  EXPECT_EQ(map->entry_count(), 0u);
}

TEST_F(AmapTest, ThousandsOfEntriesSurviveSplits) {
  auto map = make(options());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(map->put("key-" + std::to_string(i),
                         val("value-" + std::to_string(i))));
  }
  EXPECT_EQ(map->entry_count(), 2000u);
  EXPECT_GT(map->stats().splits, 0u);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(map->get("key-" + std::to_string(i)),
              val("value-" + std::to_string(i)))
        << "entry " << i << " lost across splits";
  }
  for (int i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(map->erase("key-" + std::to_string(i)));
  }
  EXPECT_EQ(map->entry_count(), 1000u);
  for (int i = 0; i < 2000; ++i) {
    const auto got = map->get("key-" + std::to_string(i));
    if (i % 2 == 0) {
      ASSERT_EQ(got, std::nullopt);
    } else {
      ASSERT_EQ(got, val("value-" + std::to_string(i)));
    }
  }
}

TEST_F(AmapTest, MutationsAreWriteBackNotWriteThrough) {
  auto o = options();
  o.dirty_flush_bytes = 1024 * 1024;  // no auto-flush in this test
  auto map = make(std::move(o));
  auto& mem = static_cast<store::MemoryStore&>(adversary_.inner());
  mem.reset_op_counts();
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("v")));
  EXPECT_EQ(mem.op_counts().puts, 0u)
      << "mutations must coalesce in dirty pages until the flush barrier";
  EXPECT_GT(map->stats().dirty_pages, 0u);
  EXPECT_TRUE(map->flush());
  EXPECT_GT(mem.op_counts().puts, 0u);
  const auto s = map->stats();
  EXPECT_EQ(s.dirty_pages, 0u);
  EXPECT_GE(s.writeback_pages, 1u);
  EXPECT_EQ(s.writeback_batches, 1u);
  EXPECT_FALSE(map->flush());  // nothing dirty: no second batch
}

TEST_F(AmapTest, AutoFlushBoundsDirtyPages) {
  auto o = options();
  o.dirty_flush_bytes = 2 * o.page_bytes;
  auto map = make(std::move(o));
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("v")));
  const auto s = map->stats();
  EXPECT_LE(s.dirty_bytes, 2 * 256u + 256u);
  EXPECT_GE(s.writeback_batches, 1u);
}

TEST_F(AmapTest, CacheResidencyStaysWithinBudget) {
  auto o = options();
  o.cache_bytes = 1024;  // 4 pages
  auto map = make(std::move(o));
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("v")));
  map->flush();
  for (int i = 0; i < 500; ++i) map->get("k" + std::to_string(i));
  const auto s = map->stats();
  EXPECT_LE(s.cache_resident_bytes, s.cache_budget_bytes);
  EXPECT_GT(s.page_evictions, 0u);
  EXPECT_GT(s.page_hits, 0u);
  EXPECT_GT(s.page_misses, 0u);
}

TEST_F(AmapTest, PersistsAcrossReconstruction) {
  {
    auto map = make(options());
    for (int i = 0; i < 300; ++i)
      ASSERT_TRUE(map->put("k" + std::to_string(i), val("v" + std::to_string(i))));
    map->flush();
  }
  auto map = make(options());
  EXPECT_EQ(map->entry_count(), 300u);
  for (int i = 0; i < 300; ++i)
    ASSERT_EQ(map->get("k" + std::to_string(i)), val("v" + std::to_string(i)));
}

TEST_F(AmapTest, UnflushedMutationsAreDroppedOnReopen) {
  auto map = make(options());
  ASSERT_TRUE(map->put("durable", val("1")));
  map->flush();
  ASSERT_TRUE(map->put("volatile", val("2")));
  map->reopen(std::nullopt);  // crash simulation: dirty pages lost
  EXPECT_EQ(map->get("durable"), val("1"));
  EXPECT_EQ(map->get("volatile"), std::nullopt);
}

TEST_F(AmapTest, PoolAndSerialSealBitIdenticalBlobs) {
  // Same seed, same ops: the sealed store bytes must not depend on the
  // crypto pool (IVs are pre-drawn serially in batch order).
  const auto run = [](pfs::CryptoPool* pool) {
    TestRng rng(99);
    sgx::SgxPlatform platform(rng);
    store::MemoryStore mem;
    AmapOptions o;
    o.name = "bit";
    o.page_bytes = 256;
    o.cache_bytes = 4096;
    o.initial_buckets = 4;
    o.platform = &platform;
    o.pool = pool;
    AuthenticatedPageMap map(mem, Bytes(16, 0x22), rng, std::move(o));
    for (int i = 0; i < 400; ++i)
      map.put("k" + std::to_string(i), to_bytes("v" + std::to_string(i)));
    map.flush();
    std::map<std::string, Bytes> blobs;
    for (const auto& name : mem.list()) blobs[name] = *mem.get(name);
    return blobs;
  };
  pfs::CryptoPool pool(4);
  const auto serial = run(nullptr);
  const auto parallel = run(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, blob] : serial) {
    ASSERT_TRUE(parallel.count(name)) << name;
    ASSERT_EQ(parallel.at(name), blob) << "blob differs: " << name;
  }
}

// ----------------------------------------------------------------- scans ---

TEST_F(AmapTest, PrefixScanStreamsMatchingEntries) {
  auto map = make(options());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(map->put("a:" + std::to_string(i), val("A" + std::to_string(i))));
    ASSERT_TRUE(map->put("b:" + std::to_string(i), val("B" + std::to_string(i))));
  }
  std::set<std::string> seen;
  const std::uint64_t n =
      map->for_each_prefix("a:", [&](const std::string& key, const Bytes& value) {
        EXPECT_EQ(value, val("A" + key.substr(2)));
        seen.insert(key);
        return true;
      });
  EXPECT_EQ(n, 200u);
  EXPECT_EQ(seen.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(seen.count("a:" + std::to_string(i))) << i;
  const auto s = map->stats();
  EXPECT_GE(s.scans, 1u);
  EXPECT_GT(s.scan_pages, 0u);
  // Early stop: the callback's false return ends the scan.
  std::uint64_t visited = 0;
  map->for_each_prefix("a:", [&](const std::string&, const Bytes&) {
    return ++visited < 5;
  });
  EXPECT_EQ(visited, 5u);
}

TEST_F(AmapTest, ScanCursorResumesAcrossBatches) {
  auto map = make(options());
  for (int i = 0; i < 150; ++i)
    ASSERT_TRUE(map->put("k:" + std::to_string(i), val("v")));
  AuthenticatedPageMap::ScanCursor cursor;
  std::set<std::string> seen;
  while (!cursor.done) {
    const auto batch = map->scan_prefix("k:", cursor, 7);
    for (const auto& [key, value] : batch) {
      EXPECT_TRUE(seen.insert(key).second) << "duplicate " << key;
    }
  }
  EXPECT_EQ(seen.size(), 150u);
}

TEST_F(AmapTest, PartitionedPrefixScanReadsOneChain) {
  // hash_prefix_delimiters = 1: every "g7:*" key hashes to the "g7:"
  // partition, so the scan touches exactly that chain's pages.
  auto o = options();
  o.hash_prefix_delimiters = 1;
  auto map = make(std::move(o));
  for (int g = 0; g < 16; ++g)
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(map->put("g" + std::to_string(g) + ":" + std::to_string(i),
                           val("m")));
  const auto before = map->stats();
  std::uint64_t n = 0;
  map->for_each_prefix("g7:", [&](const std::string& key, const Bytes&) {
    EXPECT_EQ(key.rfind("g7:", 0), 0u);
    ++n;
    return true;
  });
  EXPECT_EQ(n, 50u);
  const auto after = map->stats();
  EXPECT_LT(after.scan_pages - before.scan_pages, before.pages)
      << "a partitioned scan must not walk the whole table";
}

// --------------------------------------------------------------- journal ---

class AmapJournalTest : public AmapTest {
 protected:
  AmapOptions journal_options(std::size_t journal_bytes = 64 * 1024) {
    auto o = options();
    o.journal_bytes = journal_bytes;
    o.dirty_flush_bytes = 1024 * 1024;  // barriers are explicit flush() calls
    return o;
  }

  store::MemoryStore& mem() {
    return static_cast<store::MemoryStore&>(adversary_.inner());
  }

  /// Decrypts the manifest, lets `fn` mutate the plaintext, re-seals it.
  void rewrite_manifest(const std::function<void(Bytes&)>& fn) {
    const crypto::AesGcm gcm(Bytes(16, 0x22));
    const Bytes aad = to_bytes("amap:t:table");
    Bytes plain = crypto::pae_decrypt_with(gcm, *adversary_.get("__amap:t:dir"), aad);
    fn(plain);
    adversary_.tamper_replace("__amap:t:dir",
                              crypto::pae_encrypt_with(gcm, rng_, plain, aad));
  }

  /// Offset of the journal section inside the manifest plaintext.
  static std::size_t journal_section(const Bytes& plain) {
    const std::uint32_t seg_count = get_u32_be(plain, 36);
    return 40 + std::size_t{seg_count} * 16;  // core header + segment tags
  }
};

TEST_F(AmapJournalTest, JournalCommitWritesNoPages) {
  auto map = make(journal_options());
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("v")));
  ASSERT_TRUE(map->flush());  // first barrier: full checkpoint
  EXPECT_GE(map->stats().checkpoints, 1u);
  mem().reset_op_counts();
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("updated")));
  ASSERT_TRUE(map->flush());  // group commit: journal record + manifest only
  EXPECT_EQ(mem().op_counts().puts, 2u)
      << "a journal-mode barrier writes one sealed record and the manifest";
  const auto s = map->stats();
  EXPECT_EQ(s.journal_appends, 1u);
  EXPECT_EQ(s.journal_records, 1u);
  EXPECT_GT(s.journal_bytes, 0u);
  EXPECT_GT(s.dirty_pages, 0u) << "pages stay dirty until the checkpoint";
  // Reads see the journaled state immediately.
  EXPECT_EQ(map->get("k3"), val("updated"));
}

TEST_F(AmapJournalTest, JournalBudgetTriggersCheckpoint) {
  auto map = make(journal_options(/*journal_bytes=*/256));
  ASSERT_TRUE(map->put("a", val("1")));
  ASSERT_TRUE(map->flush());  // checkpoint (first barrier)
  const auto before = map->stats();
  // Each barrier appends a ~140-byte sealed record; the 256-byte budget
  // forces checkpoints along the way.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(map->put("k" + std::to_string(i), Bytes(100, 0x5a)));
    map->flush();
  }
  const auto after = map->stats();
  EXPECT_GT(after.checkpoints, before.checkpoints)
      << "exceeding amap_journal_bytes must trigger a checkpoint";
  EXPECT_GT(after.journal_appends, before.journal_appends);
  // A checkpoint retires its journal blobs and write-backs every page.
  map->compact();  // forces a final checkpoint regardless of loop parity
  EXPECT_EQ(map->stats().dirty_pages, 0u);
  EXPECT_EQ(map->stats().journal_records, 0u);
  for (const auto& name : adversary_.list())
    EXPECT_NE(name.rfind("__amap:t:j", 0), 0u)
        << "journal blob survived its checkpoint: " << name;
}

TEST_F(AmapJournalTest, JournalReplayRestoresState) {
  {
    auto map = make(journal_options());
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(map->put("base" + std::to_string(i), val("b")));
    map->flush();  // checkpoint
    for (int i = 0; i < 20; ++i)
      ASSERT_TRUE(map->put("j" + std::to_string(i), val("x" + std::to_string(i))));
    map->flush();  // journal record 0
    ASSERT_TRUE(map->erase("base0"));
    ASSERT_TRUE(map->put("j0", val("rewritten")));
    map->flush();  // journal record 1
  }
  auto map = make(journal_options());
  EXPECT_GE(map->stats().journal_replayed, 2u);
  EXPECT_EQ(map->entry_count(), 50u - 1u + 20u);
  EXPECT_EQ(map->get("base0"), std::nullopt);
  EXPECT_EQ(map->get("base1"), val("b"));
  EXPECT_EQ(map->get("j0"), val("rewritten"));
  for (int i = 1; i < 20; ++i)
    EXPECT_EQ(map->get("j" + std::to_string(i)), val("x" + std::to_string(i)));
}

TEST_F(AmapJournalTest, ReorderedJournalRecordsFailClosed) {
  {
    auto map = make(journal_options());
    ASSERT_TRUE(map->put("a", val("1")));
    map->flush();  // checkpoint
    ASSERT_TRUE(map->put("b", val("2")));
    map->flush();  // record seq 0
    ASSERT_TRUE(map->put("c", val("3")));
    map->flush();  // record seq 1
  }
  rewrite_manifest([](Bytes& plain) {
    const std::size_t js = journal_section(plain);
    ASSERT_EQ(get_u32_be(plain, js + 8), 2u);  // two records journaled
    // Swap the two 24-byte (seq, tag) journal entries: both records are
    // individually authentic, but the sequence now regresses.
    std::swap_ranges(plain.begin() + js + 12, plain.begin() + js + 12 + 24,
                     plain.begin() + js + 12 + 24);
  });
  EXPECT_THROW(make(journal_options()), RollbackError);
}

TEST_F(AmapJournalTest, DuplicateJournalSequenceFailsClosed) {
  {
    auto map = make(journal_options());
    ASSERT_TRUE(map->put("a", val("1")));
    map->flush();  // checkpoint
    ASSERT_TRUE(map->put("b", val("2")));
    map->flush();  // record seq 0
    ASSERT_TRUE(map->put("c", val("3")));
    map->flush();  // record seq 1
  }
  rewrite_manifest([](Bytes& plain) {
    const std::size_t js = journal_section(plain);
    ASSERT_EQ(get_u32_be(plain, js + 8), 2u);
    // Duplicate record 0 over record 1: a replayed (double-applied)
    // record must be rejected even though it authenticates.
    std::copy(plain.begin() + js + 12, plain.begin() + js + 12 + 24,
              plain.begin() + js + 12 + 24);
  });
  EXPECT_THROW(make(journal_options()), RollbackError);
}

TEST_F(AmapJournalTest, TornJournalTailFailsClosed) {
  {
    auto map = make(journal_options());
    ASSERT_TRUE(map->put("a", val("1")));
    map->flush();  // checkpoint
    ASSERT_TRUE(map->put("b", val("2")));
    map->flush();  // record seq 0
  }
  ASSERT_TRUE(adversary_.exists("__amap:t:j0"));
  const Bytes blob = *adversary_.get("__amap:t:j0");
  // Torn write: the record's tail never hit the disk. The truncated
  // blob's trailing bytes no longer match the pinned tag.
  adversary_.tamper_replace("__amap:t:j0",
                            BytesView(blob.data(), blob.size() - 5));
  EXPECT_THROW(make(journal_options()), RollbackError);
}

TEST_F(AmapJournalTest, MissingJournalRecordFailsClosed) {
  {
    auto map = make(journal_options());
    ASSERT_TRUE(map->put("a", val("1")));
    map->flush();  // checkpoint
    ASSERT_TRUE(map->put("b", val("2")));
    map->flush();  // record seq 0
  }
  adversary_.remove("__amap:t:j0");
  EXPECT_THROW(make(journal_options()), RollbackError);
}

TEST_F(AmapJournalTest, TamperedJournalRecordFailsClosed) {
  {
    auto map = make(journal_options());
    ASSERT_TRUE(map->put("a", val("1")));
    map->flush();  // checkpoint
    ASSERT_TRUE(map->put("b", val("2")));
    map->flush();  // record seq 0
  }
  // Flip a ciphertext-body bit (past the 12-byte IV, before the trailing
  // tag): the pinned-tag check passes, GCM open must throw.
  ASSERT_TRUE(adversary_.tamper_flip_bit("__amap:t:j0", 14 * 8));
  EXPECT_THROW(make(journal_options()), IntegrityError);
}

TEST_F(AmapJournalTest, WritebackModeFoldsLeftoverJournalOnFirstBarrier) {
  // A store written under a journal configuration must stay readable when
  // the map is reopened with journaling off: the leftover records are
  // replayed at load and folded into the pages at the first barrier.
  {
    auto map = make(journal_options());
    for (int i = 0; i < 60; ++i)
      ASSERT_TRUE(map->put("k" + std::to_string(i), val("v")));
    map->flush();  // checkpoint
    ASSERT_TRUE(map->put("late", val("journaled")));
    map->flush();  // journal record
  }
  auto map = make(options());  // journal_bytes = 0
  EXPECT_EQ(map->get("late"), val("journaled"));
  EXPECT_EQ(map->entry_count(), 61u);
  ASSERT_TRUE(map->flush());  // folds the journal into the pages
  for (const auto& name : adversary_.list())
    EXPECT_NE(name.rfind("__amap:t:j", 0), 0u)
        << "leftover journal blob survived the fold: " << name;
  // The folded table round-trips against its own root.
  const auto root = map->root();
  auto reopened = make(options());
  EXPECT_NO_THROW(reopened->reopen(root));
  EXPECT_EQ(reopened->get("late"), val("journaled"));
}

// ------------------------------------------------------------ compaction ---

TEST_F(AmapTest, CompactionPreservesLogicalContentAndReclaimsPages) {
  auto map = make(options());
  for (int i = 0; i < 1000; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("v" + std::to_string(i))));
  map->flush();
  // Delete storm: leave sparse chains behind.
  for (int i = 0; i < 1000; ++i) {
    if (i % 4 != 0) ASSERT_TRUE(map->erase("k" + std::to_string(i)));
  }
  map->flush();
  std::map<std::string, Bytes> before;
  map->for_each_prefix("", [&](const std::string& key, const Bytes& value) {
    before[key] = value;
    return true;
  });
  const std::uint64_t pages_before = map->stats().pages;
  const std::uint64_t reclaimed = map->compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(map->stats().pages, pages_before - reclaimed);
  EXPECT_GE(map->stats().compactions, 1u);
  std::map<std::string, Bytes> after;
  map->for_each_prefix("", [&](const std::string& key, const Bytes& value) {
    after[key] = value;
    return true;
  });
  EXPECT_EQ(before, after) << "compaction must be logically bit-identical";
  EXPECT_EQ(map->entry_count(), 250u);
  // The compacted table survives an honest restart against its root.
  const auto root = map->root();
  auto reopened = make(options());
  EXPECT_NO_THROW(reopened->reopen(root));
  EXPECT_EQ(reopened->entry_count(), 250u);
}

TEST_F(AmapTest, CompactionFailsClosedOnTamper) {
  auto map = make(options());
  for (int i = 0; i < 300; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("v")));
  map->flush();
  map->reopen(std::nullopt);  // drop the clean cache
  std::string page;
  for (const auto& name : adversary_.list())
    if (name.rfind("__amap:t:p", 0) == 0) page = name;
  ASSERT_FALSE(page.empty());
  const Bytes blob = *adversary_.get(page);
  ASSERT_TRUE(adversary_.tamper_flip_bit(page, (blob.size() - 1) * 8));
  EXPECT_THROW(map->compact(), IntegrityError);
}

TEST_F(AmapTest, ScanFailsClosedOnTamperedPage) {
  auto map = make(options());
  for (int i = 0; i < 400; ++i)
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("v")));
  map->flush();
  map->reopen(std::nullopt);  // drop the clean cache: the scan hits the store
  // Tamper EVERY page's trailing tag so the scan cannot terminate before
  // reaching a tampered page, wherever it starts.
  for (const auto& name : adversary_.list()) {
    if (name.rfind("__amap:t:p", 0) != 0) continue;
    const Bytes blob = *adversary_.get(name);
    ASSERT_TRUE(adversary_.tamper_flip_bit(name, (blob.size() - 1) * 8));
  }
  std::size_t yielded = 0;
  EXPECT_THROW(map->for_each_prefix("k",
                                    [&](const std::string&, const Bytes&) {
                                      ++yielded;
                                      return true;
                                    }),
               RollbackError);
  EXPECT_EQ(yielded, 0u) << "a scan must not yield entries from stale pages";
}

// ---------------------------------------------------------- adversarial ---

class AmapAdversaryTest : public AmapTest {
 protected:
  /// Builds a flushed map with `n` entries and returns it.
  std::unique_ptr<AuthenticatedPageMap> populated(int n = 200) {
    auto map = make(options());
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(
          map->put("k" + std::to_string(i), val("v" + std::to_string(i))));
    }
    map->flush();
    return map;
  }

  std::vector<std::string> page_blobs() const {
    std::vector<std::string> out;
    for (const auto& name : adversary_.list()) {
      if (name.rfind("__amap:t:p", 0) == 0) out.push_back(name);
    }
    return out;
  }

  /// Probes every key; returns true if any get failed closed.
  bool any_get_fails(AuthenticatedPageMap& map, int n = 200) {
    bool failed = false;
    for (int i = 0; i < n; ++i) {
      try {
        map.get("k" + std::to_string(i));
      } catch (const IntegrityError&) {
        failed = true;  // RollbackError derives from IntegrityError
      }
    }
    return failed;
  }
};

TEST_F(AmapAdversaryTest, TamperedPageBodyFailsClosed) {
  auto map = populated();
  const auto blobs = page_blobs();
  ASSERT_FALSE(blobs.empty());
  // Flip a bit in the ciphertext body (past the 12-byte IV, before the
  // 16-byte tag): the pinned-tag check passes, GCM open must throw.
  ASSERT_TRUE(adversary_.tamper_flip_bit(blobs.front(), 14 * 8));
  map->reopen(std::nullopt);  // drop clean cache so reads hit the store
  EXPECT_TRUE(any_get_fails(*map));
}

TEST_F(AmapAdversaryTest, TamperedPageTagFailsClosedAsRollback) {
  auto map = populated();
  const auto blobs = page_blobs();
  ASSERT_FALSE(blobs.empty());
  const auto blob = *adversary_.get(blobs.front());
  // Flip a bit inside the trailing GCM tag: no longer matches the pinned
  // in-enclave tag, so the map must refuse before even decrypting.
  ASSERT_TRUE(
      adversary_.tamper_flip_bit(blobs.front(), (blob.size() - 1) * 8));
  map->reopen(std::nullopt);  // drop clean cache so reads hit the store
  EXPECT_TRUE(any_get_fails(*map));
}

TEST_F(AmapAdversaryTest, ReplayedStalePageFailsClosed) {
  auto map = populated();
  const auto blobs = page_blobs();
  ASSERT_FALSE(blobs.empty());
  // Snapshot a page, let the enclave overwrite it, then roll it back:
  // the stale page authenticates under GCM but carries a stale tag.
  for (const auto& name : blobs) adversary_.snapshot_blob(name);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("updated")));
  }
  map->flush();
  std::size_t rolled_back = 0;
  for (const auto& name : blobs) {
    if (adversary_.rollback_blob(name)) ++rolled_back;
  }
  ASSERT_GT(rolled_back, 0u);
  // Drop the clean cache so reads actually hit the store.
  map->reopen(std::nullopt);
  bool rollback_seen = false;
  for (int i = 0; i < 200; ++i) {
    try {
      map->get("k" + std::to_string(i));
    } catch (const RollbackError&) {
      rollback_seen = true;
    }
  }
  EXPECT_TRUE(rollback_seen)
      << "a replayed stale page must be rejected by the pinned-tag check";
}

TEST_F(AmapAdversaryTest, DeletedPageFailsClosed) {
  auto map = populated();
  const auto blobs = page_blobs();
  ASSERT_FALSE(blobs.empty());
  adversary_.remove(blobs.front());
  map->reopen(std::nullopt);
  EXPECT_TRUE(any_get_fails(*map));
}

TEST_F(AmapAdversaryTest, ColdRestartValidatesAgainstSealedRoot) {
  crypto::Sha256::Digest root;
  {
    auto map = populated();
    root = map->root();
  }
  // Honest restart: reopen against the guarded root succeeds.
  {
    auto map = make(options());
    EXPECT_NO_THROW(map->reopen(root));
    EXPECT_EQ(map->get("k1"), val("v1"));
  }
  // Adversary snapshots the store, lets the enclave make progress (the
  // guarded root advances with it), then rolls the whole store back. The
  // stale table is perfectly authentic — only the guarded root exposes it.
  adversary_.snapshot_all();
  crypto::Sha256::Digest new_root;
  {
    auto map = make(options());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(map->put("extra" + std::to_string(i), val("x")));
    }
    new_root = map->root();  // root() flushes first
    ASSERT_NE(new_root, root);
  }
  adversary_.rollback_all();
  {
    auto map = make(options());
    EXPECT_THROW(map->reopen(new_root), RollbackError);
  }
}

TEST_F(AmapAdversaryTest, MissingTableWithGuardedRootFailsClosed) {
  crypto::Sha256::Digest root;
  {
    auto map = populated();
    root = map->root();
  }
  adversary_.remove("__amap:t:dir");
  auto map_options = options();
  // Constructing on a missing table yields an empty map; reopen with the
  // guarded root must refuse to accept that silently.
  AuthenticatedPageMap map(adversary_, Bytes(16, 0x22), rng_,
                           std::move(map_options));
  EXPECT_THROW(map.reopen(root), RollbackError);
}

TEST_F(AmapAdversaryTest, TamperedTableManifestFailsClosed) {
  {
    auto map = populated();
  }
  // Flip a ciphertext bit in the (small) manifest blob: its own GCM open
  // fails during construction.
  ASSERT_TRUE(adversary_.tamper_flip_bit("__amap:t:dir", 30 * 8));
  EXPECT_THROW(make(options()), IntegrityError);
}

TEST_F(AmapAdversaryTest, TamperedTableSegmentFailsClosed) {
  {
    auto map = populated();
  }
  ASSERT_TRUE(adversary_.exists("__amap:t:t0"));
  const auto blob = *adversary_.get("__amap:t:t0");
  // Flip a bit in the segment's trailing GCM tag: it no longer matches
  // the tag the manifest pins — rejected as replay before decryption.
  ASSERT_TRUE(
      adversary_.tamper_flip_bit("__amap:t:t0", (blob.size() - 1) * 8));
  EXPECT_THROW(make(options()), RollbackError);
}

TEST_F(AmapAdversaryTest, ReplayedStaleTableSegmentFailsClosed) {
  auto map = populated();
  adversary_.snapshot_blob("__amap:t:t0");
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(map->put("k" + std::to_string(i), val("updated")));
  }
  map->flush();
  ASSERT_TRUE(adversary_.rollback_blob("__amap:t:t0"));
  // The stale segment authenticates under GCM but carries a tag the
  // fresh manifest no longer pins.
  EXPECT_THROW(make(options()), RollbackError);
}

}  // namespace
}  // namespace seg::amap
