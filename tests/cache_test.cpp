// Tests of the in-enclave metadata cache (config.metadata_cache_bytes):
// hit/miss accounting, write-through freshness under tampering, budget
// eviction equivalence with the cache disabled, EPC residency accounting
// and the CacheStats surface on the enclave.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/metadata_cache.h"
#include "core/trusted_file_manager.h"
#include "fs/records.h"
#include "segshare_test_util.h"
#include "sgx/platform.h"
#include "store/untrusted_store.h"

namespace seg::core {
namespace {

// Self-contained deployment so tests can run the same deterministic
// operation sequence against differently-configured managers.
struct World {
  explicit World(EnclaveConfig config, sgx::CostModel model = {})
      : rng(7), platform(rng, model) {
    tfm = std::make_unique<TrustedFileManager>(
        Stores{content, group, dedup}, Bytes(16, 0x11), rng, config,
        &platform, sgx::measure(to_bytes("test-enclave")));
  }

  TestRng rng;
  sgx::SgxPlatform platform;
  store::MemoryStore content, group, dedup;
  std::unique_ptr<TrustedFileManager> tfm;
};

EnclaveConfig cached_config(std::size_t budget = 1 << 20) {
  EnclaveConfig config;
  config.rollback_protection = true;
  config.fs_guard = FsRollbackGuard::kProtectedMemory;
  config.metadata_cache_bytes = budget;
  return config;
}

TEST(LruCacheTest, TracksHitsMissesAndEvictions) {
  LruCache<Bytes> cache(100, nullptr);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.get("a"), std::nullopt);
  cache.put("a", to_bytes("1234"), 4);  // 5 bytes with the key
  ASSERT_TRUE(cache.get("a").has_value());
  EXPECT_EQ(*cache.get("a"), to_bytes("1234"));
  EXPECT_EQ(cache.counters().hits, 2u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().resident_bytes, 5u);

  // Oversized values are refused rather than evicting the whole cache.
  cache.put("huge", Bytes(200), 200);
  EXPECT_EQ(cache.get("huge"), std::nullopt);
  ASSERT_TRUE(cache.get("a").has_value());

  // Filling past the budget evicts the least recently used entry.
  cache.put("b", Bytes(46), 46);  // 47 with the key; 52 resident
  cache.put("c", Bytes(52), 52);  // 53 more would hit 105: "a" (LRU) goes
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.get("a"), std::nullopt);
  EXPECT_TRUE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
}

TEST(LruCacheTest, ZeroBudgetDisables) {
  LruCache<Bytes> cache(0, nullptr);
  EXPECT_FALSE(cache.enabled());
  cache.put("a", to_bytes("x"), 1);
  EXPECT_EQ(cache.get("a"), std::nullopt);
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().misses, 0u);
}

TEST(MetadataCacheTest, WarmReadsSkipStoreRoundTrips) {
  World world(cached_config());
  const Bytes content = world.rng.bytes(10'000);
  fs::Directory root;
  root.add("/f");
  world.tfm->write("/", root.serialize());
  world.tfm->write("/f", content);

  world.tfm->read("/f");  // cold: loads header sidecars along the path
  world.content.reset_op_counts();
  const auto warm_stats = world.tfm->cache_stats();
  world.tfm->read("/f");
  const auto stats = world.tfm->cache_stats();

  EXPECT_GT(stats.headers.hits, warm_stats.headers.hits);
  EXPECT_GT(stats.resident_bytes(), 0u);

  // The warm read must cost strictly fewer store gets than the same read
  // on an uncached manager.
  const std::uint64_t warm_gets = world.content.op_counts().gets;
  EnclaveConfig off = cached_config();
  off.metadata_cache_bytes = 0;
  World uncached(off);
  uncached.tfm->write("/", root.serialize());
  uncached.tfm->write("/f", content);
  uncached.tfm->read("/f");
  uncached.content.reset_op_counts();
  uncached.tfm->read("/f");
  EXPECT_LT(warm_gets, uncached.content.op_counts().gets);
  EXPECT_EQ(uncached.tfm->cache_stats().headers.hits, 0u);
}

TEST(MetadataCacheTest, CachedDirectoryServedDespiteStoreTampering) {
  World world(cached_config());
  fs::Directory dir;
  dir.add("/f");
  world.tfm->write("/", dir.serialize());
  world.tfm->write("/f", to_bytes("payload"));
  ASSERT_EQ(world.tfm->read("/"), dir.serialize());

  // Corrupt every blob in the untrusted store. The cached directory
  // record is authoritative (the enclave is the only writer), so the
  // warm read still succeeds — same freshness argument as the group-
  // record cache (DESIGN.md §6.4).
  for (const auto& name : world.content.list()) {
    auto blob = *world.content.get(name);
    if (blob.empty()) continue;
    blob[blob.size() / 2] ^= 0x40;
    world.content.put(name, blob);
  }
  EXPECT_EQ(world.tfm->read("/"), dir.serialize());

  // Content files are not cached: their read hits the store and the
  // corruption is detected.
  EXPECT_THROW(world.tfm->read("/f"), Error);
}

TEST(MetadataCacheTest, WarmCacheDoesNotMaskContentRollback) {
  World world(cached_config());
  fs::Directory root;
  root.add("/f");
  world.tfm->write("/", root.serialize());
  world.tfm->write("/f", to_bytes("v1"));
  world.tfm->read("/f");  // warm the header path
  const auto snapshot = world.content.snapshot();
  world.tfm->write("/f", to_bytes("v2"));
  world.tfm->read("/f");

  // Roll the whole content store back to v1 while the enclave is warm:
  // the cached (fresh) headers disagree with the stale store state.
  world.content.restore(snapshot);
  EXPECT_THROW(world.tfm->read("/f"), RollbackError);
}

TEST(MetadataCacheTest, ColdRestartDetectsWholeStoreRollback) {
  EnclaveConfig config = cached_config();
  TestRng rng(7);
  sgx::SgxPlatform platform(rng);
  store::MemoryStore content, group, dedup;
  const auto measurement = sgx::measure(to_bytes("test-enclave"));
  auto tfm = std::make_unique<TrustedFileManager>(
      Stores{content, group, dedup}, Bytes(16, 0x11), rng, config, &platform,
      measurement);
  tfm->write("/f", to_bytes("v1"));
  const auto snapshot = content.snapshot();
  tfm->write("/f", to_bytes("v2"));
  tfm.reset();

  content.restore(snapshot);
  auto restarted = std::make_unique<TrustedFileManager>(
      Stores{content, group, dedup}, Bytes(16, 0x11), rng, config, &platform,
      measurement);
  EXPECT_THROW(restarted->startup_validation(), RollbackError);
}

// The same operation sequence, run with the cache off and with a budget
// so small everything is evicted (or refused), must produce bit-identical
// untrusted-store state: the cache is write-through and never changes
// what is persisted.
TEST(MetadataCacheTest, TinyBudgetMatchesCacheOffBitForBit) {
  EnclaveConfig off = cached_config();
  off.metadata_cache_bytes = 0;
  off.deduplication = true;
  EnclaveConfig tiny = off;
  tiny.metadata_cache_bytes = 48;  // smaller than any header entry

  const auto run = [](World& world) {
    auto& tfm = *world.tfm;
    fs::Directory dir;
    dir.add("/a");
    tfm.write("/", dir.serialize());
    auto upload = tfm.begin_upload("/a");
    upload->append(to_bytes("shared content"));
    upload->finish();
    auto dup = tfm.begin_upload("/b");
    dup->append(to_bytes("shared content"));
    dup->finish();
    tfm.write("/c", to_bytes("direct"));
    (void)tfm.read("/a");
    (void)tfm.read("/");
    tfm.remove("/b");
    tfm.write("/c", to_bytes("direct2"));
  };

  World base(off), cached(tiny);
  run(base);
  run(cached);
  EXPECT_EQ(base.content.snapshot(), cached.content.snapshot());
  EXPECT_EQ(base.group.snapshot(), cached.group.snapshot());
  EXPECT_EQ(base.dedup.snapshot(), cached.dedup.snapshot());
  // The tiny budget really did refuse/evict: nothing stayed resident.
  EXPECT_EQ(cached.tfm->cache_stats().headers.resident_bytes, 0u);
}

TEST(MetadataCacheTest, ResidencyIsChargedToTheEpcModel) {
  sgx::CostModel model;
  model.epc_size_bytes = 64;  // tiny EPC: any resident cache spills
  World world(cached_config(1 << 16), model);
  fs::Directory root;
  root.add("/f");
  world.tfm->write("/", root.serialize());
  world.tfm->write("/f", world.rng.bytes(5'000));
  world.tfm->read("/f");
  world.tfm->read("/f");

  // The paged maps charge their page caches, dirty pages and page tables
  // to the same model, so the platform total reconciles with both tiers.
  std::uint64_t amap_resident = 0;
  const auto amap = world.tfm->amap_stats();
  for (const auto* s : {&amap.dedup, &amap.group})
    amap_resident += s->cache_resident_bytes + s->dirty_bytes + s->table_bytes;
  EXPECT_EQ(world.platform.epc_resident_bytes(),
            world.tfm->cache_stats().resident_bytes() + amap_resident);
  EXPECT_GT(world.platform.epc_resident_bytes(), 0u);
  EXPECT_GT(world.platform.stats().epc_pages_in, 0u);
}

TEST(MetadataCacheTest, StatsExposedThroughEnclave) {
  EnclaveConfig config;
  config.rollback_protection = true;
  config.fs_guard = FsRollbackGuard::kProtectedMemory;
  config.metadata_cache_bytes = 1 << 20;
  testutil::Rig rig(config);
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.put_file("/doc", to_bytes("hello")).ok());
  ASSERT_TRUE(alice.get_file("/doc").first.ok());
  ASSERT_TRUE(alice.get_file("/doc").first.ok());

  const auto stats = rig.enclave().cache_stats();
  EXPECT_GT(stats.headers.hits + stats.objects.hits, 0u);
  EXPECT_EQ(stats.headers.budget_bytes + stats.objects.budget_bytes,
            config.metadata_cache_bytes);
}

}  // namespace
}  // namespace seg::core
