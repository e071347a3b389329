// E11 — out-of-EPC paged metadata (DESIGN.md §9): per-mutation cost of
// the dedup index as it grows from thousands to a million entries.
//
// The authenticated page map touches one page chain plus the in-enclave
// table per refcount mutation: the sweep shows near-flat latency
// 10k -> 1M entries under one fixed EPC cache budget.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "amap/authenticated_page_map.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/sim_clock.h"
#include "core/trusted_file_manager.h"
#include "pfs/crypto_pool.h"
#include "store/async_store.h"

using namespace seg;
using namespace seg::bench;

namespace {

/// One dedup-style record: "r:<32 hex>" -> 8-byte refcount.
std::string record_key(std::size_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "r:%032zx", i);
  return buf;
}

/// Direct amap sweep: seed `n` records, then time get+put+flush cycles
/// (the exact shape of a refcount bump at a drain barrier).
void sweep_amap(BenchReport& report, std::size_t n, std::size_t ops,
                pfs::CryptoPool* pool) {
  TestRng rng(0x5eed);
  sgx::SgxPlatform platform(rng);
  store::MemoryStore store;
  amap::AmapOptions options;
  options.name = "dedup";
  options.cache_bytes = 256 << 10;  // FIXED budget across the whole sweep
  options.platform = &platform;
  options.pool = pool;
  amap::AuthenticatedPageMap map(store, Bytes(16, 0x5a), rng, options);

  Bytes refcount;
  put_u64_be(refcount, 1);
  Stopwatch seed_watch;
  for (std::size_t i = 0; i < n; ++i) map.put(record_key(i), refcount);
  map.flush();
  const double seed_ms = seed_watch.elapsed_ms();

  Stopwatch watch;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string key = record_key((i * 2654435761u) % n);
    const Bytes current = map.get(key).value();
    Bytes bumped;
    put_u64_be(bumped, get_u64_be(current, 0) + 1);
    map.put(key, bumped);
    map.flush();  // the TFM flushes (and re-guards) at every op barrier
  }
  const double mutate_us =
      static_cast<double>(watch.elapsed_ns()) / 1e3 / static_cast<double>(ops);

  const auto stats = map.stats();
  std::printf(
      "amap  n=%8zu: %7.1f us/mutation (seed %7.0f ms, %5llu pages, "
      "%4llu splits, cache %3llu KiB of %3llu KiB, table %4llu KiB)\n",
      n, mutate_us, seed_ms,
      static_cast<unsigned long long>(stats.pages),
      static_cast<unsigned long long>(stats.splits),
      static_cast<unsigned long long>(stats.cache_resident_bytes >> 10),
      static_cast<unsigned long long>(stats.cache_budget_bytes >> 10),
      static_cast<unsigned long long>(stats.table_bytes >> 10));
  const std::string prefix = "amap.n_" + std::to_string(n);
  report.add(prefix + ".mutation.mean", mutate_us, "us");
  report.add(prefix + ".pages", static_cast<double>(stats.pages), "count");
  report.add(prefix + ".table_kib",
             static_cast<double>(stats.table_bytes) / 1024.0, "value");
}

/// Measured barrier loop shared by the spill modes: random refcount bump
/// (get + put) with a flush barrier per op, exactly like sweep_amap.
double timed_mutations(amap::AuthenticatedPageMap& map, std::size_t n,
                       std::size_t ops) {
  Stopwatch watch;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string key = record_key((i * 2654435761u) % n);
    const Bytes current = map.get(key).value();
    Bytes bumped;
    put_u64_be(bumped, get_u64_be(current, 0) + 1);
    map.put(key, bumped);
    map.flush();
  }
  return static_cast<double>(watch.elapsed_ns()) / 1e3 /
         static_cast<double>(ops);
}

/// Part 3: the page store spilled onto DiskStore through the async I/O
/// pool (DESIGN.md §9.6) — the 10M-entry namespace under the same fixed
/// 256 KiB budget. Seeds once, then measures the barrier loop twice on
/// the same seeded store: per-barrier full write-back (journal_bytes = 0)
/// vs group-committed append journal.
void sweep_spill(BenchReport& report, std::size_t n, std::size_t ops,
                 pfs::CryptoPool* pool) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("segshare_bench_metadata_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  TestRng rng(0xd15c);
  sgx::SgxPlatform platform(rng);
  store::DiskStore store(dir.string());
  store::StoreIoPool io({.threads = 4}, &platform);
  const Bytes key(16, 0x5b);

  amap::AmapOptions options;
  options.name = "spill";
  options.cache_bytes = 256 << 10;  // FIXED budget, same as Part 1
  options.io = &io;
  options.platform = &platform;
  options.pool = pool;

  double writeback_us = 0.0;
  double journal_us = 0.0;
  std::uint64_t pages = 0;
  crypto::Sha256::Digest root;
  {
    // Seeding is setup, not measurement: a roomy cache and large
    // write-back batches build the on-disk map quickly. The measured
    // loops below reopen it under the fixed 256 KiB budget.
    amap::AmapOptions seed_opt = options;
    seed_opt.cache_bytes = 128 << 20;
    seed_opt.dirty_flush_bytes = 32 << 20;
    amap::AuthenticatedPageMap map(store, key, rng, seed_opt);
    Bytes refcount;
    put_u64_be(refcount, 1);
    Stopwatch seed_watch;
    for (std::size_t i = 0; i < n; ++i) map.put(record_key(i), refcount);
    map.flush();
    const double seed_s = seed_watch.elapsed_ms() / 1e3;
    std::printf("spill n=%8zu: seeded in %6.1f s (%llu MiB on disk)\n", n,
                seed_s,
                static_cast<unsigned long long>(store.total_bytes() >> 20));
    pages = map.stats().pages;
    root = map.root();
  }
  {
    amap::AuthenticatedPageMap map(store, key, rng, options);
    map.reopen(root);
    writeback_us = timed_mutations(map, n, ops);
    root = map.root();
  }
  {
    // Same store and contents, reopened with the append journal armed:
    // dirty pages ride out up to 256 dirty-page barriers before a
    // checkpoint folds them back.
    amap::AmapOptions jopt = options;
    jopt.journal_bytes = 256 << 10;
    jopt.dirty_flush_bytes = 1 << 20;
    amap::AuthenticatedPageMap map(store, key, rng, jopt);
    map.reopen(root);
    journal_us = timed_mutations(map, n, ops);
    const auto stats = map.stats();
    std::printf(
        "spill n=%8zu: %7.1f us/mutation write-back, %7.1f us/mutation "
        "journal (%5llu pages, %llu journal appends, %llu checkpoints)\n",
        n, writeback_us, journal_us,
        static_cast<unsigned long long>(pages),
        static_cast<unsigned long long>(stats.journal_appends),
        static_cast<unsigned long long>(stats.checkpoints));
  }
  std::filesystem::remove_all(dir);

  const std::string prefix = "amap.spill.n_" + std::to_string(n);
  report.add(prefix + ".writeback.mean", writeback_us, "us");
  report.add(prefix + ".journal.mean", journal_us, "us");
  report.add(prefix + ".pages", static_cast<double>(pages), "count");
}

/// TFM-level cost at small n: duplicate uploads (pure refcount bumps)
/// through the paged dedup map.
double tfm_dup_upload_us(std::size_t n, std::size_t ops) {
  TestRng rng(0x7fa);
  sgx::SgxPlatform platform(rng);
  store::MemoryStore content, group, dedup;
  core::EnclaveConfig config;
  config.deduplication = true;
  config.metadata_cache_bytes = 1 << 20;
  core::TrustedFileManager tfm(core::Stores{content, group, dedup},
                               Bytes(16, 0x11), rng, config, &platform,
                               sgx::measure(to_bytes("bench")));
  const auto upload = [&](const std::string& path, const Bytes& body) {
    auto up = tfm.begin_upload(path);
    up->append(body);
    up->finish();
  };
  for (std::size_t i = 0; i < n; ++i)
    upload("/seed" + std::to_string(i), rng.bytes(64));
  const Bytes body = rng.bytes(64);
  upload("/dup", body);

  Stopwatch watch;
  for (std::size_t i = 0; i < ops; ++i)
    upload("/dup" + std::to_string(i), body);
  return static_cast<double>(watch.elapsed_ns()) / 1e3 /
         static_cast<double>(ops);
}

}  // namespace

int main() {
  print_header(
      "E11  paged metadata: dedup mutation cost vs index size (DESIGN.md §9)",
      "§V-A dedup index beyond EPC: O(page) refcount mutations via the "
      "Merkle-authenticated page map");

  BenchReport report("metadata");
  pfs::CryptoPool pool(4);

  // Part 1: the amap itself, 10k -> 1M records under one EPC budget.
  {
    const std::vector<std::size_t> sizes =
        smoke_mode()   ? std::vector<std::size_t>{512, 2048}
        : quick_mode() ? std::vector<std::size_t>{10'000, 100'000}
                       : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
    const std::size_t ops = smoke_mode() ? 64 : 2'000;
    std::printf("fixed 256 KiB page-cache budget, flush barrier per op:\n");
    for (const std::size_t n : sizes) sweep_amap(report, n, ops, &pool);
  }

  // Part 2: end-to-end duplicate uploads through the TrustedFileManager.
  {
    const std::size_t n = smoke_mode() ? 128 : 2'000;
    const std::size_t ops = smoke_mode() ? 16 : 200;
    std::printf("\nduplicate upload end-to-end (n=%zu seeded entries):\n", n);
    const double paged_us = tfm_dup_upload_us(n, ops);
    std::printf("  paged amap index: %8.1f us/upload\n", paged_us);
    report.add("tfm.paged.dup_upload.mean", paged_us, "us");
  }

  // Part 3: the same fixed budget with the page store spilled onto disk —
  // 100k -> 10M entries (smoke/quick runs stop at 100k), write-back vs
  // append-journal barriers.
  {
    const std::vector<std::size_t> sizes =
        quick_mode() ? std::vector<std::size_t>{100'000}
                     : std::vector<std::size_t>{100'000, 1'000'000,
                                                10'000'000};
    const std::size_t ops = smoke_mode() ? 64 : 2'000;
    std::printf(
        "\nDiskStore spill through the async I/O pool, fixed 256 KiB "
        "budget:\n");
    for (const std::size_t n : sizes) sweep_spill(report, n, ops, &pool);
  }

  report.write();
  return 0;
}
