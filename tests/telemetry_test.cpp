// Observability layer (DESIGN.md §8): metrics registry correctness under
// concurrency, trace-span accounting, the kStats wire round-trip, the
// pump-error satellite counters, and the no-secrets export guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "fs/records.h"
#include "segshare_test_util.h"
#include "telemetry/exporter.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace seg {
namespace {

using testutil::Rig;

// ---------------------------------------------------------------- registry

TEST(Registry, CountersGaugesHistogramsAcrossThreads) {
  telemetry::Registry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOpsEach = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Registration races with other threads (mutex-guarded); recording
      // is lock-free relaxed atomics.
      telemetry::Counter& shared = registry.counter("test.shared");
      telemetry::Gauge& own =
          registry.gauge("test.thread_" + std::to_string(t));
      telemetry::Histogram& hist = registry.histogram("test.latency");
      for (std::uint64_t i = 0; i < kOpsEach; ++i) {
        shared.add();
        own.set(i);
        hist.record(i % 1000);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const telemetry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("test.shared"), kThreads * kOpsEach);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(snap.gauge("test.thread_" + std::to_string(t)), kOpsEach - 1);
  const auto& hist = snap.histograms.at("test.latency");
  EXPECT_EQ(hist.count, kThreads * kOpsEach);
  EXPECT_EQ(hist.max, 999u);
}

TEST(Registry, RejectsNamesOutsideMetricCharset) {
  telemetry::Registry registry;
  // The structural sanitization rule: request-derived strings (paths,
  // group names, '/'-or-space-bearing data) cannot become metric names.
  EXPECT_THROW(registry.counter("/docs/report.pdf"), Error);
  EXPECT_THROW(registry.gauge("group name"), Error);
  EXPECT_THROW(registry.histogram(""), Error);
  EXPECT_THROW(registry.set_note("bad\nname", "x"), Error);
  EXPECT_FALSE(telemetry::Registry::valid_metric_name("a/b"));
  EXPECT_TRUE(telemetry::Registry::valid_metric_name("enclave.requests.GET"));
  EXPECT_NO_THROW(registry.counter("ok.name-1_x"));
}

TEST(Registry, HistogramPercentilesAndBuckets) {
  telemetry::Registry registry;
  telemetry::Histogram& hist =
      registry.histogram("test.h", {10, 100, 1000});
  for (std::uint64_t v : {1u, 5u, 50u, 500u, 5000u}) hist.record(v);
  const auto snap = registry.snapshot().histograms.at("test.h");
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 5556u);
  EXPECT_EQ(snap.max, 5000u);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  // Nearest-rank from buckets: the 3rd of 5 samples (50) lands in the
  // (10,100] bucket, reported as its upper bound; p99 falls in the
  // overflow bucket, which degrades to max.
  EXPECT_EQ(snap.percentile(50), 100u);
  EXPECT_EQ(snap.percentile(99), 5000u);
}

TEST(Registry, SnapshotWireRoundTripAndMerge) {
  telemetry::Registry registry;
  registry.counter("a.count").add(7);
  registry.gauge("b.depth").set(42);
  // The wire form reconstructs histograms over the default bounds (the
  // only ones the enclave exports), so use them here.
  registry.histogram("c.lat").record(55);
  registry.set_note("d.note", "last error: something went wrong");
  const telemetry::Snapshot snap = registry.snapshot();

  const telemetry::Snapshot back =
      telemetry::Snapshot::from_lines(snap.to_lines());
  EXPECT_EQ(back.counter("a.count"), 7u);
  EXPECT_EQ(back.gauge("b.depth"), 42u);
  ASSERT_TRUE(back.histograms.count("c.lat"));
  EXPECT_EQ(back.histograms.at("c.lat").count, 1u);
  EXPECT_EQ(back.histograms.at("c.lat").sum, 55u);
  EXPECT_EQ(back.histograms.at("c.lat").bounds,
            telemetry::default_latency_buckets_ns());
  EXPECT_EQ(back.histograms.at("c.lat").percentile(50),
            snap.histograms.at("c.lat").percentile(50));
  ASSERT_TRUE(back.notes.count("d.note"));
  EXPECT_EQ(back.notes.at("d.note"), "last error: something went wrong");

  // merge: counters add, gauges overwrite, equal-bounds histograms fold.
  telemetry::Snapshot merged = snap;
  merged.merge(back);
  EXPECT_EQ(merged.counter("a.count"), 14u);
  EXPECT_EQ(merged.gauge("b.depth"), 42u);
  EXPECT_EQ(merged.histograms.at("c.lat").count, 2u);

  // JSON form parses as an object with all three metric kinds.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\""), std::string::npos);
}

// ------------------------------------------------------------------ traces

TEST(Traces, SegmentSumsMatchEndToEndLatency) {
  Rig rig;
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.put_file("/f", rig.rng().bytes(64 << 10)).ok());
  ASSERT_TRUE(alice.get_file("/f").first.ok());

  const auto traces = rig.enclave().recent_traces();
  ASSERT_FALSE(traces.empty());
  bool saw_crypto = false, saw_store = false;
  std::size_t with_status = 0;
  for (const auto& span : traces) {
    EXPECT_GT(span.request_id, 0u);
    // A client-visible PUT is two spans (START + END) but one response,
    // so only the END span carries a status.
    if (span.has_status) ++with_status;
    else EXPECT_EQ(span.verb, static_cast<std::uint8_t>(proto::Verb::kPutFile));
    // kHandler is the unattributed remainder, so the segments excluding
    // queue wait (which precedes the span) sum to the span's wall time
    // exactly — unless clock granularity made the measured segments
    // overshoot, in which case the sum may exceed it slightly.
    std::uint64_t measured = 0;
    for (std::size_t s = 0; s < telemetry::kSegmentCount; ++s)
      if (s != static_cast<std::size_t>(telemetry::Segment::kQueueWait))
        measured += span.real_ns[s];
    EXPECT_GE(measured, span.total_real_ns);
    EXPECT_LE(measured, span.total_real_ns + 2'000'000u);  // 2 ms slack
    saw_crypto |= span.segment_real(telemetry::Segment::kCrypto) > 0;
    saw_store |= span.segment_real(telemetry::Segment::kStoreIo) > 0;
    // Modeled time: every request crosses the boundary at least twice.
    EXPECT_GT(span.segment_sim(telemetry::Segment::kTransition), 0u);
  }
  EXPECT_TRUE(saw_crypto);
  EXPECT_TRUE(saw_store);
  EXPECT_EQ(with_status, 2u);  // one PUT response + one GET response
}

TEST(Traces, RingBufferKeepsMostRecent) {
  core::EnclaveConfig config;
  config.telemetry_trace_ring = 4;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(alice.get_file("/nope" + std::to_string(i)).first.status ==
                proto::Status::kNotFound);
  const auto traces = rig.enclave().recent_traces();
  EXPECT_EQ(traces.size(), 4u);
  // Oldest-first ordering with monotonically assigned ids.
  for (std::size_t i = 1; i < traces.size(); ++i)
    EXPECT_GT(traces[i].request_id, traces[i - 1].request_id);
}

// ------------------------------------------------------------------ kStats

TEST(Stats, RoundTripReconcilesWithEnclaveCounters) {
  Rig rig;
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.mkdir("/dir/").ok());
  ASSERT_TRUE(alice.put_file("/dir/a", to_bytes("one")).ok());
  ASSERT_TRUE(alice.put_file("/dir/b", to_bytes("two")).ok());
  ASSERT_TRUE(alice.get_file("/dir/a").first.ok());
  ASSERT_TRUE(alice.get_file("/dir/b").first.ok());
  ASSERT_TRUE(alice.get_file("/dir/a").first.ok());

  const auto [response, snap] = alice.stats();
  ASSERT_TRUE(response.ok());
  // The snapshot is built before the STATS response is sent, so it covers
  // exactly the six client-visible operations above plus the STATS
  // request itself.
  EXPECT_EQ(snap.counter("enclave.requests.MKCOL"), 1u);
  EXPECT_EQ(snap.counter("enclave.requests.PUT"), 2u);
  EXPECT_EQ(snap.counter("enclave.requests.GET"), 3u);
  EXPECT_EQ(snap.counter("enclave.requests.STATS"), 1u);
  EXPECT_EQ(snap.counter("enclave.requests"), 7u);
  EXPECT_EQ(snap.counter("enclave.responses"), 6u);
  EXPECT_EQ(snap.counter("enclave.responses.OK"), 6u);
  EXPECT_GT(snap.counter("enclave.handshake_messages"), 0u);
  EXPECT_GT(snap.counter("enclave.bytes_in"), 0u);
  EXPECT_GT(snap.counter("enclave.bytes_out"), 0u);
  EXPECT_EQ(snap.gauge("enclave.connections"), 1u);
  // SGX accounting folded in as gauges (switchless mode replaces ecalls
  // with switchless calls, so check their sum).
  EXPECT_GT(snap.gauge("sgx.ecalls") + snap.gauge("sgx.switchless_calls"),
            0u);
  EXPECT_GT(snap.gauge("sgx.charged_ns"), 0u);
  // Untrusted server registry merged into the same export.
  EXPECT_GT(snap.counter("server.pump.rounds"), 0u);
  EXPECT_GT(snap.counter("server.pump.dispatched"), 0u);
  EXPECT_EQ(snap.counter("server.pump.errors"), 0u);

  // Latency histograms saw every traced request (PUT = two spans).
  ASSERT_TRUE(snap.histograms.count("enclave.request_real_ns"));
  EXPECT_EQ(snap.histograms.at("enclave.request_real_ns").count, 8u);
  EXPECT_EQ(snap.gauge("enclave.traces_recorded"), 8u);

  // The wire snapshot agrees with what the enclave reports in-process
  // (counters are monotonic; the in-process read happens later so it may
  // only have grown — the pre-STATS ones must match exactly).
  const telemetry::Snapshot direct = rig.enclave().telemetry_snapshot();
  EXPECT_EQ(direct.counter("enclave.requests.GET"),
            snap.counter("enclave.requests.GET"));
  EXPECT_EQ(direct.counter("enclave.requests.PUT"),
            snap.counter("enclave.requests.PUT"));
  EXPECT_GE(direct.counter("enclave.responses"),
            snap.counter("enclave.responses"));
}

TEST(Stats, ReconcilesCacheDedupAndSwitchlessCounters) {
  core::EnclaveConfig config;
  config.metadata_cache_bytes = 256 << 10;
  config.deduplication = true;
  config.service_threads = 2;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  const Bytes payload = rig.rng().bytes(8 << 10);
  ASSERT_TRUE(alice.put_file("/a", payload).ok());
  ASSERT_TRUE(alice.put_file("/b", payload).ok());  // same bytes: dedup hit
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(alice.get_file("/a").first.ok());

  const auto [response, snap] = alice.stats();
  ASSERT_TRUE(response.ok());
  // The gauges in the export are the same numbers the in-process
  // accessors report (no further operations ran in between).
  const auto cache = rig.enclave().cache_stats();
  EXPECT_EQ(snap.gauge("cache.headers.hits"), cache.headers.hits);
  EXPECT_EQ(snap.gauge("cache.headers.misses"), cache.headers.misses);
  EXPECT_EQ(snap.gauge("tfm.dedup.hits"), 1u);
  EXPECT_EQ(snap.gauge("tfm.dedup.blobs"), 1u);
  EXPECT_GE(snap.gauge("tfm.dedup.refs"), 2u);
  // Requests were serviced by the switchless worker pool.
  EXPECT_GT(snap.gauge("sgx.switchless.tasks_executed"), 0u);
}

TEST(Stats, ExportsContentCacheAndCryptoPoolGauges) {
  core::EnclaveConfig config;
  config.crypto_threads = 2;
  config.content_cache_bytes = 1 << 20;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  const Bytes payload = rig.rng().bytes(64 << 10);  // multi-chunk
  ASSERT_TRUE(alice.put_file("/a", payload).ok());
  ASSERT_TRUE(alice.get_file("/a").first.ok());  // cold: misses, fills
  ASSERT_TRUE(alice.get_file("/a").first.ok());  // warm: hits

  const auto [response, snap] = alice.stats();
  ASSERT_TRUE(response.ok());
  EXPECT_GT(snap.gauge("pfs.content_cache.hits"), 0u);
  EXPECT_GT(snap.gauge("pfs.content_cache.misses"), 0u);
  EXPECT_GT(snap.gauge("pfs.content_cache.bytes"), 0u);
  EXPECT_EQ(snap.gauge("pfs.content_cache.budget_bytes"), 1u << 20);
  EXPECT_EQ(snap.gauge("pfs.crypto_pool.threads"), 2u);
  EXPECT_GT(snap.gauge("pfs.crypto_pool.tasks"), 0u);
  EXPECT_GT(snap.gauge("pfs.crypto_pool.queue_depth"), 0u);
  // The cached chunks are charged against the EPC budget model.
  EXPECT_GE(snap.gauge("sgx.epc_resident_bytes"),
            snap.gauge("pfs.content_cache.bytes"));

  // Serial deployments export the gauges as zeros (pool disabled, cache
  // off) rather than omitting them — dashboards keep a stable schema.
  Rig serial;
  auto& bob = serial.connect("bob");
  ASSERT_TRUE(bob.put_file("/b", to_bytes("x")).ok());
  const auto [response2, snap2] = bob.stats();
  ASSERT_TRUE(response2.ok());
  EXPECT_EQ(snap2.gauge("pfs.content_cache.hits"), 0u);
  EXPECT_EQ(snap2.gauge("pfs.content_cache.budget_bytes"), 0u);
  EXPECT_EQ(snap2.gauge("pfs.crypto_pool.threads"), 0u);
}

TEST(Stats, ExportsAsyncStoreIoGauges) {
  core::EnclaveConfig config;
  config.store_io_threads = 2;
  config.store_queue_depth = 8;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  const Bytes payload = rig.rng().bytes(64 << 10);  // multi-chunk
  ASSERT_TRUE(alice.put_file("/a", payload).ok());
  ASSERT_TRUE(alice.get_file("/a").first.ok());

  const auto [response, snap] = alice.stats();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(snap.gauge("store.async.threads"), 2u);
  EXPECT_GT(snap.gauge("store.async.submitted"), 0u);
  EXPECT_EQ(snap.gauge("store.async.submitted"),
            snap.gauge("store.async.completed"));
  EXPECT_EQ(snap.gauge("store.async.failed"), 0u);
  EXPECT_EQ(snap.gauge("store.async.inline_ops"), 0u);
  EXPECT_GT(snap.gauge("store.async.batches"), 0u);
  EXPECT_LE(snap.gauge("store.async.max_in_flight"), 8u);
  // The rig's stores are memory-backed, so every pool-completed op is
  // charged the cost model's disk-class store latency.
  EXPECT_EQ(snap.gauge("sgx.store_ops"), snap.gauge("store.async.completed") -
                                             snap.gauge("store.async.inline_ops"));
  EXPECT_GT(snap.gauge("sgx.charged_ns"), 0u);

  // Synchronous deployments export the schema as zeros.
  Rig serial;
  auto& bob = serial.connect("bob");
  ASSERT_TRUE(bob.put_file("/b", to_bytes("x")).ok());
  const auto [response2, snap2] = bob.stats();
  ASSERT_TRUE(response2.ok());
  EXPECT_EQ(snap2.gauge("store.async.threads"), 0u);
  EXPECT_EQ(snap2.gauge("store.async.submitted"), 0u);
  EXPECT_EQ(snap2.gauge("sgx.store_ops"), 0u);
}

TEST(Stats, ExportsAmapGauges) {
  core::EnclaveConfig config;
  config.deduplication = true;
  config.amap_cache_bytes = 64 << 10;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  const Bytes payload = rig.rng().bytes(8 << 10);
  ASSERT_TRUE(alice.put_file("/a", payload).ok());
  ASSERT_TRUE(alice.put_file("/b", payload).ok());  // refcount bump: one page
  ASSERT_TRUE(alice.get_file("/a").first.ok());

  const auto [response, snap] = alice.stats();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(snap.gauge("amap.dedup.entries"), 1u);  // one refcount record
  EXPECT_GT(snap.gauge("amap.dedup.pages"), 0u);
  EXPECT_GT(snap.gauge("amap.dedup.writeback_pages"), 0u);
  EXPECT_GT(snap.gauge("amap.dedup.writeback_batches"), 0u);
  EXPECT_EQ(snap.gauge("amap.dedup.dirty_pages"), 0u);  // flushed at barriers
  EXPECT_GT(snap.gauge("amap.dedup.table_bytes"), 0u);
  EXPECT_GT(snap.gauge("amap.group.entries"), 0u);  // alice's registration
  EXPECT_GT(snap.gauge("amap.group.budget_bytes"), 0u);
  // The per-map stats exported are the in-process accessors' numbers.
  const auto amap = rig.enclave().file_manager().amap_stats();
  EXPECT_EQ(snap.gauge("amap.dedup.page_hits"), amap.dedup.page_hits);
  EXPECT_EQ(snap.gauge("amap.group.page_misses"), amap.group.page_misses);
  // Amap pages count against the simulated EPC via the residency model.
  EXPECT_GE(snap.gauge("sgx.epc_resident_bytes"),
            snap.gauge("amap.dedup.resident_bytes") +
                snap.gauge("amap.dedup.table_bytes"));

  // Deployments without dedup export the dedup tier as zeros, not gaps.
  // Headers and ACL/directory records have no paged tier at all.
  Rig plain;
  auto& bob = plain.connect("bob");
  ASSERT_TRUE(bob.put_file("/b", to_bytes("x")).ok());
  const auto [response2, snap2] = bob.stats();
  ASSERT_TRUE(response2.ok());
  EXPECT_EQ(snap2.gauge("amap.dedup.entries"), 0u);
  EXPECT_GT(snap2.gauge("amap.group.entries"), 0u);
  for (const auto& [name, value] : snap2.gauges)
    EXPECT_NE(name.rfind("amap.meta.", 0), 0u) << name;
}

TEST(Stats, ExportsAmapJournalAndCompactionGauges) {
  core::EnclaveConfig config;
  config.deduplication = true;
  config.amap_journal_bytes = 64 << 10;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  const Bytes payload = rig.rng().bytes(8 << 10);
  ASSERT_TRUE(alice.put_file("/a", payload).ok());  // first barrier checkpoints
  ASSERT_TRUE(alice.put_file("/b", payload).ok());  // later barriers journal
  ASSERT_TRUE(alice.put_file("/c", payload).ok());
  ASSERT_TRUE(alice.add_user_to_group("bob", "team").ok());

  const auto [response, snap] = alice.stats();
  ASSERT_TRUE(response.ok());
  EXPECT_GT(snap.gauge("amap.dedup.journal.appends"), 0u)
      << "dedup barriers must group-commit journal records";
  EXPECT_GT(snap.gauge("amap.dedup.journal.bytes"), 0u);
  EXPECT_GT(snap.gauge("amap.dedup.journal.checkpoints"), 0u);
  EXPECT_GT(snap.gauge("amap.group.journal.appends"), 0u)
      << "membership barriers must group-commit journal records";
  EXPECT_GT(snap.gauge("amap.group.entries"), 0u);
  // Aggregates fold the tiers.
  EXPECT_EQ(snap.gauge("amap.journal.appends"),
            snap.gauge("amap.dedup.journal.appends") +
                snap.gauge("amap.group.journal.appends"));
  EXPECT_EQ(snap.gauge("amap.compaction.runs"), 0u);

  // Compaction surfaces in the same schema.
  rig.enclave().file_manager().compact_paged_metadata();
  const auto [response2, snap2] = alice.stats();
  ASSERT_TRUE(response2.ok());
  EXPECT_GT(snap2.gauge("amap.compaction.runs"), 0u);
  EXPECT_GT(snap2.gauge("amap.dedup.compaction.runs"), 0u);
  EXPECT_EQ(snap2.gauge("amap.dedup.journal.records"), 0u)
      << "a compaction checkpoint retires the journal";
  EXPECT_GE(snap2.gauge("amap.compaction.reclaimed_pages"), 0u);
}

TEST(Stats, AmapGaugeNamesStayInMetricCharsetAndLeakNothing) {
  // The amap layer must not smuggle request-derived strings (logical
  // paths live inside amap keys!) into metric names or the export.
  core::EnclaveConfig config;
  config.deduplication = true;
  Rig rig(config);
  auto& user = rig.connect("zz-secret-user");
  ASSERT_TRUE(
      user.put_file("/zz-secret-path", to_bytes("zz-secret-content")).ok());
  ASSERT_TRUE(
      user.put_file("/zz-secret-copy", to_bytes("zz-secret-content")).ok());
  ASSERT_TRUE(user.get_file("/zz-secret-path").first.ok());

  const auto [response, snap] = user.stats();
  ASSERT_TRUE(response.ok());
  bool saw_amap = false;
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_TRUE(telemetry::Registry::valid_metric_name(name)) << name;
    if (name.rfind("amap.", 0) == 0) saw_amap = true;
  }
  EXPECT_TRUE(saw_amap);
  for (const std::string& line : snap.to_lines())
    EXPECT_EQ(line.find("zz-secret"), std::string::npos) << line;
  EXPECT_EQ(snap.to_json().find("zz-secret"), std::string::npos);
}

TEST(Stats, ExportNeverContainsRequestData) {
  Rig rig;
  auto& secret_user = rig.connect("zz-secret-user");
  ASSERT_TRUE(
      secret_user.put_file("/zz-secret-path", to_bytes("zz-secret-content"))
          .ok());
  ASSERT_TRUE(secret_user
                  .add_user_to_group("zz-secret-member", "zz-secret-group")
                  .ok());
  ASSERT_TRUE(
      secret_user.set_permission("/zz-secret-path", "zz-secret-group",
                                 fs::kPermRead)
          .ok());

  const auto [response, snap] = secret_user.stats();
  ASSERT_TRUE(response.ok());
  for (const std::string& line : snap.to_lines())
    EXPECT_EQ(line.find("zz-secret"), std::string::npos) << line;
  EXPECT_EQ(snap.to_json().find("zz-secret"), std::string::npos);
  // The in-enclave registry export is covered by the same guarantee.
  EXPECT_EQ(rig.enclave().telemetry_snapshot().to_json().find("zz-secret"),
            std::string::npos);
}

TEST(Stats, StatsVerbIsReadOnlyAndRepeatable) {
  Rig rig;
  auto& alice = rig.connect("alice");
  const auto first = alice.stats();
  ASSERT_TRUE(first.first.ok());
  const auto second = alice.stats();
  ASSERT_TRUE(second.first.ok());
  // Counters are monotonic between exports.
  EXPECT_GT(second.second.counter("enclave.requests.STATS"),
            first.second.counter("enclave.requests.STATS"));
}

// -------------------------------------------------- pump-error accounting

TEST(PumpErrors, CountedAndExposedNotSilentlyDropped) {
  Rig rig;
  auto& alice = rig.connect("alice");
  auto& bob = rig.connect("bob");
  ASSERT_TRUE(alice.put_file("/f", to_bytes("x")).ok());

  // Inject garbage on both client->server directions: the TLS record
  // layer rejects it, every connection in the round fails. The first
  // error rethrows (old contract), the second used to vanish — now both
  // are accounted.
  rig.channel(0).a().send(to_bytes("garbage-not-a-tls-record"));
  rig.channel(1).a().send(to_bytes("more-garbage"));
  EXPECT_THROW(rig.server().pump(), std::exception);

  const telemetry::Snapshot snap = rig.server().registry().snapshot();
  EXPECT_EQ(snap.counter("server.pump.errors"), 2u);
  EXPECT_EQ(snap.counter("server.pump.suppressed_errors"), 1u);
  EXPECT_EQ(snap.gauge("server.pump.last_error_connection"), 2u);
  ASSERT_TRUE(snap.notes.count("server.pump.last_error"));
  EXPECT_FALSE(snap.notes.at("server.pump.last_error").empty());
}

TEST(PumpErrors, PumpConnectionRethrowsButStillCounts) {
  Rig rig;
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.put_file("/f", to_bytes("x")).ok());
  rig.channel(0).a().send(to_bytes("garbage-not-a-tls-record"));
  EXPECT_THROW(rig.server().pump_connection(1), std::exception);
  const telemetry::Snapshot snap = rig.server().registry().snapshot();
  EXPECT_EQ(snap.counter("server.pump.errors"), 1u);
  EXPECT_EQ(snap.counter("server.pump.suppressed_errors"), 0u);
}

// ------------------------------------------ distributed tracing (§10)

TEST(DistributedTracing, ContextLineRoundTrips) {
  TestRng rng(7);
  telemetry::TraceSpan span;
  span.request_id = 42;
  span.context = telemetry::make_trace_context(rng);
  span.verb = static_cast<std::uint8_t>(proto::Verb::kPutFile);
  span.status = 0;
  span.has_status = true;
  span.total_real_ns = 123456;
  span.total_sim_ns = 7890;
  span.real_ns[static_cast<std::size_t>(telemetry::Segment::kCrypto)] = 777;
  span.child(telemetry::ChildKind::kStoreIo) = {111, 22, 3};

  const auto parsed = telemetry::trace_from_line(telemetry::trace_to_line(span));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->context, span.context);
  EXPECT_EQ(parsed->request_id, 42u);
  EXPECT_EQ(parsed->total_real_ns, 123456u);
  EXPECT_EQ(parsed->segment_real(telemetry::Segment::kCrypto), 777u);
  EXPECT_EQ(parsed->child(telemetry::ChildKind::kStoreIo).real_ns, 111u);
  EXPECT_EQ(parsed->child(telemetry::ChildKind::kStoreIo).tasks, 3u);

  // Malformed lines are rejected, not mis-parsed.
  EXPECT_FALSE(telemetry::trace_from_line(""));
  EXPECT_FALSE(telemetry::trace_from_line("x - 0 0 1 -"));
  EXPECT_FALSE(telemetry::trace_from_line("t zz 0 0 1 - total=1:2"));
  EXPECT_FALSE(telemetry::trace_from_line("t - 0 0 1 - bogus=1:2"));
}

TEST(DistributedTracing, ClientTraceIdSurvivesThreadedPoolsToKTraces) {
  // The acceptance scenario: every pool the request fans out over is
  // threaded, and the client's trace id must come back unchanged when the
  // span is fetched through the kTraces verb.
  core::EnclaveConfig config;
  config.service_threads = 4;
  config.crypto_threads = 4;
  config.store_io_threads = 2;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.tracing());

  ASSERT_TRUE(alice.put_file("/traced", rig.rng().bytes(128 << 10)).ok());
  ASSERT_TRUE(alice.last_trace().has_value());
  const auto put_trace = *alice.last_trace();
  ASSERT_TRUE(put_trace.context.valid());
  EXPECT_EQ(put_trace.verb, proto::Verb::kPutFile);

  ASSERT_TRUE(alice.get_file("/traced").first.ok());
  const auto get_trace = *alice.last_trace();
  EXPECT_NE(get_trace.context, put_trace.context);  // fresh per request
  EXPECT_GT(get_trace.e2e_ns(), 0u);

  const auto [response, spans] = alice.traces();
  ASSERT_TRUE(response.ok());
  // Each traced request appears exactly once under its client trace id
  // (the PUT's START span is the one that carries the wire context; its
  // END span inherits the same context from PutState).
  std::size_t put_spans = 0, get_spans = 0;
  const telemetry::TraceSpan* get_span = nullptr;
  for (const auto& span : spans) {
    if (span.context == put_trace.context) ++put_spans;
    if (span.context == get_trace.context) {
      ++get_spans;
      get_span = &span;
    }
  }
  EXPECT_EQ(put_spans, 2u);  // START + END of the streamed upload
  ASSERT_EQ(get_spans, 1u);

  // Client/server reconciliation: the server-side span is contained in
  // the client's end-to-end window (the difference is wire + pump time
  // outside the enclave, which can't be negative).
  ASSERT_NE(get_span, nullptr);
  EXPECT_EQ(get_span->verb, static_cast<std::uint8_t>(proto::Verb::kGetFile));
  EXPECT_LE(get_span->total_real_ns, get_trace.e2e_ns());
  // And the span's own segment arithmetic still reconciles: non-queue
  // segments sum to the wall time (kHandler is the remainder; clock
  // granularity may overshoot slightly).
  std::uint64_t measured = 0;
  for (std::size_t s = 0; s < telemetry::kSegmentCount; ++s)
    if (s != static_cast<std::size_t>(telemetry::Segment::kQueueWait))
      measured += get_span->real_ns[s];
  EXPECT_GE(measured, get_span->total_real_ns);
  EXPECT_LE(measured, get_span->total_real_ns + 2'000'000u);
}

TEST(DistributedTracing, LegacyClientRoundTripsWithoutContext) {
  Rig rig;
  auto& alice = rig.connect("alice");
  alice.set_tracing(false);
  ASSERT_TRUE(alice.put_file("/legacy", to_bytes("old-school")).ok());
  auto [response, body] = alice.get_file("/legacy");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(body, to_bytes("old-school"));
  EXPECT_FALSE(alice.last_trace().has_value());
  // Server-side spans for untraced requests carry no context.
  for (const auto& span : rig.enclave().recent_traces())
    EXPECT_FALSE(span.context.valid());
}

TEST(DistributedTracing, DataFramesFoldIntoEndSpanAndDropsAreCounted) {
  core::EnclaveConfig config;
  config.telemetry_trace_ring = 4;
  Rig rig(config);
  auto& alice = rig.connect("alice");

  // A multi-chunk streamed PUT: the DATA frames carry no request id, so
  // their time must fold into the END span's data_frames child rather
  // than vanish from the ring.
  const Bytes big = rig.rng().bytes(256 << 10);
  ASSERT_TRUE(alice.put_file("/big", big).ok());
  bool saw_fold = false;
  for (const auto& span : rig.enclave().recent_traces()) {
    const auto& child = span.child(telemetry::ChildKind::kDataFrames);
    if (child.tasks == 0) continue;
    saw_fold = true;
    EXPECT_GT(child.real_ns, 0u);
    EXPECT_EQ(span.verb, static_cast<std::uint8_t>(proto::Verb::kPutFile));
    EXPECT_TRUE(span.has_status);  // the END span, not the START span
  }
  EXPECT_TRUE(saw_fold);

  // Overflow the 4-entry ring; evictions surface as the dropped counter
  // instead of disappearing silently.
  for (int i = 0; i < 8; ++i)
    ASSERT_EQ(alice.get_file("/nope" + std::to_string(i)).first.status,
              proto::Status::kNotFound);
  const telemetry::Snapshot snap = rig.enclave().telemetry_snapshot();
  EXPECT_GT(snap.counter("telemetry.trace.dropped"), 0u);
  EXPECT_EQ(snap.counter("telemetry.trace.dropped") +
                rig.enclave().recent_traces().size(),
            snap.gauge("enclave.traces_recorded"));
}

// ------------------------------------------------- Prometheus exporter

TEST(Exporter, OutputStaysInPrometheusCharsetAndLeaksNoRequestData) {
  Rig rig;
  auto& alice = rig.connect("alice");
  const std::string secret_path = "/S3CR3T-dir/S3CR3T-file.txt";
  ASSERT_TRUE(alice.mkdir("/S3CR3T-dir/").ok());
  ASSERT_TRUE(alice.put_file(secret_path, to_bytes("S3CR3T-body")).ok());
  ASSERT_TRUE(alice.add_user_to_group("bob", "S3CR3T-group").ok());

  const std::string text =
      telemetry::to_prometheus_text(rig.enclave().telemetry_snapshot());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // No request-derived strings anywhere in the exposition.
  EXPECT_EQ(text.find("S3CR3T"), std::string::npos);
  // Every sample line: prefixed Prometheus-charset name, optional labels,
  // numeric value.
  std::size_t samples = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    ++samples;
    EXPECT_EQ(line.rfind("segshare_", 0), 0u) << line;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    for (const char c : line.substr(0, name_end))
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << line;
  }
  EXPECT_GT(samples, 0u);

  // A name outside the registry charset is dropped, never escaped into
  // the output (defense in depth — the registry rejects such names at
  // registration, so this only triggers on hand-built snapshots).
  telemetry::Snapshot hostile;
  hostile.counters["ok.name"] = 1;
  hostile.counters["evil{label=\"/etc/passwd\"}"] = 2;
  const std::string rendered = telemetry::to_prometheus_text(hostile);
  EXPECT_NE(rendered.find("segshare_ok_name_total"), std::string::npos);
  EXPECT_EQ(rendered.find("evil"), std::string::npos);
  EXPECT_EQ(rendered.find("passwd"), std::string::npos);
}

TEST(Exporter, HistogramSeriesAreCumulativeAndCloseWithInf) {
  telemetry::Registry registry;
  auto& hist = registry.histogram("lat.ns");
  for (const std::uint64_t v : {100u, 200u, 300u, 100'000u, 5'000'000u})
    hist.record(v);
  const std::string text = telemetry::to_prometheus_text(registry.snapshot());

  // Bucket counts parse out monotone non-decreasing, ending at +Inf with
  // the total observation count; _sum and _count close the family.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t last = 0;
  bool saw_inf = false;
  while (std::getline(lines, line)) {
    if (line.rfind("segshare_lat_ns_bucket", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    const std::uint64_t count = std::stoull(line.substr(space + 1));
    EXPECT_GE(count, last) << line;
    last = count;
    saw_inf = line.find("le=\"+Inf\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(last, 5u);
  EXPECT_NE(text.find("segshare_lat_ns_count 5"), std::string::npos);
  EXPECT_NE(text.find("segshare_lat_ns_sum"), std::string::npos);
}

TEST(Exporter, TailPercentilesResolveAtMicrosecondGrain) {
  // The HDR log-linear buckets keep relative error ≤ 12.5%: a swarm of
  // ~60 µs observations with a few 8 ms stragglers must report a p50 near
  // 60 µs and a p999 near 8 ms — with the old power-of-two-ish coarse
  // buckets both collapsed into the same wide bin at the top.
  telemetry::Registry registry;
  auto& hist = registry.histogram("tail.ns");
  for (int i = 0; i < 996; ++i) hist.record(60'000);
  for (int i = 0; i < 4; ++i) hist.record(8'000'000);
  const auto snap = registry.snapshot().histograms.at("tail.ns");
  EXPECT_NEAR(static_cast<double>(snap.percentile(50)), 60'000.0,
              60'000.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(snap.percentile(99)), 60'000.0,
              60'000.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(snap.percentile(99.9)), 8'000'000.0,
              8'000'000.0 * 0.125);
}

}  // namespace
}  // namespace seg
