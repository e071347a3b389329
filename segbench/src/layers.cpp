#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/gcm.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"

namespace segbench {

namespace {

using seg::telemetry::Segment;
using seg::telemetry::Snapshot;

constexpr double kNsPerMs = 1e6;
/// Largest share of the client-observed request time that the server's
/// spans plus the client-side time may leave unaccounted before the traced
/// run is declared inconsistent.
constexpr double kAccountedTolerance = 0.05;

/// Results of the timed crypto calls are folded into this, so the compiler
/// cannot drop the calls.
volatile std::uint64_t g_sink = 0;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t delta(const Snapshot& before, const Snapshot& after,
                    const std::string& name) {
  const std::uint64_t a = snapshot_value(after, name);
  const std::uint64_t b = snapshot_value(before, name);
  return a > b ? a - b : 0;
}

std::uint64_t hist_sum_delta(const Snapshot& before, const Snapshot& after,
                             const std::string& name) {
  const auto sum = [&name](const Snapshot& s) -> std::uint64_t {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0 : it->second.sum;
  };
  const std::uint64_t a = sum(after), b = sum(before);
  return a > b ? a - b : 0;
}

/// Server time of one client op: every span that carries its trace id
/// (a PUT has a START and an END span; its DATA frames ride on the END span
/// as a child).
struct ServerTime {
  std::uint64_t total_ns = 0;     // queue wait + span wall time
  std::uint64_t segments_ns = 0;  // sum of the span segments
  std::uint64_t data_frames_ns = 0;
};

template <class F>
double ns_per_call(F&& call) {
  using Clock = std::chrono::steady_clock;
  // Calibrate a batch to ~20 ms, then report the median of 5 batches.
  std::size_t iterations = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) call();
    const auto ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                              start)
                        .count();
    if (ns > 20e6 || iterations > (std::size_t{1} << 24)) break;
    iterations *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) call();
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        static_cast<double>(iterations));
  }
  return median(per_call);
}

}  // namespace

std::uint64_t snapshot_value(const Snapshot& snapshot,
                             const std::string& name) {
  if (const auto it = snapshot.counters.find(name);
      it != snapshot.counters.end())
    return it->second;
  if (const auto it = snapshot.gauges.find(name); it != snapshot.gauges.end())
    return it->second;
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::clamp(std::ceil(pct / 100.0 * n), 1.0, n);
  return values[static_cast<std::size_t>(rank) - 1];
}

LayerReport layer_metrics(const Measured& traced,
                          const std::vector<seg::telemetry::TraceSpan>& spans,
                          const std::vector<std::uint64_t>& probe_connect_ns,
                          double untraced_ops_per_s) {
  LayerReport report;
  Metrics& m = report.metrics;
  const Snapshot& b = traced.before;
  const Snapshot& a = traced.after;
  const PhaseResult& phase = traced.phase;
  const double ops = static_cast<double>(phase.ops.size());
  const auto per_op = [ops](double v) { return ratio(v, ops); };
  const auto d = [&](const std::string& name) {
    return static_cast<double>(delta(b, a, name));
  };
  const auto hist = [&](const std::string& name) {
    return static_cast<double>(hist_sum_delta(b, a, name));
  };

  // --- join client ops with server spans by trace id ----------------------
  std::map<std::array<std::uint8_t, 16>, ServerTime> server;
  for (const seg::telemetry::TraceSpan& span : spans) {
    if (!span.context.valid()) continue;
    ServerTime& t = server[span.context.trace_id];
    const std::uint64_t data =
        span.child(seg::telemetry::ChildKind::kDataFrames).real_ns;
    t.total_ns += span.segment_real(Segment::kQueueWait) + span.total_real_ns;
    t.data_frames_ns += data;
    for (std::size_t s = 0; s < seg::telemetry::kSegmentCount; ++s)
      t.segments_ns += span.real_ns[s];
  }
  // Server time is measured twice: by the program's spans, and by the
  // benchmark around each pump call of the request. The spans must lie
  // inside the pump time, and the pump time the spans miss must be a small
  // share of the request's client-observed time. The client-side time is
  // the request time outside the pump calls.
  double outside_ns = 0, data_frames_ns = 0;
  double request_ns = 0, pump_ns = 0, span_ns = 0;
  std::size_t unjoined = 0;
  double user_bytes_written = 0;
  for (const OpRecord& op : phase.ops) {
    if (is_write(op.kind))
      user_bytes_written += static_cast<double>(op.body_bytes);
    const auto it = server.find(op.trace.trace_id);
    if (!op.trace.valid() || it == server.end()) {
      ++unjoined;
      continue;
    }
    const ServerTime& t = it->second;
    const double in_enclave =
        static_cast<double>(t.total_ns + t.data_frames_ns);
    outside_ns += static_cast<double>(op.latency_ns) - in_enclave;
    data_frames_ns += static_cast<double>(t.data_frames_ns);
    request_ns += static_cast<double>(op.request_ns);
    pump_ns += static_cast<double>(op.pump_ns);
    span_ns += in_enclave;
  }
  if (unjoined != 0)
    report.errors.push_back(std::to_string(unjoined) +
                            " traced ops have no server span");
  const std::uint64_t dropped =
      snapshot_value(a, "telemetry.trace.dropped");
  if (dropped != 0)
    report.errors.push_back("telemetry.trace.dropped = " +
                            std::to_string(dropped));
  const double traced_ops_per_s = ratio(ops, phase.wall_s);
  const double overhead_ratio = ratio(untraced_ops_per_s, traced_ops_per_s);
  const double spans_of_pump = ratio(span_ns, pump_ns);
  const double accounted_ratio =
      ratio(span_ns + (request_ns - pump_ns), request_ns);
  std::printf("trace consistency: spans = %.6f of timed server time; spans + "
              "client-side time = %.6f of request latency (tolerance %.2f); "
              "trace.overhead_ratio = %.4f\n",
              spans_of_pump, accounted_ratio, kAccountedTolerance,
              overhead_ratio);
  if (span_ns > pump_ns)
    report.errors.push_back("spans take " + std::to_string(spans_of_pump) +
                            " of the timed server time");
  if (accounted_ratio < 1 - kAccountedTolerance)
    report.errors.push_back("spans + client-side time account for " +
                            std::to_string(accounted_ratio) +
                            " of request latency");

  // --- client / tls / net ---------------------------------------------------
  std::vector<double> connect_ms;
  for (const auto& list : {phase.connect_ns, probe_connect_ns})
    for (const std::uint64_t ns : list)
      connect_ms.push_back(static_cast<double>(ns) / kNsPerMs);
  m.push_back({"tls.handshake_ms", median(connect_ms), "ms"});
  m.push_back({"net.wire_bytes_per_op",
               per_op(static_cast<double>(phase.wire_bytes)), "B"});
  m.push_back({"client.outside_enclave_ms_per_op",
               per_op(outside_ns) / kNsPerMs, "ms"});

  // --- core: enclave request spans -------------------------------------------
  m.push_back({"core.request_ms_per_op",
               per_op(hist("enclave.request_real_ns") + data_frames_ns) /
                   kNsPerMs,
               "ms"});
  m.push_back({"core.data_frames_ms_per_op", per_op(data_frames_ns) / kNsPerMs,
               "ms"});
  m.push_back({"core.crypto_ms_per_op",
               per_op(hist("enclave.segment.crypto_ns")) / kNsPerMs, "ms"});
  m.push_back({"core.store_io_ms_per_op",
               per_op(hist("enclave.segment.store_io_ns")) / kNsPerMs, "ms"});
  m.push_back({"core.lock_wait_ms_per_op",
               per_op(hist("enclave.segment.lock_wait_ns")) / kNsPerMs, "ms"});
  m.push_back({"core.handler_self_ms_per_op",
               per_op(hist("enclave.segment.handler_ns")) / kNsPerMs, "ms"});
  double meta_hits = 0, meta_lookups = 0;
  for (const char* tier : {"headers", "objects", "dedup_index"}) {
    const std::string prefix = std::string("cache.") + tier;
    meta_hits += d(prefix + ".hits");
    meta_lookups += d(prefix + ".hits") + d(prefix + ".misses");
  }
  m.push_back({"core.metadata_cache.hit_ratio", ratio(meta_hits, meta_lookups),
               "ratio"});

  // --- pfs -----------------------------------------------------------------
  const double cc_hits = d("pfs.content_cache.hits");
  m.push_back({"pfs.content_cache.hit_ratio",
               ratio(cc_hits, cc_hits + d("pfs.content_cache.misses")),
               "ratio"});

  // --- amap ----------------------------------------------------------------
  for (const char* tier : {"meta", "dedup", "group"}) {
    const std::string prefix = std::string("amap.") + tier;
    const double hits = d(prefix + ".page_hits");
    const double misses = d(prefix + ".page_misses");
    m.push_back({prefix + ".page_misses_per_op", per_op(misses), "count"});
    m.push_back({prefix + ".hit_ratio", ratio(hits, hits + misses), "ratio"});
    m.push_back({prefix + ".writeback_pages_per_op",
                 per_op(d(prefix + ".writeback_pages")), "count"});
  }

  // --- store (TimedStore decorators) ---------------------------------------
  for (std::size_t s = 0; s < kStoreNames.size(); ++s) {
    const StoreCounts& sb = traced.stores_before[s];
    const StoreCounts& sa = traced.stores_after[s];
    const std::string prefix = std::string("store.") + kStoreNames[s];
    m.push_back({prefix + ".gets_per_op",
                 per_op(static_cast<double>(sa.gets - sb.gets)), "count"});
    m.push_back({prefix + ".puts_per_op",
                 per_op(static_cast<double>(sa.puts - sb.puts)), "count"});
    m.push_back({prefix + ".busy_ms_per_op",
                 per_op(static_cast<double>(sa.busy_ns - sb.busy_ns)) /
                     kNsPerMs,
                 "ms"});
    m.push_back({prefix + ".write_bytes_per_user_byte",
                 ratio(static_cast<double>(sa.bytes_written - sb.bytes_written),
                       user_bytes_written),
                 "ratio"});
  }

  // --- sgx (modeled costs, counted) ----------------------------------------
  m.push_back({"sgx.transitions_per_op",
               per_op(d("sgx.ecalls") + d("sgx.ocalls") +
                      d("sgx.switchless_calls")),
               "count"});
  m.push_back({"sgx.epc_pages_in_per_op", per_op(d("sgx.epc_pages_in")),
               "count"});
  m.push_back({"sgx.modeled_ms_per_op", per_op(d("sgx.charged_ns")) / kNsPerMs,
               "ms"});
  const double epc_resident =
      static_cast<double>(snapshot_value(a, "sgx.epc_resident_bytes"));
  m.push_back({"sgx.epc_resident_mb", epc_resident / (1 << 20), "MB"});

  // --- telemetry -----------------------------------------------------------
  m.push_back({"trace.overhead_ratio", overhead_ratio, "ratio"});
  return report;
}

Metrics crypto_metrics(std::uint64_t seed) {
  seg::TestRng rng(seed);
  const seg::Bytes key16 = rng.bytes(16);
  const seg::Bytes key32 = rng.bytes(32);
  const seg::Bytes aad = rng.bytes(24);
  const seg::Bytes chunk = rng.bytes(4096);     // Protected-FS chunk
  const seg::Bytes record = rng.bytes(16384);   // TLS record
  const seg::Bytes body = rng.bytes(1 << 20);   // 1 MiB content hash
  seg::crypto::AesGcm::Iv iv{};
  rng.fill(iv);
  const seg::crypto::AesGcm pfs_gcm(key16);
  const seg::crypto::AesGcm tls_gcm(key32);
  seg::Bytes out(record.size());
  seg::crypto::AesGcm::Tag tag{};
  std::uint64_t sink = 0;  // folds results in so no call is optimized away

  const auto mb_s = [](std::size_t bytes, double ns) {
    return static_cast<double>(bytes) / ns * 1e3;
  };
  Metrics m;
  m.push_back({"crypto.gcm_seal_4k_mb_s",
               mb_s(chunk.size(), ns_per_call([&] {
                      pfs_gcm.seal_to(iv, aad, chunk, tag, out.data());
                      sink += tag[0];
                    })),
               "MB/s"});
  seg::Bytes sealed(chunk.size());
  pfs_gcm.seal_to(iv, aad, chunk, tag, sealed.data());
  const seg::crypto::AesGcm::Tag sealed_tag = tag;
  m.push_back({"crypto.gcm_open_4k_mb_s",
               mb_s(chunk.size(), ns_per_call([&] {
                      pfs_gcm.open_to(iv, aad, sealed, sealed_tag, out.data());
                      sink += out[0];
                    })),
               "MB/s"});
  m.push_back({"crypto.gcm_seal_16k_mb_s",
               mb_s(record.size(), ns_per_call([&] {
                      tls_gcm.seal_to(iv, aad, record, tag, out.data());
                      sink += tag[0];
                    })),
               "MB/s"});
  m.push_back({"crypto.sha256_1m_mb_s",
               mb_s(body.size(), ns_per_call([&] {
                      sink += seg::crypto::Sha256::hash(body)[0];
                    })),
               "MB/s"});
  seg::crypto::X25519Key scalar{}, point{};
  rng.fill(scalar);
  point = seg::crypto::x25519_base(scalar);
  m.push_back({"crypto.x25519_us", ns_per_call([&] {
                 point = seg::crypto::x25519(scalar, point);
                 sink += point[0];
               }) / 1e3,
               "us"});
  const seg::crypto::Ed25519KeyPair pair = seg::crypto::ed25519_generate(rng);
  const seg::Bytes message = rng.bytes(64);
  seg::crypto::Ed25519Signature signature{};
  m.push_back({"crypto.ed25519_sign_us", ns_per_call([&] {
                 signature = seg::crypto::ed25519_sign(
                     pair.seed, pair.public_key, message);
                 sink += signature[0];
               }) / 1e3,
               "us"});
  m.push_back({"crypto.ed25519_verify_us", ns_per_call([&] {
                 sink += seg::crypto::ed25519_verify(pair.public_key, message,
                                                     signature);
               }) / 1e3,
               "us"});
  g_sink = sink;
  return m;
}

}  // namespace segbench
