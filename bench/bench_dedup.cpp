// E8 — §V-A deduplication: storage consumption and upload latency when
// many users upload identical content, with the extension on and off.
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"

using namespace seg;
using namespace seg::bench;

namespace {
core::EnclaveConfig dedup_config(bool enabled, bool client_side = false) {
  core::EnclaveConfig config;
  config.deduplication = enabled;
  config.client_side_dedup = client_side;
  return config;
}
}  // namespace

int main() {
  print_header("E8  deduplication: storage and latency (§V-A)",
               "§V-A: a single encrypted copy per distinct plaintext, "
               "shared across users and groups");

  const std::size_t uploads = smoke_mode() ? 2 : quick_mode() ? 8 : 25;
  const std::size_t size_kb = smoke_mode() ? 64 : 512;
  BenchReport report("dedup");

  for (const bool enabled : {false, true}) {
    Deployment d(dedup_config(enabled));
    const Bytes payload = d.rng().bytes(size_kb * 1024);
    double first_ms = 0, rest_ms = 0;
    for (std::size_t i = 0; i < uploads; ++i) {
      const std::string user = "user" + std::to_string(i);
      const double ms = d.measure_ms(user, [&](client::UserClient& c) {
        c.put_file("/inbox-" + user, payload);
      });
      if (i == 0) {
        first_ms = ms;
      } else {
        rest_ms += ms;
      }
    }
    const double stored_mb =
        static_cast<double>(d.content_store().total_bytes() +
                            d.dedup_store().total_bytes()) /
        (1 << 20);
    const double logical_mb =
        static_cast<double>(uploads * size_kb) / 1024.0;
    std::printf(
        "dedup %-3s: %2zu uploads x %zu KiB (logical %.1f MiB) -> stored "
        "%.2f MiB; first upload %.1f ms, later uploads %.1f ms\n",
        enabled ? "ON" : "off", uploads, size_kb, logical_mb, stored_mb,
        first_ms, rest_ms / (uploads - 1));
    const std::string prefix = enabled ? "server_side.on" : "server_side.off";
    report.add(prefix + ".stored_mb", stored_mb, "MB");
    report.add(prefix + ".first_upload.mean", first_ms, "ms");
    report.add(prefix + ".later_uploads.mean",
               rest_ms / static_cast<double>(uploads - 1), "ms");
    if (enabled) {
      // Dedup counters straight from the enclave registry: hits should be
      // uploads-1 once everyone pushed the same payload.
      const auto snapshot = d.enclave().telemetry_snapshot();
      report.add("server_side.on.dedup_hits",
                 static_cast<double>(snapshot.gauge("tfm.dedup.hits")),
                 "count");
      report.add("server_side.on.dedup_blobs",
                 static_cast<double>(snapshot.gauge("tfm.dedup.blobs")),
                 "count");
    }
  }

  // Client-side variant (§V-A alternative): probe by hash, skip the body.
  {
    Deployment d(dedup_config(true, /*client_side=*/true));
    const Bytes payload = d.rng().bytes(size_kb * 1024);
    double first_ms = 0, rest_ms = 0;
    std::uint64_t bytes_saved = 0;
    for (std::size_t i = 0; i < uploads; ++i) {
      const std::string user = "user" + std::to_string(i);
      bool uploaded = false;
      const double ms = d.measure_ms(user, [&](client::UserClient& c) {
        c.put_file_deduplicated("/inbox-" + user, payload, &uploaded);
      });
      if (i == 0) {
        first_ms = ms;
      } else {
        rest_ms += ms;
        if (!uploaded) bytes_saved += payload.size();
      }
    }
    std::printf(
        "client-side dedup: first upload %.1f ms (body travels), later "
        "probes %.1f ms; %.1f MiB of upload bandwidth never sent\n",
        first_ms, rest_ms / (uploads - 1),
        static_cast<double>(bytes_saved) / (1 << 20));
    report.add("client_side.first_upload.mean", first_ms, "ms");
    report.add("client_side.later_probes.mean",
               rest_ms / static_cast<double>(uploads - 1), "ms");
    report.add("client_side.bytes_saved", static_cast<double>(bytes_saved),
               "bytes");
    std::printf("  (the paper prefers server-side dedup: the probe leaks "
                "content existence [58])\n");
  }

  // Dedup across *different groups* sharing the same bytes (P5).
  {
    Deployment d(dedup_config(true));
    const Bytes payload = d.rng().bytes(size_kb * 1024);
    auto& a = d.admin("alice");
    auto& b = d.admin("bob");
    a.add_user_to_group("x", "group-a");
    b.add_user_to_group("y", "group-b");
    a.put_file("/a-copy", payload);
    a.set_permission("/a-copy", "group-a", fs::kPermRead);
    b.put_file("/b-copy", payload);
    b.set_permission("/b-copy", "group-b", fs::kPermRead);
    std::printf(
        "\ncross-group: two groups, same content -> dedup store holds "
        "%.2f MiB (one copy of %.2f MiB)\n",
        static_cast<double>(d.dedup_store().total_bytes()) / (1 << 20),
        static_cast<double>(payload.size()) / (1 << 20));
  }

  report.write();
  return 0;
}
