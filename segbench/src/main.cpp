// segbench: closed-loop SeGShare traffic on a full-feature in-process
// deployment, timed on the real wall clock (no WAN or SGX cost model in the
// end-to-end numbers). See README.md.
//
//   segbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--corrupt-digest]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced run. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when the correctness gate passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "deployment.h"
#include "layers.h"
#include "workload.h"

namespace segbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Trace-ring capacity of the traced run. Its phase stops issuing ops
/// before a PUT (two spans) could overflow the ring, so no span is lost.
constexpr std::size_t kTraceRing = std::size_t{1} << 17;
constexpr std::size_t kHandshakeProbe = 32;
/// setup_s is the median over the setups of a run: at least kMinSetups,
/// and more until they add up to kSetupSeconds, so that a workload whose
/// setup takes a tenth of a second still reports a steady median.
constexpr std::size_t kMinSetups = 2;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupSeconds = 4.0;

/// Ops that completed in one window of the measured phase.
struct Window {
  std::vector<double> reads;   // latency, ms
  std::vector<double> writes;  // latency, ms
  std::size_t ok = 0;
  double seconds = 0;
  double steal = 0;  // the host's steal share during the window
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool corrupt_digest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "segbench: %s\nusage: segbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt-digest]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-digest") {
      args.corrupt_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(args.workload) == nullptr) usage("unknown --workload");
  if (!have_seed) usage("bad or missing --seed");
  if (args.seconds <= 0) usage("missing --seconds");
  if (args.trace < 0) usage("missing --trace");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A deployment with its workload preloaded. The run is destroyed before
/// the deployment its sessions point into.
struct Prepared {
  Prepared(const WorkloadSpec& spec, std::uint64_t seed,
           const DeploymentOptions& options)
      : deployment(seed, options), run(spec, deployment, seed) {
    run.preload();
  }
  Deployment deployment;
  WorkloadRun run;
};

/// The correctness gate's findings, plus op accounting for the JSON line.
struct Gate {
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void note(const std::string& where, const std::vector<std::string>& found) {
    for (const std::string& e : found) errors.push_back(where + ": " + e);
  }
  /// Failed ops of a phase, and the enclave's request count against the
  /// number of requests the generator issued in it.
  void phase(const std::string& where, const PhaseResult& result,
             const seg::telemetry::Snapshot& before,
             const seg::telemetry::Snapshot& after, bool measured) {
    note(where, result.errors);  // every failed op left an error
    const std::uint64_t served = snapshot_value(after, "enclave.requests") -
                                 snapshot_value(before, "enclave.requests");
    if (served != result.ops.size())
      errors.push_back(where + ": enclave served " + std::to_string(served) +
                       " requests, generator issued " +
                       std::to_string(result.ops.size()));
    if (measured) {
      attempted += result.ops.size();
      failed += result.failed();
    }
  }
};

/// Warm-up, then one closed-loop phase between two telemetry snapshots.
/// Prints the host's steal share over the phase: on a virtual machine, time
/// the hypervisor gives to other guests slows every metric of the run.
Measured measure(Prepared& p, const std::string& name, double seconds,
                 std::size_t max_ops, bool tracing, Gate& gate) {
  seg::core::SegShareEnclave& enclave = p.deployment.enclave();
  Measured m;
  seg::telemetry::Snapshot warm_before = enclave.telemetry_snapshot();
  const PhaseResult warm = p.run.warmup();
  m.before = enclave.telemetry_snapshot();
  m.stores_before = p.deployment.timed_counts();
  gate.phase(name + " warm-up", warm, warm_before, m.before, false);
  const CpuJiffies cpu_before = cpu_jiffies();
  m.phase = p.run.run(seconds, max_ops, tracing);
  const CpuJiffies cpu_after = cpu_jiffies();
  m.after = enclave.telemetry_snapshot();
  m.stores_after = p.deployment.timed_counts();
  std::printf("host %s steal_share=%.4f\n", name.c_str(),
              steal_share(cpu_before, cpu_after));
  gate.phase(name, m.phase, m.before, m.after, true);
  return m;
}

void print_metric(const Metric& metric) {
  std::printf("metric %-44s %.6g %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

/// The properties later claims cite, as measured on this run.
void print_properties(const Prepared& p, const Measured& m) {
  const WorkloadSpec& spec = p.run.spec();
  const PhaseResult& phase = m.phase;
  const double ops = static_cast<double>(phase.ops.size());
  double reads = 0, puts = 0, shared_puts = 0, user_bytes = 0;
  for (const OpRecord& op : phase.ops) {
    reads += is_write(op.kind) ? 0 : 1;
    puts += op.kind == OpKind::kPut ? 1 : 0;
    shared_puts += op.dedup_body ? 1 : 0;
    user_bytes += static_cast<double>(op.body_bytes);
  }
  const auto d = [&](const std::string& name) {
    return static_cast<double>(snapshot_value(m.after, name) -
                               snapshot_value(m.before, name));
  };
  const auto prop = [](const std::string& name, double value) {
    std::printf("property %-40s %.6g\n", name.c_str(), value);
  };
  prop("clients", kClients);
  prop("fresh_connection_per_op", spec.fresh_connection_per_op ? 1 : 0);
  prop("read_share", ops > 0 ? reads / ops : 0);
  prop("write_share", ops > 0 ? 1 - reads / ops : 0);
  prop("shared_body_share_of_puts", puts > 0 ? shared_puts / puts : 0);
  prop("dedup_hit_share_of_puts", puts > 0 ? d("tfm.dedup.hits") / puts : 0);
  prop("user_bytes_per_op", ops > 0 ? user_bytes / ops : 0);
  prop("wire_bytes_per_op",
       ops > 0 ? static_cast<double>(phase.wire_bytes) / ops : 0);
  const double working_set = static_cast<double>(p.run.working_set_bytes());
  const double cache_budget = static_cast<double>(
      snapshot_value(m.after, "pfs.content_cache.budget_bytes"));
  prop("working_set_mb", working_set / (1 << 20));
  prop("working_set_over_content_cache",
       cache_budget > 0 ? working_set / cache_budget : 0);
  const double page_bytes =
      static_cast<double>(p.deployment.config().amap_page_bytes);
  for (const char* tier : {"meta", "dedup", "group"}) {
    const std::string prefix = std::string("amap.") + tier;
    const double pages =
        static_cast<double>(snapshot_value(m.after, prefix + ".pages"));
    const double budget =
        static_cast<double>(snapshot_value(m.after, prefix + ".budget_bytes"));
    prop(prefix + ".entries",
         static_cast<double>(snapshot_value(m.after, prefix + ".entries")));
    prop(prefix + ".pages", pages);
    prop(prefix + ".bytes_over_budget",
         budget > 0 ? pages * page_bytes / budget : 0);
  }
}

void print_result(const Gate& gate, const Metrics& metrics) {
  for (const std::string& e : gate.errors)
    std::printf("correctness: FAIL %s\n", e.c_str());
  std::printf("correctness: %s\n", gate.errors.empty() ? "ok" : "FAILED");
  std::string json = "{\"correct\": ";
  json += gate.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted);
  json += ", \"failed\": " + std::to_string(gate.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// --trace 0: set up several times (setup_s is the median), then one
/// untraced measured phase on the last deployment.
Metrics end_to_end(const Args& args, const WorkloadSpec& spec, Gate& gate) {
  std::vector<double> setup_s;
  double setup_total = 0;
  std::optional<Prepared> prepared;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupSeconds && setup_s.size() < kMaxSetups)) {
    prepared.reset();  // the previous deployment goes before the next is timed
    const Clock::time_point start = Clock::now();
    prepared.emplace(spec, args.seed, DeploymentOptions{});
    setup_s.push_back(seconds_since(start));
    setup_total += setup_s.back();
  }
  std::printf("setups %zu median %.4f s min %.4f s max %.4f s\n",
              setup_s.size(), median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  Prepared& p = *prepared;
  const Measured m = measure(p, "run", args.seconds, SIZE_MAX, false, gate);
  gate.note("verify", p.run.verify(args.corrupt_digest));
  print_properties(p, m);

  // Throughput and latency percentiles come from the calm windows of the
  // phase: those in which the hypervisor stole no more CPU time than in the
  // median window. Steal slows every thread it hits, and on a shared host
  // it comes and goes; the choice of windows does not depend on how fast
  // the program ran in them.
  const PhaseResult& phase = m.phase;
  const std::size_t n = phase.window_steal.size();
  std::vector<Window> windows(n);
  std::size_t ok = 0, reads = 0;
  for (const OpRecord& op : phase.ops) {
    Window& w = windows[std::min<std::size_t>(
        n - 1, static_cast<std::size_t>(op.done_ns / (phase.window_s * 1e9)))];
    (is_write(op.kind) ? w.writes : w.reads)
        .push_back(static_cast<double>(op.latency_ns) / 1e6);
    w.ok += op.ok ? 1 : 0;
    ok += op.ok ? 1 : 0;
    reads += is_write(op.kind) ? 0 : 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    windows[i].steal = phase.window_steal[i];
    // The last window also holds the ops still in flight at the deadline.
    windows[i].seconds =
        i + 1 < n ? phase.window_s
                  : std::max(phase.window_s * 0.5,
                             phase.wall_s - phase.window_s * (n - 1));
  }
  const double calm_steal = median(phase.window_steal);
  Window calm;
  std::size_t calm_windows = 0;
  for (const Window& w : windows) {
    if (w.steal > calm_steal) continue;
    calm.reads.insert(calm.reads.end(), w.reads.begin(), w.reads.end());
    calm.writes.insert(calm.writes.end(), w.writes.begin(), w.writes.end());
    calm.ok += w.ok;
    calm.seconds += w.seconds;
    ++calm_windows;
  }
  std::printf("windows ops_per_s");
  for (const Window& w : windows)
    std::printf(" %.1f", static_cast<double>(w.ok) / w.seconds);
  std::printf("\nwindows steal_share");
  for (const Window& w : windows) std::printf(" %.4f", w.steal);
  std::printf("\nwindows calm=%zu of %zu (steal_share <= %.4f)\n",
              calm_windows, n, calm_steal);
  const double attempted = static_cast<double>(phase.ops.size());
  std::printf("samples read=%zu write=%zu wall_s=%.3f calm_read=%zu "
              "calm_write=%zu\n",
              reads, phase.ops.size() - reads, phase.wall_s, calm.reads.size(),
              calm.writes.size());
  std::printf("metric %-44s %.6g ratio\n", "failed_ratio",
              attempted > 0 ? 1 - static_cast<double>(ok) / attempted : 1.0);
  // p99 is printed for reference; the gated tail is p95 (see README.md).
  std::printf("metric %-44s %.6g ms\n", "read_p99_ms",
              percentile(calm.reads, 99));
  std::printf("metric %-44s %.6g ms\n", "write_p99_ms",
              percentile(calm.writes, 99));
  return {
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", static_cast<double>(calm.ok) / calm.seconds, "ops/s"},
      {"read_p50_ms", percentile(calm.reads, 50), "ms"},
      {"read_p95_ms", percentile(calm.reads, 95), "ms"},
      {"write_p50_ms", percentile(calm.writes, 50), "ms"},
      {"write_p95_ms", percentile(calm.writes, 95), "ms"},
      {"ok_ratio", attempted > 0 ? static_cast<double>(ok) / attempted : 0,
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"stored_bytes_per_user_byte",
       median(phase.stored_bytes) /
           static_cast<double>(p.run.live_user_bytes()),
       "ratio"},
  };
}

/// --trace 1: an untraced phase (no decorator, client tracing off) for the
/// overhead baseline, then the traced phase on a second deployment with
/// TimedStore decorators and client tracing on. Each phase gets half of
/// the run's seconds.
Metrics per_layer(const Args& args, const WorkloadSpec& spec, Gate& gate) {
  const double half = args.seconds / 2;
  double untraced_ops_per_s = 0;
  {
    Prepared p(spec, args.seed, DeploymentOptions{});
    const Measured m = measure(p, "untraced", half, SIZE_MAX, false, gate);
    untraced_ops_per_s =
        static_cast<double>(m.phase.ops.size() - m.phase.failed()) /
        m.phase.wall_s;
    gate.note("untraced verify", p.run.verify(false));
  }
  DeploymentOptions options;
  options.timed_stores = true;
  options.trace_ring = kTraceRing;
  Prepared p(spec, args.seed, options);
  const std::size_t spans_left =
      kTraceRing -
      snapshot_value(p.deployment.enclave().telemetry_snapshot(),
                     "enclave.traces_recorded") -
      2 * kClients * spec.warmup_ops;
  const Measured m = measure(p, "traced", half, spans_left / 2, true, gate);
  const std::vector<seg::telemetry::TraceSpan> spans =
      p.deployment.enclave().recent_traces();
  const std::vector<std::uint64_t> probe =
      p.run.handshake_probe(kHandshakeProbe);
  gate.note("traced verify", p.run.verify(args.corrupt_digest));
  print_properties(p, m);
  std::printf("samples traced_ops=%zu spans=%zu trace.dropped=%llu\n",
              m.phase.ops.size(), spans.size(),
              static_cast<unsigned long long>(
                  snapshot_value(m.after, "telemetry.trace.dropped")));
  LayerReport report = layer_metrics(m, spans, probe, untraced_ops_per_s);
  gate.note("trace consistency", report.errors);
  Metrics metrics = std::move(report.metrics);
  for (Metric& metric : crypto_metrics(args.seed))
    metrics.push_back(std::move(metric));
  return metrics;
}

}  // namespace
}  // namespace segbench

int main(int argc, char** argv) {
  using namespace segbench;
  const Args args = parse_args(argc, argv);
  const WorkloadSpec& spec = *find_workload(args.workload);
  std::printf("segbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  Gate gate;
  Metrics metrics;
  try {
    metrics = args.trace == 1 ? per_layer(args, spec, gate)
                              : end_to_end(args, spec, gate);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "segbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& metric : metrics) print_metric(metric);
  print_result(gate, metrics);
  return gate.errors.empty() ? 0 : 1;
}
