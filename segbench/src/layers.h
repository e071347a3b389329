// Per-layer metrics of the traced run, measured only from outside the
// program: the TimedStore decorators, client-side timing of UserClient
// calls, deltas of the enclave's telemetry snapshot and its trace ring, and
// direct timed calls into the crypto library.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "timed_store.h"
#include "workload.h"

namespace segbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// One measured phase: its ops and the program's state around it.
struct Measured {
  PhaseResult phase;
  seg::telemetry::Snapshot before;
  seg::telemetry::Snapshot after;
  std::array<StoreCounts, 3> stores_before{};  // TimedStore counts
  std::array<StoreCounts, 3> stores_after{};
};

struct LayerReport {
  Metrics metrics;
  /// Trace-consistency failures (unjoined ops, dropped spans, spans that
  /// exceed or miss too much of the server time the benchmark timed).
  std::vector<std::string> errors;
};

/// Per-layer metrics of the traced phase. `spans` is the enclave's whole
/// trace ring, `probe_connect_ns` the handshake probe's connect times and
/// `untraced_ops_per_s` the throughput of the untraced phase of the run.
LayerReport layer_metrics(const Measured& traced,
                          const std::vector<seg::telemetry::TraceSpan>& spans,
                          const std::vector<std::uint64_t>& probe_connect_ns,
                          double untraced_ops_per_s);

/// Direct timed calls into the crypto library at the sizes the workloads
/// feed it.
Metrics crypto_metrics(std::uint64_t seed);

/// Counter or gauge `name` of a snapshot (0 when absent).
std::uint64_t snapshot_value(const seg::telemetry::Snapshot& snapshot,
                             const std::string& name);

double median(std::vector<double> values);
/// Nearest-rank percentile, `pct` in (0, 100].
double percentile(std::vector<double> values, double pct);

}  // namespace segbench
