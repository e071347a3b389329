// Workloads and the closed-loop clients that run them.
//
// A workload is a preloaded tree plus a request mix. Each of the two client
// threads is one WebDAV-style user that sends its next request only after
// the previous reply arrived (closed loop) and pumps its own connection
// through the enclave. Inputs come only from the seed: preloaded bodies,
// op choices and fresh PUT bodies are drawn from seeded generators, and the
// program receives nothing but the generated requests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/drbg.h"
#include "deployment.h"
#include "telemetry/trace.h"

namespace segbench {

inline constexpr std::size_t kClients = 2;
/// A timed phase is cut into windows of about this length, by op
/// completion time, and the host's steal is sampled at their boundaries.
inline constexpr double kWindowSeconds = 1.0;

/// All-CPU time and the part of it the hypervisor took away (steal), in
/// jiffies, from /proc/stat; zeros where that is unavailable.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuJiffies cpu_jiffies();
/// Steal share of all CPU time between two samples (0 when unknown).
double steal_share(const CpuJiffies& from, const CpuJiffies& to);

enum class OpKind : std::uint8_t {
  kGet,
  kStat,
  kList,
  kPut,
  kSetPermission,
  kMembership,  // add or remove, whichever flips the current state
};
inline constexpr std::size_t kOpKinds = 6;

const char* op_name(OpKind kind);
/// GET, STAT and LIST are reads; everything else is a write.
bool is_write(OpKind kind);

struct WorkloadSpec {
  const char* name;
  std::size_t files;
  std::size_t dirs;
  std::size_t file_bytes;
  std::size_t groups;  // preloaded groups, targets of SET_PERMISSION/membership
  std::size_t users;   // preloaded users, targets of membership changes
  std::size_t shared_bodies;     // pinned bodies that PUTs may reuse
  unsigned shared_body_percent;  // share of PUTs that reuse one of them
  bool fresh_connection_per_op;
  std::array<unsigned, kOpKinds> mix;  // percent per OpKind, sums to 100
  std::size_t warmup_ops;              // per client, before measuring
};

/// The workload called `name`, or null.
const WorkloadSpec* find_workload(const std::string& name);

/// Fast 64-bit content digest (not cryptographic: it only has to tell the
/// versions the generator wrote apart from anything else).
std::uint64_t digest(seg::BytesView data);

/// Every version the generator has written to each file, with the logical
/// times at which its PUT was issued and completed. Files are checked for
/// linearizability: version V is stale for a GET issued at time g if some
/// PUT issued after V's PUT completed had itself completed before g. A GET
/// may return any version that is not stale, including one whose PUT is
/// still in flight. Issue times are taken before a request is sent and
/// completion times after its reply, so the check never rejects a body
/// that a correct server could have returned.
class ExpectedVersions {
 public:
  explicit ExpectedVersions(std::size_t files) : versions_(files) {}
  /// The next logical time (shared by all clients).
  std::uint64_t tick();
  /// Registers a version whose PUT is about to be sent; returns its index.
  std::size_t issue(std::size_t file, std::uint64_t d);
  /// Marks a version's PUT as completed successfully.
  void complete(std::size_t file, std::size_t version);
  /// True iff a GET issued at `issued` and answered at `answered` may
  /// return a body with digest `d`.
  bool readable(std::size_t file, std::uint64_t d, std::uint64_t issued,
                std::uint64_t answered) const;
  /// Flips a bit of every digest recorded for `file` (negative check of
  /// the correctness gate).
  void corrupt(std::size_t file);

 private:
  struct Version {
    std::uint64_t digest;
    std::uint64_t issued;
    std::uint64_t completed;  // kPending until the PUT succeeded
  };
  static constexpr std::uint64_t kPending = UINT64_MAX;

  mutable std::mutex mutex_;
  std::uint64_t clock_ = 0;
  std::vector<std::vector<Version>> versions_;
};

struct OpRecord {
  OpKind kind = OpKind::kGet;
  bool ok = false;
  bool dedup_body = false;       // PUT of a shared (already stored) body
  std::uint64_t latency_ns = 0;  // client-observed, whole op
  /// Client-observed time of the request alone (for a fresh-connection op,
  /// without its handshake and disconnect), and the server time inside it:
  /// the pump calls the request made, timed by the benchmark.
  std::uint64_t request_ns = 0;
  std::uint64_t pump_ns = 0;
  std::uint64_t done_ns = 0;     // completion, from the start of the phase
  std::uint64_t body_bytes = 0;  // user bytes read or written
  seg::telemetry::TraceContext trace;  // zero unless tracing is on
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  double wall_s = 0;
  std::uint64_t wire_bytes = 0;
  /// Windows of a timed phase: their length (the last one runs on to the
  /// phase's last op), the host's steal share during each, and the bytes
  /// in the three stores at the end of each (the last one after the
  /// clients stopped).
  double window_s = 0;
  std::vector<double> window_steal;
  std::vector<double> stored_bytes;
  std::vector<std::uint64_t> connect_ns;  // UserClient::connect durations
  std::vector<std::string> errors;        // first few failure descriptions
  std::size_t failed() const;
};

/// One workload on one deployment: preload, then closed-loop phases.
class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, Deployment& deployment,
              std::uint64_t seed);
  ~WorkloadRun();
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  /// Builds the tree, the groups and the users through an owner session.
  void preload();

  /// spec.warmup_ops per client; failures surface in the result.
  PhaseResult warmup();
  /// Closed loop for `seconds`, at most `max_ops` ops in total. Client
  /// tracing (trace context on every request) is on iff `tracing`.
  PhaseResult run(double seconds, std::size_t max_ops, bool tracing);

  /// Reads a sample of files through a fresh owner session and checks that
  /// each body is the latest version written. `corrupt` first corrupts the
  /// expected digests of the first sampled file. Returns failures.
  std::vector<std::string> verify(bool corrupt);

  /// `n` sequential connect/disconnect rounds; returns connect durations.
  std::vector<std::uint64_t> handshake_probe(std::size_t n);

  /// Bytes of user data live in the tree (every file plus pinned bodies).
  std::uint64_t live_user_bytes() const;
  /// Bytes the request mix touches: the files ops pick from.
  std::uint64_t working_set_bytes() const;

  const WorkloadSpec& spec() const { return spec_; }

 private:
  struct Client;
  struct Request;
  struct Reply;

  PhaseResult drive(std::size_t ops_each, double seconds, std::size_t max_ops,
                    bool tracing);
  /// One timed op: inputs are chosen before and the reply is checked after
  /// the timer, so generator work stays out of the measured latency.
  OpRecord execute(Client& client, std::string& error);
  void perform(Client& client, Session& session, const Request& request,
               Reply& reply);
  void check(Client& client, const Request& request, const Reply& reply,
             OpRecord& record, std::string& error);

  const WorkloadSpec& spec_;
  Deployment& deployment_;
  std::uint64_t seed_;
  seg::crypto::ChaChaDrbg owner_rng_;
  ExpectedVersions expected_;
  std::vector<seg::Bytes> shared_bodies_;
  std::vector<std::uint64_t> shared_digests_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace segbench
