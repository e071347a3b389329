#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <latch>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "fs/records.h"
#include "proto/messages.h"

namespace segbench {

namespace {

using Clock = std::chrono::steady_clock;
constexpr std::size_t kMaxErrors = 5;
constexpr std::size_t kVerifySample = 64;
constexpr const char* kOwnerGroup = "owners";

// Workload definitions; README.md says why each one exists.
const std::vector<WorkloadSpec> kWorkloads = {
    // GET  STAT LIST PUT  SETP MEMB
    {"bulk-rw", 48, 1, std::size_t{1} << 20, 0, 0, 8, 25, false,
     {50, 0, 0, 50, 0, 0}, 4},
    {"namespace-churn", 5000, 50, 4096, 100, 2000, 0, 0, false,
     {15, 35, 5, 20, 15, 10}, 200},
    {"session-connect", 64, 1, 4096, 0, 0, 0, 0, true,
     {20, 60, 0, 20, 0, 0}, 50},
};

std::string file_path(const WorkloadSpec& spec, std::size_t file) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/data/d%02zu/f%05zu", file % spec.dirs,
                file);
  return buf;
}

std::string dir_path(std::size_t dir) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/data/d%02zu/", dir);
  return buf;
}

std::string group_name(std::size_t group) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "g%03zu", group);
  return buf;
}

std::string user_name(std::size_t user) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "u%05zu", user);
  return buf;
}

std::string pinned_path(std::size_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/pinned/s%zu", k);
  return buf;
}

std::string client_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%zu", index);
  return buf;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Fills `out` with bytes of the splitmix64 stream at `state`.
void fill_random(seg::Bytes& out, std::uint64_t& state) {
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  for (std::uint64_t word = splitmix64(state); i < out.size(); ++i, word >>= 8)
    out[i] = static_cast<std::uint8_t>(word);
}

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// Throws unless a preload request succeeded.
void require(const seg::proto::Response& response, const std::string& what) {
  if (!response.ok())
    throw std::runtime_error("preload: " + what + ": " +
                             seg::proto::status_name(response.status) + " " +
                             response.message);
}


}  // namespace

CpuJiffies cpu_jiffies() {
  CpuJiffies out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return out;
  for (const unsigned long long x : v) out.total += x;
  out.steal = v[7];
  return out;
}

double steal_share(const CpuJiffies& from, const CpuJiffies& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kGet: return "GET";
    case OpKind::kStat: return "STAT";
    case OpKind::kList: return "LIST";
    case OpKind::kPut: return "PUT";
    case OpKind::kSetPermission: return "SET_PERMISSION";
    case OpKind::kMembership: return "MEMBERSHIP";
  }
  return "?";
}

bool is_write(OpKind kind) {
  return kind != OpKind::kGet && kind != OpKind::kStat &&
         kind != OpKind::kList;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}


std::uint64_t digest(seg::BytesView data) {
  std::uint64_t h = 0x6a09e667f3bcc908ull ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data.data() + i, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  for (; i < data.size(); ++i) h = (h ^ data[i]) * 0x100000001b3ull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

std::uint64_t ExpectedVersions::tick() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++clock_;
}

std::size_t ExpectedVersions::issue(std::size_t file, std::uint64_t d) {
  const std::lock_guard<std::mutex> lock(mutex_);
  versions_[file].push_back({d, ++clock_, kPending});
  return versions_[file].size() - 1;
}

void ExpectedVersions::complete(std::size_t file, std::size_t version) {
  const std::lock_guard<std::mutex> lock(mutex_);
  versions_[file][version].completed = ++clock_;
}

bool ExpectedVersions::readable(std::size_t file, std::uint64_t d,
                                std::uint64_t issued,
                                std::uint64_t answered) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // The latest issue time among PUTs that completed before the GET was
  // issued: every version that completed before it is stale.
  std::uint64_t floor = 0;
  for (const Version& v : versions_[file])
    if (v.completed < issued) floor = std::max(floor, v.issued);
  for (const Version& v : versions_[file])
    if (v.digest == d && v.issued < answered &&
        (v.completed == kPending || v.completed > floor))
      return true;
  return false;
}

void ExpectedVersions::corrupt(std::size_t file) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Version& v : versions_[file]) v.digest ^= 1;
}

std::size_t PhaseResult::failed() const {
  std::size_t n = 0;
  for (const OpRecord& op : ops) n += op.ok ? 0 : 1;
  return n;
}

/// One request's inputs, chosen before the op's timer starts.
struct WorkloadRun::Request {
  OpKind kind = OpKind::kGet;
  std::size_t file = 0;
  std::size_t dir = 0;
  std::size_t group = 0;
  std::size_t user = 0;
  std::uint32_t perm = 0;
  bool add = false;
  int shared_body = -1;  // index into the shared bodies, -1 = fresh body
  std::size_t version = 0;   // PUT: index of the version it writes
  std::uint64_t issued = 0;  // GET: logical time it was issued
};

struct WorkloadRun::Reply {
  seg::proto::Response response;
  seg::Bytes body;
  seg::telemetry::TraceContext trace;
  std::uint64_t request_ns = 0;  // the request alone, without connect
  std::uint64_t pump_ns = 0;     // server time inside that, see Session
};

struct WorkloadRun::Client {
  Client(std::size_t index_, std::uint64_t seed, const WorkloadSpec& spec)
      : index(index_),
        ops(seed * 0x100 + index_ + 1),
        tls_rng(seed_bytes(seed, 100 + index_)),
        body_state(seed ^ (0xb0d1e5ull << 8 | index_)),
        member(spec.users * spec.groups, 0),
        body(spec.file_bytes) {}

  std::size_t index;
  seg::TestRng ops;                 // op choices
  seg::crypto::ChaChaDrbg tls_rng;  // client-side TLS and trace ids
  std::uint64_t body_state;         // fresh PUT bodies
  std::vector<std::uint8_t> member;  // users x groups, this client's users
  seg::Bytes body;                   // reused PUT buffer
  std::unique_ptr<Session> session;  // persistent sessions only
  bool tracing = false;
  bool broken = false;  // a request threw; the connection is not trusted
  std::uint64_t closed_wire_bytes = 0;  // sessions closed in this phase
  std::vector<std::uint64_t> connect_ns;
};

WorkloadRun::WorkloadRun(const WorkloadSpec& spec, Deployment& deployment,
                         std::uint64_t seed)
    : spec_(spec),
      deployment_(deployment),
      seed_(seed),
      owner_rng_(seed_bytes(seed, 1)),
      expected_(spec.files) {
  // Enrolment draws from the deployment RNG: do all of it before any
  // client thread starts.
  deployment_.identity("owner");
  for (std::size_t i = 0; i < kClients; ++i) {
    deployment_.identity(client_name(i));
    clients_.push_back(std::make_unique<Client>(i, seed, spec));
    for (std::size_t u = 0; u < spec.users; ++u)
      clients_.back()->member[u * spec.groups + u % spec.groups] = 1;
  }
  std::uint64_t state = seed ^ 0x5ba4edull;
  for (std::size_t k = 0; k < spec.shared_bodies; ++k) {
    seg::Bytes body(spec.file_bytes);
    fill_random(body, state);
    shared_digests_.push_back(digest(body));
    shared_bodies_.push_back(std::move(body));
  }
}

WorkloadRun::~WorkloadRun() = default;

void WorkloadRun::preload() {
  Session owner(deployment_, deployment_.identity("owner"), owner_rng_);
  owner.connect();
  seg::client::UserClient& c = owner.client();
  c.set_tracing(false);
  // The clients are members of a group that owns every preloaded file,
  // directory and group, which gives them read-write access to the whole
  // tree and lets them change every group's membership.
  for (std::size_t i = 0; i < kClients; ++i)
    require(c.add_user_to_group(client_name(i), kOwnerGroup), "add client");
  require(c.mkdir("/data/"), "mkdir /data/");
  require(c.add_file_owner("/data/", kOwnerGroup), "own /data/");
  for (std::size_t d = 0; d < spec_.dirs; ++d) {
    require(c.mkdir(dir_path(d)), "mkdir");
    require(c.add_file_owner(dir_path(d), kOwnerGroup), "own dir");
  }
  if (spec_.shared_bodies > 0) {
    // Pinned copies keep every shared body stored, so each PUT that reuses
    // one is a deduplication hit.
    require(c.mkdir("/pinned/"), "mkdir /pinned/");
    for (std::size_t k = 0; k < spec_.shared_bodies; ++k)
      require(c.put_file(pinned_path(k), shared_bodies_[k]), "put pinned");
  }
  seg::Bytes body(spec_.file_bytes);
  std::uint64_t state = seed_ ^ 0x9e10adull;
  for (std::size_t f = 0; f < spec_.files; ++f) {
    fill_random(body, state);
    const std::size_t version = expected_.issue(f, digest(body));
    const std::string path = file_path(spec_, f);
    require(c.put_file(path, body), "put " + path);
    expected_.complete(f, version);
    require(c.add_file_owner(path, kOwnerGroup), "own " + path);
  }
  // User u starts in group u % groups; the clients' membership state
  // mirrors this. Adding a group's first member creates it, with the owner
  // as member.
  for (std::size_t u = 0; u < spec_.users; ++u) {
    const std::string group = group_name(u % spec_.groups);
    require(c.add_user_to_group(user_name(u), group), "add user");
    if (u < spec_.groups)
      require(c.add_group_owner(group, kOwnerGroup), "own " + group);
  }
}

PhaseResult WorkloadRun::warmup() {
  return drive(spec_.warmup_ops, 0, SIZE_MAX, false);
}

PhaseResult WorkloadRun::run(double seconds, std::size_t max_ops,
                             bool tracing) {
  return drive(0, seconds, max_ops, tracing);
}

PhaseResult WorkloadRun::drive(std::size_t ops_each, double seconds,
                               std::size_t max_ops, bool tracing) {
  struct PerClient {
    std::vector<OpRecord> ops;
    std::vector<std::string> errors;
    std::uint64_t wire_start = 0;
  };
  std::vector<PerClient> per(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    Client& c = *clients_[i];
    c.tracing = tracing;
    c.closed_wire_bytes = 0;
    c.connect_ns.clear();
    if (c.session) {
      c.session->client().set_tracing(tracing);
      per[i].wire_start = c.session->wire_bytes();
    }
  }

  std::atomic<std::size_t> issued{0};
  std::latch go(1);
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client& c = *clients_[i];
      PerClient& mine = per[i];
      go.wait();
      while (!c.broken) {
        if (ops_each != 0 ? mine.ops.size() >= ops_each
                          : Clock::now() >= deadline)
          break;
        if (issued.fetch_add(1) >= max_ops) break;
        std::string error;
        mine.ops.push_back(execute(c, error));
        mine.ops.back().done_ns = elapsed_ns(start);
        if (!error.empty() && mine.errors.size() < kMaxErrors)
          mine.errors.push_back(client_name(i) + ": " + error);
      }
    });
  }
  PhaseResult result;
  const std::size_t windows =
      ops_each != 0 ? 0
                    : std::max<std::size_t>(
                          1, static_cast<std::size_t>(
                                 std::llround(seconds / kWindowSeconds)));
  if (windows != 0) result.window_s = seconds / static_cast<double>(windows);
  CpuJiffies cpu = cpu_jiffies();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.count_down();
  // Which files hold a shared (deduplicated) body changes with every PUT,
  // so the stores' size is sampled at each window boundary, next to the
  // host's steal.
  const auto close_window = [&] {
    result.stored_bytes.push_back(
        static_cast<double>(deployment_.stored_bytes()));
    const CpuJiffies now = cpu_jiffies();
    result.window_steal.push_back(steal_share(cpu, now));
    cpu = now;
  };
  for (std::size_t w = 1; w < windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(result.window_s * w)));
    close_window();
  }
  for (std::thread& t : threads) t.join();
  if (windows != 0) close_window();

  // The phase ends with its last op (the sampling above may outlast it).
  std::uint64_t end_ns = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    Client& c = *clients_[i];
    for (const OpRecord& op : per[i].ops) end_ns = std::max(end_ns, op.done_ns);
    result.ops.insert(result.ops.end(), per[i].ops.begin(), per[i].ops.end());
    for (std::string& e : per[i].errors)
      if (result.errors.size() < kMaxErrors)
        result.errors.push_back(std::move(e));
    result.wire_bytes += c.closed_wire_bytes;
    if (c.session)
      result.wire_bytes += c.session->wire_bytes() - per[i].wire_start;
    result.connect_ns.insert(result.connect_ns.end(), c.connect_ns.begin(),
                             c.connect_ns.end());
  }
  result.wall_s = static_cast<double>(end_ns) / 1e9;
  return result;
}

OpRecord WorkloadRun::execute(Client& c, std::string& error) {
  // Choose the op and its inputs before the timer starts.
  Request req;
  unsigned roll = static_cast<unsigned>(c.ops.next() % 100);
  std::size_t k = 0;
  while (k + 1 < kOpKinds && roll >= spec_.mix[k]) roll -= spec_.mix[k++];
  req.kind = static_cast<OpKind>(k);
  req.file = c.ops.next() % spec_.files;
  req.dir = c.ops.next() % spec_.dirs;
  if (spec_.groups > 0) {
    req.group = c.ops.next() % spec_.groups;
    // Each client flips only its own share of the users, so its view of
    // the membership state stays exact while both clients run.
    req.user = (c.ops.next() % (spec_.users / kClients)) * kClients + c.index;
    req.add = c.member[req.user * spec_.groups + req.group] == 0;
    static constexpr std::uint32_t kPerms[] = {seg::fs::kPermRead,
                                               seg::fs::kPermReadWrite,
                                               seg::fs::kPermNone};
    req.perm = kPerms[c.ops.next() % 3];
  }
  OpRecord record;
  record.kind = req.kind;
  if (req.kind == OpKind::kPut) {
    std::uint64_t d = 0;
    if (spec_.shared_bodies > 0 &&
        c.ops.next() % 100 < spec_.shared_body_percent) {
      req.shared_body = static_cast<int>(c.ops.next() % spec_.shared_bodies);
      d = shared_digests_[req.shared_body];
      record.dedup_body = true;
    } else {
      fill_random(c.body, c.body_state);
      d = digest(c.body);
    }
    req.version = expected_.issue(req.file, d);
  }

  const auto open_session = [&] {
    auto session = std::make_unique<Session>(
        deployment_, deployment_.identity(client_name(c.index)), c.tls_rng);
    const Clock::time_point connect_start = Clock::now();
    session->connect();
    c.connect_ns.push_back(elapsed_ns(connect_start));
    session->client().set_tracing(c.tracing);
    return session;
  };
  Reply reply;
  if (req.kind == OpKind::kGet) req.issued = expected_.tick();
  const Clock::time_point start = Clock::now();
  try {
    if (spec_.fresh_connection_per_op) {
      // The op covers handshake, one request and disconnect.
      const std::unique_ptr<Session> session = open_session();
      perform(c, *session, req, reply);
      session->disconnect();
      c.closed_wire_bytes += session->wire_bytes();
    } else {
      if (!c.session) c.session = open_session();
      perform(c, *c.session, req, reply);
    }
  } catch (const std::exception& e) {
    record.latency_ns = elapsed_ns(start);
    error = std::string(op_name(req.kind)) + " threw: " + e.what();
    c.broken = true;
    return record;
  }
  record.latency_ns = elapsed_ns(start);
  record.request_ns = reply.request_ns;
  record.pump_ns = reply.pump_ns;
  record.trace = reply.trace;
  check(c, req, reply, record, error);
  return record;
}

void WorkloadRun::perform(Client& c, Session& session, const Request& req,
                          Reply& reply) {
  seg::client::UserClient& client = session.client();
  const std::string path = file_path(spec_, req.file);
  const std::uint64_t pump_before = session.pump_ns();
  const Clock::time_point start = Clock::now();
  switch (req.kind) {
    case OpKind::kGet:
      std::tie(reply.response, reply.body) = client.get_file(path);
      break;
    case OpKind::kStat:
      reply.response = client.stat(path);
      break;
    case OpKind::kList:
      reply.response = client.list(dir_path(req.dir));
      break;
    case OpKind::kPut:
      reply.response = client.put_file(
          path,
          req.shared_body >= 0 ? shared_bodies_[req.shared_body] : c.body);
      break;
    case OpKind::kSetPermission:
      reply.response =
          client.set_permission(path, group_name(req.group), req.perm);
      break;
    case OpKind::kMembership:
      reply.response =
          req.add ? client.add_user_to_group(user_name(req.user),
                                             group_name(req.group))
                  : client.remove_user_from_group(user_name(req.user),
                                                  group_name(req.group));
      break;
  }
  reply.request_ns = elapsed_ns(start);
  reply.pump_ns = session.pump_ns() - pump_before;
  if (c.tracing && client.last_trace())
    reply.trace = client.last_trace()->context;
}

void WorkloadRun::check(Client& c, const Request& req, const Reply& reply,
                        OpRecord& record, std::string& error) {
  const seg::proto::Response& response = reply.response;
  std::string what = std::string(op_name(req.kind)) + " ";
  what += req.kind == OpKind::kList ? dir_path(req.dir)
          : req.kind == OpKind::kMembership
              ? user_name(req.user) + (req.add ? " +" : " -") +
                    group_name(req.group)
              : file_path(spec_, req.file);
  if (!response.ok()) {
    error = what + ": " + seg::proto::status_name(response.status) + " " +
            response.message;
    return;
  }
  bool reply_ok = true;
  switch (req.kind) {
    case OpKind::kGet:
      record.body_bytes = reply.body.size();
      reply_ok = reply.body.size() == spec_.file_bytes &&
                 expected_.readable(req.file, digest(reply.body), req.issued,
                                    expected_.tick());
      break;
    case OpKind::kStat:
      reply_ok = response.body_size == spec_.file_bytes;
      break;
    case OpKind::kList:
      reply_ok = response.listing.size() == spec_.files / spec_.dirs;
      break;
    case OpKind::kPut:
      record.body_bytes = spec_.file_bytes;
      expected_.complete(req.file, req.version);
      break;
    case OpKind::kMembership:
      c.member[req.user * spec_.groups + req.group] ^= 1;
      break;
    case OpKind::kSetPermission:
      break;
  }
  if (!reply_ok) {
    error = what + ": reply does not match what the generator wrote";
    return;
  }
  record.ok = true;
}

std::vector<std::string> WorkloadRun::verify(bool corrupt) {
  std::vector<std::string> errors;
  const std::size_t n = std::min(kVerifySample, spec_.files);
  if (corrupt) expected_.corrupt(0);
  Session owner(deployment_, deployment_.identity("owner"), owner_rng_);
  owner.connect();
  owner.client().set_tracing(false);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t file = i * spec_.files / n;
    const std::string path = file_path(spec_, file);
    const std::uint64_t issued = expected_.tick();
    const auto [response, body] = owner.client().get_file(path);
    if (!response.ok() || body.size() != spec_.file_bytes ||
        !expected_.readable(file, digest(body), issued, expected_.tick())) {
      if (errors.size() < kMaxErrors)
        errors.push_back("verify GET " + path +
                         ": body is not the latest version written");
    }
  }
  return errors;
}

std::vector<std::uint64_t> WorkloadRun::handshake_probe(std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    Session session(deployment_, deployment_.identity(client_name(0)),
                    owner_rng_);
    const Clock::time_point start = Clock::now();
    session.connect();
    out.push_back(elapsed_ns(start));
    session.disconnect();
  }
  return out;
}

std::uint64_t WorkloadRun::live_user_bytes() const {
  return (spec_.files + spec_.shared_bodies) * spec_.file_bytes;
}

std::uint64_t WorkloadRun::working_set_bytes() const {
  return spec_.files * spec_.file_bytes;
}

}  // namespace segbench
