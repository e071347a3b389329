#include "deployment.h"

#include <chrono>
#include <cstring>
#include <exception>
#include <string>

namespace segbench {

namespace {

seg::store::UntrustedStore& role(std::unique_ptr<TimedStore>& timed,
                                 seg::store::MemoryStore& memory) {
  if (timed) return *timed;
  return memory;
}

}  // namespace

std::array<std::uint8_t, 32> seed_bytes(std::uint64_t seed,
                                        std::uint64_t stream) {
  std::array<std::uint8_t, 32> out{};
  std::memcpy(out.data(), &seed, sizeof(seed));
  std::memcpy(out.data() + 8, &stream, sizeof(stream));
  std::memcpy(out.data() + 16, "segbench", 8);
  return out;
}

Deployment::Deployment(std::uint64_t seed, const DeploymentOptions& options)
    : rng_(seed_bytes(seed, 0)), ca_(rng_, "segbench-CA"), platform_(rng_) {
  if (options.timed_stores) {
    timed_[0] = std::make_unique<TimedStore>(content_);
    timed_[1] = std::make_unique<TimedStore>(group_);
    timed_[2] = std::make_unique<TimedStore>(dedup_);
  }
  config_.hide_names = true;
  config_.deduplication = true;
  config_.rollback_protection = true;
  config_.fs_guard = seg::core::FsRollbackGuard::kProtectedMemory;
  config_.paged_metadata = true;
  config_.metadata_cache_bytes = std::size_t{1} << 20;
  config_.content_cache_bytes = std::size_t{8} << 20;
  config_.crypto_threads = 0;
  config_.service_threads = 1;
  config_.store_io_threads = 0;
  if (options.trace_ring != 0) config_.telemetry_trace_ring = options.trace_ring;

  enclave_ = std::make_unique<seg::core::SegShareEnclave>(
      platform_, rng_, ca_.public_key(),
      seg::core::Stores{role(timed_[0], content_), role(timed_[1], group_),
                        role(timed_[2], dedup_)},
      config_);
  seg::core::SegShareServer::provision_certificate(*enclave_, ca_, platform_);
  server_ = std::make_unique<seg::core::SegShareServer>(*enclave_);
}

const seg::client::Identity& Deployment::identity(const std::string& user) {
  auto it = identities_.find(user);
  if (it == identities_.end())
    it = identities_
             .emplace(user, seg::client::enroll_user(rng_, ca_, user))
             .first;
  return it->second;
}

std::uint64_t Deployment::stored_bytes() const {
  return content_.total_bytes() + group_.total_bytes() + dedup_.total_bytes();
}

std::array<StoreCounts, 3> Deployment::timed_counts() const {
  std::array<StoreCounts, 3> out{};
  for (std::size_t i = 0; i < timed_.size(); ++i)
    if (timed_[i]) out[i] = timed_[i]->counts();
  return out;
}

Session::Session(Deployment& deployment,
                 const seg::client::Identity& identity,
                 seg::RandomSource& rng)
    : server_(deployment.server()),
      connection_id_(server_.accept(channel_)),
      client_(rng, deployment.ca_public_key(), identity) {}

Session::~Session() {
  try {
    disconnect();
  } catch (const std::exception&) {
    // The connection is broken already; reclaim the server side below.
  }
  server_.close(connection_id_);
}

void Session::connect() {
  client_.connect(channel_.a(), [this] {
    const auto start = std::chrono::steady_clock::now();
    server_.pump_connection(connection_id_);
    pump_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  });
}

void Session::disconnect() { client_.disconnect(); }

std::uint64_t Session::wire_bytes() const {
  const seg::net::ChannelStats stats = channel_.stats_snapshot();
  return stats.bytes_a_to_b + stats.bytes_b_to_a;
}

}  // namespace segbench
