// One complete in-process SeGShare deployment: CA, simulated SGX platform,
// three MemoryStore backends, the enclave and its untrusted server half.
// Every workload runs on the same configuration (see README.md for why
// each knob is set the way it is).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/user_client.h"
#include "core/enclave.h"
#include "core/server.h"
#include "crypto/drbg.h"
#include "net/channel.h"
#include "store/untrusted_store.h"
#include "timed_store.h"
#include "tls/certificate.h"

namespace segbench {

struct DeploymentOptions {
  /// Traced run: wrap each store in a TimedStore.
  bool timed_stores = false;
  /// Capacity of the enclave's trace ring; 0 keeps the program default.
  /// The traced run sizes it so that no span of the run is evicted.
  std::size_t trace_ring = 0;
};

/// Names of the store roles, in the order of Deployment::timed_counts().
inline constexpr std::array<const char*, 3> kStoreNames = {"content", "group",
                                                           "dedup"};

class Deployment {
 public:
  Deployment(std::uint64_t seed, const DeploymentOptions& options);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  seg::core::SegShareEnclave& enclave() { return *enclave_; }
  seg::core::SegShareServer& server() { return *server_; }
  const seg::crypto::Ed25519PublicKey& ca_public_key() const {
    return ca_.public_key();
  }
  const seg::core::EnclaveConfig& config() const { return config_; }

  /// CA-issued credentials of `user`, enrolled on first use. Draws from the
  /// deployment RNG, so call it only while no client thread runs.
  const seg::client::Identity& identity(const std::string& user);

  /// Bytes held by the three stores.
  std::uint64_t stored_bytes() const;

  /// Per-store counts of the TimedStore decorators (zeros without them).
  std::array<StoreCounts, 3> timed_counts() const;

 private:
  seg::crypto::ChaChaDrbg rng_;
  seg::tls::CertificateAuthority ca_;
  seg::sgx::SgxPlatform platform_;
  seg::store::MemoryStore content_, group_, dedup_;
  std::array<std::unique_ptr<TimedStore>, 3> timed_;
  seg::core::EnclaveConfig config_;
  // Declared after the stores and before the server, so teardown runs
  // server, enclave, stores.
  std::unique_ptr<seg::core::SegShareEnclave> enclave_;
  std::unique_ptr<seg::core::SegShareServer> server_;
  std::map<std::string, seg::client::Identity> identities_;
};

/// A client connection: a UserClient whose pump drives its own connection
/// through SegShareServer::pump_connection, so each client thread runs its
/// requests through the enclave itself.
class Session {
 public:
  Session(Deployment& deployment, const seg::client::Identity& identity,
          seg::RandomSource& rng);
  /// Disconnects (CLOSE frame); falls back to closing the server side.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs the TLS handshake.
  void connect();
  void disconnect();
  seg::client::UserClient& client() { return client_; }
  /// Bytes both directions have sent on this connection so far.
  std::uint64_t wire_bytes() const;
  /// Wall time spent so far in the pump, i.e. in the server's handling of
  /// this connection, timed by the benchmark around each pump call.
  std::uint64_t pump_ns() const { return pump_ns_; }

 private:
  seg::core::SegShareServer& server_;
  seg::net::DuplexChannel channel_;
  std::uint64_t connection_id_;
  seg::client::UserClient client_;
  std::uint64_t pump_ns_ = 0;
};

std::array<std::uint8_t, 32> seed_bytes(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace segbench
