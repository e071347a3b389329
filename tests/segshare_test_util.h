// Shared test rig: a full SeGShare deployment on simulated infrastructure
// (CA, SGX platform, three adversary-wrapped stores, enclave, untrusted
// server, connected user clients).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "client/user_client.h"
#include "core/config.h"
#include "core/enclave.h"
#include "core/server.h"
#include "net/channel.h"
#include "sgx/platform.h"
#include "store/untrusted_store.h"
#include "tls/certificate.h"

namespace seg::testutil {

class Rig {
 public:
  explicit Rig(core::EnclaveConfig config = {}, std::uint64_t seed = 0x5e65)
      : rng_(seed),
        ca_(rng_),
        platform_(rng_),
        content_(std::make_unique<store::MemoryStore>()),
        group_(std::make_unique<store::MemoryStore>()),
        dedup_(std::make_unique<store::MemoryStore>()) {
    enclave_ = std::make_unique<core::SegShareEnclave>(
        platform_, rng_, ca_.public_key(),
        core::Stores{content_, group_, dedup_}, config);
    core::SegShareServer::provision_certificate(*enclave_, ca_, platform_);
    server_ = std::make_unique<core::SegShareServer>(*enclave_);
  }

  /// Enrolls (if needed) and connects a user; returns the ready client.
  client::UserClient& connect(const std::string& user) {
    auto channel = std::make_unique<net::DuplexChannel>();
    auto client = std::make_unique<client::UserClient>(
        rng_, ca_.public_key(), client::enroll_user(rng_, ca_, user));
    server_->accept(*channel);
    client->connect(channel->a(), [this] { server_->pump(); });
    channels_.push_back(std::move(channel));
    clients_.push_back(std::move(client));
    return *clients_.back();
  }

  TestRng& rng() { return rng_; }
  tls::CertificateAuthority& ca() { return ca_; }
  sgx::SgxPlatform& platform() { return platform_; }
  store::AdversaryStore& content_store() { return content_; }
  store::AdversaryStore& group_store() { return group_; }
  store::AdversaryStore& dedup_store() { return dedup_; }
  core::SegShareEnclave& enclave() { return *enclave_; }
  core::SegShareServer& server() { return *server_; }
  net::DuplexChannel& channel(std::size_t i) { return *channels_.at(i); }

 private:
  TestRng rng_;
  tls::CertificateAuthority ca_;
  sgx::SgxPlatform platform_;
  store::AdversaryStore content_;
  store::AdversaryStore group_;
  store::AdversaryStore dedup_;
  std::unique_ptr<core::SegShareEnclave> enclave_;
  std::unique_ptr<core::SegShareServer> server_;
  std::vector<std::unique_ptr<net::DuplexChannel>> channels_;
  std::vector<std::unique_ptr<client::UserClient>> clients_;
};

}  // namespace seg::testutil
