// Tests for the ROTE-style distributed monotonic counters (§V-E) and
// their integration as SeGShare's whole-file-system rollback guard.
#include <gtest/gtest.h>

#include "common/error.h"
#include "rote/rote.h"
#include "segshare_test_util.h"

namespace seg::rote {
namespace {

/// A provisioned quorum of `n` replicas, each on its own platform.
struct Quorum {
  explicit Quorum(std::size_t n, std::uint64_t seed = 0x20e7)
      : rng(seed), service_key(rng.bytes(32)) {
    for (std::size_t i = 0; i < n; ++i) {
      platforms.push_back(std::make_unique<sgx::SgxPlatform>(rng));
      replicas.push_back(
          std::make_unique<CounterReplica>(*platforms.back(), rng));
      const Bytes request = replicas.back()->provisioning_request();
      const Bytes response = provision_replica(
          request, platforms.back()->attestation_public_key(), service_key,
          rng);
      replicas.back()->install_service_key(response);
    }
  }

  std::vector<CounterReplica*> ptrs() {
    std::vector<CounterReplica*> out;
    for (auto& r : replicas) out.push_back(r.get());
    return out;
  }

  TestRng rng;
  Bytes service_key;
  std::vector<std::unique_ptr<sgx::SgxPlatform>> platforms;
  std::vector<std::unique_ptr<CounterReplica>> replicas;
};

TEST(Rote, ProvisioningAttestsReplicas) {
  Quorum q(1);
  EXPECT_TRUE(q.replicas[0]->provisioned());
}

TEST(Rote, ProvisioningRejectsForeignEnclave) {
  TestRng rng(1);
  sgx::SgxPlatform platform(rng);
  // A non-replica enclave (different image) asks for the service key.
  class Impostor : public sgx::Enclave {
   public:
    Impostor(sgx::SgxPlatform& p) : sgx::Enclave(p, to_bytes("evil")) {}
    using sgx::Enclave::generate_quote;
  } impostor(platform);
  const auto eph = crypto::x25519_generate(rng);
  Bytes request = to_bytes("rote-prov-req:");
  append(request, eph.public_key);
  const auto quote = impostor.generate_quote(eph.public_key);
  Bytes qb;
  append(qb, quote.measurement);
  put_u32_be(qb, static_cast<std::uint32_t>(quote.report_data.size()));
  append(qb, quote.report_data);
  append(qb, quote.signature);
  append(request, qb);
  EXPECT_THROW(provision_replica(request, platform.attestation_public_key(),
                                 Bytes(32, 1), rng),
               AuthError);
}

TEST(Rote, ProvisioningRejectsWrongPlatformKey) {
  TestRng rng(2);
  sgx::SgxPlatform real(rng), other(rng);
  CounterReplica replica(real, rng);
  const Bytes request = replica.provisioning_request();
  EXPECT_THROW(provision_replica(request, other.attestation_public_key(),
                                 Bytes(32, 1), rng),
               AuthError);
}

TEST(Rote, IncrementAndReadThroughQuorum) {
  Quorum q(3);
  DistributedCounter counter(q.ptrs(), q.service_key);
  const CounterId id = counter.create();
  EXPECT_EQ(counter.read(id), 0u);
  EXPECT_EQ(counter.increment(id), 1u);
  EXPECT_EQ(counter.increment(id), 2u);
  EXPECT_EQ(counter.read(id), 2u);
}

TEST(Rote, IndependentCounters) {
  Quorum q(3);
  DistributedCounter counter(q.ptrs(), q.service_key);
  const CounterId a = counter.create();
  const CounterId b = counter.create();
  counter.increment(a);
  counter.increment(a);
  counter.increment(b);
  EXPECT_EQ(counter.read(a), 2u);
  EXPECT_EQ(counter.read(b), 1u);
}

TEST(Rote, SurvivesMinorityWipe) {
  // Adversary resets one of three replicas (platform restart): the
  // counter value survives, and the wiped replica catches up on the next
  // increment.
  Quorum q(3);
  DistributedCounter counter(q.ptrs(), q.service_key);
  const CounterId id = counter.create();
  for (int i = 0; i < 5; ++i) counter.increment(id);
  q.replicas[1]->wipe();
  EXPECT_EQ(counter.read(id), 5u);
  EXPECT_EQ(counter.increment(id), 6u);
  // The wiped replica now stores the fresh value again.
  EXPECT_EQ(q.replicas[1]->handle_read(id).value, 6u);
}

TEST(Rote, MajorityWipeFailsClosed) {
  // If a majority loses state the stable value cannot be attested any
  // more; the quorum read reflects the rollback... and that is exactly
  // what the guard detects (stored root counter > quorum value).
  Quorum q(3);
  DistributedCounter counter(q.ptrs(), q.service_key);
  const CounterId id = counter.create();
  for (int i = 0; i < 5; ++i) counter.increment(id);
  q.replicas[0]->wipe();
  q.replicas[1]->wipe();
  EXPECT_LT(counter.read(id), 5u);
}

TEST(Rote, ForgedAcksIgnored) {
  // Replicas that were never provisioned with the service key (e.g. an
  // attacker inserting fake replicas) cannot contribute valid acks.
  Quorum good(2);
  TestRng rng(3);
  sgx::SgxPlatform rogue_platform(rng);
  CounterReplica rogue(rogue_platform, rng);  // provisioned with...
  const Bytes request = rogue.provisioning_request();
  rogue.install_service_key(provision_replica(
      request, rogue_platform.attestation_public_key(), Bytes(32, 0xee),
      rng));  // ...a DIFFERENT key

  auto replicas = good.ptrs();
  replicas.push_back(&rogue);
  DistributedCounter counter(replicas, good.service_key);  // quorum = 2
  const CounterId id = counter.create();
  // Both good replicas ack; the rogue's MACs never verify but the quorum
  // is still reachable.
  EXPECT_EQ(counter.increment(id), 1u);
  // With one good replica gone, the rogue cannot stand in.
  good.replicas[0]->wipe();
  good.replicas[0]->destroy();
  EXPECT_THROW(counter.increment(id), RollbackError);
}

TEST(Rote, UnprovisionedReplicaRefusesService) {
  TestRng rng(4);
  sgx::SgxPlatform platform(rng);
  CounterReplica replica(platform, rng);
  EXPECT_THROW(replica.handle_read(1), ProtocolError);
  EXPECT_THROW(replica.handle_increment(1, 1), ProtocolError);
}

// ------------------------------------------------- SeGShare integration ---

TEST(RoteIntegration, WholeFsGuardOnDistributedCounters) {
  // Full SeGShare deployment whose §V-E guard runs on a 3-replica ROTE
  // quorum instead of local SGX counters.
  Quorum q(3);
  DistributedCounter distributed(q.ptrs(), q.service_key);
  RoteCounters counters(distributed);

  TestRng rng(0x40e7);
  tls::CertificateAuthority ca(rng);
  sgx::SgxPlatform platform(rng);
  store::AdversaryStore content(std::make_unique<store::MemoryStore>());
  store::MemoryStore group, dedup;

  core::EnclaveConfig config;
  config.hide_names = false;
  config.rollback_protection = true;
  config.fs_guard = core::FsRollbackGuard::kMonotonicCounter;

  core::SegShareEnclave enclave(platform, rng, ca.public_key(),
                                core::Stores{content, group, dedup}, config,
                                /*auto_bootstrap=*/true, &counters);
  core::SegShareServer::provision_certificate(enclave, ca, platform);
  core::SegShareServer server(enclave);
  net::DuplexChannel wire;
  client::UserClient alice(rng, ca.public_key(),
                           client::enroll_user(rng, ca, "alice"));
  server.accept(wire);
  alice.connect(wire.a(), [&] { server.pump(); });

  ASSERT_TRUE(alice.put_file("/f", to_bytes("v1")).ok());
  content.snapshot_all();
  ASSERT_TRUE(alice.put_file("/f", to_bytes("v2")).ok());
  content.rollback_all();
  // Whole-FS rollback detected via the distributed counter.
  EXPECT_EQ(alice.get_file("/f").first.status, proto::Status::kError);
  // A minority replica wipe does not produce false positives.
  q.replicas[2]->wipe();
  ASSERT_TRUE(alice.put_file("/g", to_bytes("fresh")).ok());
  EXPECT_TRUE(alice.get_file("/g").first.ok());
  // No local SGX counter was used at all.
  EXPECT_EQ(platform.stats().counter_increments, 0u);
}

}  // namespace
}  // namespace seg::rote
