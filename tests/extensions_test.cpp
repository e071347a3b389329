// Tests for the SeGShare extensions (§V): deduplication, filename hiding
// on/off, per-file rollback protection, whole-file-system rollback
// guards, replication, and backup restore.
#include <gtest/gtest.h>

#include <regex>

#include "common/error.h"
#include "fs/records.h"
#include "segshare_test_util.h"

namespace seg {
namespace {

using testutil::Rig;

core::EnclaveConfig dedup_config() {
  core::EnclaveConfig config;
  config.deduplication = true;
  return config;
}

// §V-D tests manipulate specific physical blobs, so they run with name
// hiding off (physical names are then "f:<path>" / "h:<path>").
core::EnclaveConfig rollback_config(
    core::FsRollbackGuard guard = core::FsRollbackGuard::kProtectedMemory) {
  core::EnclaveConfig config;
  config.hide_names = false;
  config.rollback_protection = true;
  config.fs_guard = guard;
  return config;
}

// -------------------------------------------------------------- dedup ---

TEST(Dedup, SingleCopyForIdenticalContent) {
  Rig rig(dedup_config());
  auto& alice = rig.connect("alice");
  auto& bob = rig.connect("bob");
  const Bytes payload = rig.rng().bytes(100'000);

  ASSERT_TRUE(alice.put_file("/a/copy1", payload).ok() ||
              alice.mkdir("/a/").ok());
  ASSERT_TRUE(alice.put_file("/a/copy1", payload).ok());
  const std::uint64_t after_first = rig.dedup_store().total_bytes();
  ASSERT_TRUE(bob.put_file("/copy2", payload).ok());
  const std::uint64_t after_second = rig.dedup_store().total_bytes();

  // F9/P5: the second upload (different user, different group) adds no
  // second content copy — only index bookkeeping.
  EXPECT_LT(after_second - after_first, 10'000u);
  EXPECT_EQ(alice.get_file("/a/copy1").second, payload);
  EXPECT_EQ(bob.get_file("/copy2").second, payload);
}

TEST(Dedup, DistinctContentStoredSeparately) {
  Rig rig(dedup_config());
  auto& alice = rig.connect("alice");
  const Bytes a = rig.rng().bytes(50'000);
  const Bytes b = rig.rng().bytes(50'000);
  ASSERT_TRUE(alice.put_file("/a", a).ok());
  const auto after_a = rig.dedup_store().total_bytes();
  ASSERT_TRUE(alice.put_file("/b", b).ok());
  EXPECT_GT(rig.dedup_store().total_bytes(), after_a + 40'000u);
}

TEST(Dedup, RefcountGarbageCollection) {
  Rig rig(dedup_config());
  auto& alice = rig.connect("alice");
  const Bytes payload = rig.rng().bytes(60'000);
  ASSERT_TRUE(alice.put_file("/x", payload).ok());
  ASSERT_TRUE(alice.put_file("/y", payload).ok());
  const auto with_data = rig.dedup_store().total_bytes();
  ASSERT_TRUE(alice.remove("/x").ok());
  // Still referenced by /y: content stays.
  EXPECT_GT(rig.dedup_store().total_bytes(), with_data - 10'000);
  EXPECT_EQ(alice.get_file("/y").second, payload);
  ASSERT_TRUE(alice.remove("/y").ok());
  // Last reference gone: the copy is collected.
  EXPECT_LT(rig.dedup_store().total_bytes(), 10'000u);
}

TEST(Dedup, OverwriteMovesReference) {
  Rig rig(dedup_config());
  auto& alice = rig.connect("alice");
  const Bytes v1 = rig.rng().bytes(30'000);
  const Bytes v2 = rig.rng().bytes(30'000);
  ASSERT_TRUE(alice.put_file("/f", v1).ok());
  ASSERT_TRUE(alice.put_file("/f", v2).ok());
  EXPECT_EQ(alice.get_file("/f").second, v2);
  ASSERT_TRUE(alice.remove("/f").ok());
  EXPECT_LT(rig.dedup_store().total_bytes(), 10'000u);
}

TEST(Dedup, RevocationStillImmediateWithSharedCopy) {
  // §V-A: "the scheme also supports deduplication of data belonging to
  // different groups and immediate membership revocation without
  // re-encryption".
  Rig rig(dedup_config());
  auto& alice = rig.connect("alice");
  auto& bob = rig.connect("bob");
  const Bytes payload = rig.rng().bytes(10'000);
  ASSERT_TRUE(alice.put_file("/mine", payload).ok());
  ASSERT_TRUE(bob.put_file("/theirs", payload).ok());
  ASSERT_TRUE(alice.set_permission("/mine", "user:bob", fs::kPermRead).ok());
  EXPECT_TRUE(bob.get_file("/mine").first.ok());
  ASSERT_TRUE(alice.set_permission("/mine", "user:bob", fs::kPermNone).ok());
  EXPECT_EQ(bob.get_file("/mine").first.status, proto::Status::kForbidden);
  // Bob's own copy of the same bytes keeps working.
  EXPECT_EQ(bob.get_file("/theirs").second, payload);
}

// ------------------------------------------------------- name hiding ---

TEST(NameHiding, DisabledExposesNamespaceShape) {
  core::EnclaveConfig config;
  config.hide_names = false;
  Rig rig(config);
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.put_file("/visible.txt", to_bytes("x")).ok());
  bool found = false;
  for (const auto& name : rig.content_store().list())
    found |= name.find("visible.txt") != std::string::npos;
  EXPECT_TRUE(found);  // contrast with Files.HiddenNamesLeakNoPaths
}

TEST(NameHiding, FlatPseudorandomNamespaceWhenEnabled) {
  Rig rig;  // hiding on by default
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.mkdir("/d/").ok());
  ASSERT_TRUE(alice.put_file("/d/f", to_bytes("x")).ok());
  // Paged-metadata blobs carry only the map name and a page, table-segment,
  // journal or manifest index — a fixed grammar with no room for a path.
  const std::regex amap_blob(
      R"(__amap:(dedup|group):(dir|t\d+|j\d+|p\d+\.\d+))");
  std::size_t amap_blobs = 0;
  for (auto* store : {&rig.content_store(), &rig.group_store()}) {
    for (const auto& name : store->list()) {
      if (name.rfind("__segshare", 0) == 0) continue;  // bootstrap blobs
      if (name.rfind("__amap:", 0) == 0) {
        EXPECT_TRUE(std::regex_match(name, amap_blob)) << name;
        ++amap_blobs;
        continue;
      }
      // hex HMAC (64 chars) + Protected-FS suffix.
      EXPECT_GE(name.size(), 64u) << name;
      EXPECT_EQ(name.find('/'), std::string::npos) << name;
    }
  }
  EXPECT_GT(amap_blobs, 0u) << "the group map stores pages";
  // Listing still works (paths live inside encrypted directory files).
  EXPECT_EQ(alice.list("/d/").listing, std::vector<std::string>{"/d/f"});
}

// --------------------------------------------- per-file rollback (§V-D) ---

class RollbackTest : public ::testing::Test {
 protected:
  RollbackTest() : rig_(rollback_config()) {}

  /// Snapshots every blob belonging to logical object `logical`
  /// (Protected-FS blobs "f:<logical>.*" and the hash header "h:<logical>").
  std::vector<std::string> blobs_of(const std::string& logical) {
    std::vector<std::string> result;
    for (const auto& name : rig_.content_store().list()) {
      if (name.rfind("f:" + logical + ".", 0) == 0 ||
          name == "h:" + logical)
        result.push_back(name);
    }
    return result;
  }

  Rig rig_;
};

TEST_F(RollbackTest, NormalOperationUnaffected) {
  auto& alice = rig_.connect("alice");
  ASSERT_TRUE(alice.mkdir("/d/").ok());
  ASSERT_TRUE(alice.put_file("/d/f", to_bytes("v1")).ok());
  ASSERT_TRUE(alice.put_file("/d/f", to_bytes("v2")).ok());
  EXPECT_EQ(alice.get_file("/d/f").second, to_bytes("v2"));
  ASSERT_TRUE(alice.move("/d/f", "/d/g").ok());
  EXPECT_EQ(alice.get_file("/d/g").second, to_bytes("v2"));
  ASSERT_TRUE(alice.remove("/d/g").ok());
  EXPECT_EQ(alice.list("/d/").listing.size(), 0u);
}

TEST_F(RollbackTest, IndividualFileRollbackDetected) {
  auto& alice = rig_.connect("alice");
  ASSERT_TRUE(alice.put_file("/f", to_bytes("version 1")).ok());
  for (const auto& blob : blobs_of("/f")) rig_.content_store().snapshot_blob(blob);
  ASSERT_TRUE(alice.put_file("/f", to_bytes("version 2")).ok());
  // Roll back the file (content + its own hash header) but not the rest
  // of the tree — the parent bucket hash exposes the stale main hash.
  for (const auto& blob : blobs_of("/f")) rig_.content_store().rollback_blob(blob);
  const auto [resp, body] = alice.get_file("/f");
  EXPECT_EQ(resp.status, proto::Status::kError);
  EXPECT_NE(resp.message.find("rollback"), std::string::npos);
}

TEST_F(RollbackTest, ContentOnlyRollbackDetected) {
  auto& alice = rig_.connect("alice");
  ASSERT_TRUE(alice.put_file("/f", Bytes(5000, 1)).ok());
  for (const auto& blob : blobs_of("/f"))
    if (blob.rfind("f:", 0) == 0) rig_.content_store().snapshot_blob(blob);
  ASSERT_TRUE(alice.put_file("/f", Bytes(5000, 2)).ok());
  for (const auto& blob : blobs_of("/f"))
    if (blob.rfind("f:", 0) == 0) rig_.content_store().rollback_blob(blob);
  // Chunk-level rollback is only detectable once the download is under
  // way, i.e. after the response header — the stream ends with an error
  // trailer the client raises as a typed error carrying the verdict.
  try {
    alice.get_file("/f");
    FAIL() << "rolled-back download must not succeed";
  } catch (const client::DownloadAbortedError& e) {
    EXPECT_EQ(e.response().status, proto::Status::kError);
  }
}

TEST_F(RollbackTest, AclRollbackDetected) {
  // The §V-D motivation: "an old member list could enable a user to
  // regain access" — same for ACLs: revive a revoked permission.
  auto& alice = rig_.connect("alice");
  auto& bob = rig_.connect("bob");
  ASSERT_TRUE(alice.put_file("/f", to_bytes("secret")).ok());
  ASSERT_TRUE(alice.set_permission("/f", "user:bob", fs::kPermRead).ok());
  for (const auto& blob : blobs_of("/f.acl"))
    rig_.content_store().snapshot_blob(blob);
  ASSERT_TRUE(alice.set_permission("/f", "user:bob", fs::kPermNone).ok());
  for (const auto& blob : blobs_of("/f.acl"))
    rig_.content_store().rollback_blob(blob);
  // Bob's access must NOT come back.
  EXPECT_NE(bob.get_file("/f").first.status, proto::Status::kOk);
}

TEST_F(RollbackTest, WholeFsRollbackDetectedByGuard) {
  auto& alice = rig_.connect("alice");
  ASSERT_TRUE(alice.put_file("/f", to_bytes("v1")).ok());
  rig_.content_store().snapshot_all();
  ASSERT_TRUE(alice.put_file("/f", to_bytes("v2")).ok());
  rig_.content_store().rollback_all();  // consistent full rollback
  // §V-E: the protected-memory guard holds the fresh root hash.
  EXPECT_EQ(alice.get_file("/f").first.status, proto::Status::kError);
}

TEST_F(RollbackTest, DeepTreeValidation) {
  auto& alice = rig_.connect("alice");
  ASSERT_TRUE(alice.mkdir("/a/").ok());
  ASSERT_TRUE(alice.mkdir("/a/b/").ok());
  ASSERT_TRUE(alice.mkdir("/a/b/c/").ok());
  ASSERT_TRUE(alice.put_file("/a/b/c/deep", to_bytes("v1")).ok());
  for (const auto& blob : blobs_of("/a/b/c/deep"))
    rig_.content_store().snapshot_blob(blob);
  ASSERT_TRUE(alice.put_file("/a/b/c/deep", to_bytes("v2")).ok());
  for (const auto& blob : blobs_of("/a/b/c/deep"))
    rig_.content_store().rollback_blob(blob);
  EXPECT_EQ(alice.get_file("/a/b/c/deep").first.status, proto::Status::kError);
  // An untouched sibling file elsewhere still validates.
  ASSERT_TRUE(alice.put_file("/a/ok", to_bytes("fine")).ok());
  EXPECT_EQ(alice.get_file("/a/ok").second, to_bytes("fine"));
}

TEST(RollbackCounter, CounterGuardDetectsWholeFsRollback) {
  Rig rig(rollback_config(core::FsRollbackGuard::kMonotonicCounter));
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.put_file("/f", to_bytes("v1")).ok());
  rig.content_store().snapshot_all();
  ASSERT_TRUE(alice.put_file("/f", to_bytes("v2")).ok());
  rig.content_store().rollback_all();
  EXPECT_EQ(alice.get_file("/f").first.status, proto::Status::kError);
  EXPECT_GT(rig.platform().stats().counter_increments, 0u);
}

TEST(RollbackMemberList, GroupStoreRollbackDetected) {
  Rig rig(rollback_config());
  auto& alice = rig.connect("alice");
  auto& bob = rig.connect("bob");
  ASSERT_TRUE(alice.add_user_to_group("bob", "g").ok());
  ASSERT_TRUE(alice.put_file("/f", to_bytes("x")).ok());
  ASSERT_TRUE(alice.set_permission("/f", "g", fs::kPermRead).ok());
  EXPECT_TRUE(bob.get_file("/f").first.ok());

  rig.group_store().snapshot_all();
  ASSERT_TRUE(alice.remove_user_from_group("bob", "g").ok());
  rig.group_store().rollback_all();  // revive bob's membership
  // The enclave's in-memory group-record hashes flag the stale list.
  EXPECT_NE(bob.get_file("/f").first.status, proto::Status::kOk);
}

TEST(RollbackMemberList, OverlongMemberNameIsRefusedAndRestartValidates) {
  Rig rig(rollback_config());
  auto& alice = rig.connect("alice");
  ASSERT_TRUE(alice.add_user_to_group("bob", "team").ok());
  auto& group = static_cast<store::MemoryStore&>(rig.group_store().inner());
  auto& content = static_cast<store::MemoryStore&>(rig.content_store().inner());
  const auto group_before = group.snapshot();
  const auto content_before = content.snapshot();
  // Any group owner picks member names. One whose membership-index key
  // cannot fit an amap page must be refused before anything is written,
  // or the guarded group root no longer matches the index at restart.
  EXPECT_EQ(alice.add_user_to_group(std::string(5000, 'x'), "team").status,
            proto::Status::kBadRequest);
  EXPECT_EQ(group.snapshot(), group_before);
  EXPECT_EQ(content.snapshot(), content_before);
  EXPECT_NO_THROW(rig.enclave().file_manager().startup_validation());
  EXPECT_TRUE(alice.add_user_to_group("carol", "team").ok());
}

// --------------------------------------------------- client-side dedup ---

core::EnclaveConfig client_dedup_config() {
  core::EnclaveConfig config;
  config.deduplication = true;
  config.client_side_dedup = true;
  return config;
}

TEST(ClientDedup, SecondUploadSkipsTheBody) {
  Rig rig(client_dedup_config());
  auto& alice = rig.connect("alice");
  auto& bob = rig.connect("bob");
  const Bytes payload = rig.rng().bytes(300'000);

  bool uploaded = false;
  ASSERT_TRUE(alice.put_file_deduplicated("/a", payload, &uploaded).ok());
  EXPECT_TRUE(uploaded);  // first copy travels

  // Bob's channel: measure bytes before/after the deduplicated upload.
  const auto before = rig.channel(1).stats_snapshot().bytes_a_to_b;
  ASSERT_TRUE(bob.put_file_deduplicated("/b", payload, &uploaded).ok());
  EXPECT_FALSE(uploaded);  // §V-A: "only upload the whole file if necessary"
  const auto transferred =
      rig.channel(1).stats_snapshot().bytes_a_to_b - before;
  EXPECT_LT(transferred, 2'000u);  // probe only, no 300 KB body

  EXPECT_EQ(bob.get_file("/b").second, payload);
  // Refcounting still works through the probe path.
  ASSERT_TRUE(alice.remove("/a").ok());
  EXPECT_EQ(bob.get_file("/b").second, payload);
}

TEST(ClientDedup, UnknownContentFallsBackToUpload) {
  Rig rig(client_dedup_config());
  auto& alice = rig.connect("alice");
  bool uploaded = false;
  ASSERT_TRUE(
      alice.put_file_deduplicated("/new", to_bytes("never seen"), &uploaded)
          .ok());
  EXPECT_TRUE(uploaded);
  EXPECT_EQ(alice.get_file("/new").second, to_bytes("never seen"));
}

TEST(ClientDedup, ProbeRequiresWriteAuthorization) {
  Rig rig(client_dedup_config());
  auto& alice = rig.connect("alice");
  auto& bob = rig.connect("bob");
  const Bytes payload = to_bytes("alice's content");
  ASSERT_TRUE(alice.put_file("/mine", payload).ok());
  // Bob may not overwrite alice's file via the probe either.
  bool uploaded = false;
  EXPECT_EQ(bob.put_file_deduplicated("/mine", payload, &uploaded).status,
            proto::Status::kForbidden);
}

TEST(ClientDedup, ExistenceLeakIsThePaperCaveat) {
  // The reason the paper prefers server-side dedup [58]: the probe reveals
  // whether *someone* already stored this exact content. We document the
  // trade-off by asserting the observable behaviour.
  Rig rig(client_dedup_config());
  auto& alice = rig.connect("alice");
  auto& spy = rig.connect("spy");
  const Bytes payload = to_bytes("has alice stored this exact file?");
  ASSERT_TRUE(alice.put_file("/secret-doc", payload).ok());
  bool uploaded = true;
  ASSERT_TRUE(spy.put_file_deduplicated("/spy-probe", payload, &uploaded).ok());
  EXPECT_FALSE(uploaded);  // the leak: spy learns the content exists
}

TEST(ClientDedup, DisabledProbeRejected) {
  core::EnclaveConfig config;
  config.deduplication = true;  // server-side only
  Rig rig(config);
  auto& alice = rig.connect("alice");
  bool uploaded = false;
  // Falls back to a normal upload because the probe is refused.
  const auto resp =
      alice.put_file_deduplicated("/f", to_bytes("x"), &uploaded);
  EXPECT_EQ(resp.status, proto::Status::kBadRequest);
}

// ------------------------------------------------------ replication §V-F ---

TEST(Replication, RootKeyTransferBetweenEnclaves) {
  TestRng rng(0xf00);
  tls::CertificateAuthority ca(rng);
  sgx::SgxPlatform platform_a(rng), platform_b(rng);
  store::MemoryStore content, group, dedup;
  core::Stores stores{content, group, dedup};

  core::SegShareEnclave root(platform_a, rng, ca.public_key(), stores);
  core::SegShareServer::provision_certificate(root, ca, platform_a);
  {
    core::SegShareServer server(root);
    net::DuplexChannel channel;
    client::UserClient alice(rng, ca.public_key(),
                             client::enroll_user(rng, ca, "alice"));
    server.accept(channel);
    alice.connect(channel.a(), [&] { server.pump(); });
    ASSERT_TRUE(alice.put_file("/replicated", to_bytes("shared state")).ok());
  }

  // Replica on a different platform, same central data repository.
  core::SegShareEnclave replica(platform_b, rng, ca.public_key(), stores,
                                core::EnclaveConfig{},
                                /*auto_bootstrap=*/false);
  const Bytes request = replica.replication_request();
  const Bytes response =
      root.serve_replication(request, platform_b.attestation_public_key());
  replica.install_replicated_key(response,
                                 platform_a.attestation_public_key());

  core::SegShareServer::provision_certificate(replica, ca, platform_b);
  core::SegShareServer server(replica);
  net::DuplexChannel channel;
  client::UserClient bob(rng, ca.public_key(),
                         client::enroll_user(rng, ca, "alice"));
  server.accept(channel);
  bob.connect(channel.a(), [&] { server.pump(); });
  EXPECT_EQ(bob.get_file("/replicated").second, to_bytes("shared state"));
}

TEST(Replication, RejectsForeignEnclave) {
  TestRng rng(0xf01);
  tls::CertificateAuthority ca(rng), other_ca(rng, "Other");
  sgx::SgxPlatform platform_a(rng), platform_b(rng);
  store::MemoryStore c1, g1, d1, c2, g2, d2;

  core::SegShareEnclave root(platform_a, rng, ca.public_key(),
                             core::Stores{c1, g1, d1});
  // An enclave built for a different CA has a different measurement.
  core::SegShareEnclave impostor(platform_b, rng, other_ca.public_key(),
                                 core::Stores{c2, g2, d2},
                                 core::EnclaveConfig{},
                                 /*auto_bootstrap=*/false);
  const Bytes request = impostor.replication_request();
  EXPECT_THROW(
      root.serve_replication(request, platform_b.attestation_public_key()),
      AuthError);
}

TEST(Replication, RejectsWrongPlatformKey) {
  TestRng rng(0xf02);
  tls::CertificateAuthority ca(rng);
  sgx::SgxPlatform platform_a(rng), platform_b(rng), platform_c(rng);
  store::MemoryStore c1, g1, d1, c2, g2, d2;
  core::SegShareEnclave root(platform_a, rng, ca.public_key(),
                             core::Stores{c1, g1, d1});
  core::SegShareEnclave replica(platform_b, rng, ca.public_key(),
                                core::Stores{c2, g2, d2},
                                core::EnclaveConfig{},
                                /*auto_bootstrap=*/false);
  const Bytes request = replica.replication_request();
  // Root told the wrong platform key for the replica: quote fails.
  EXPECT_THROW(
      root.serve_replication(request, platform_c.attestation_public_key()),
      AuthError);
}

// ---------------------------------------------------- backup/restore §V-G ---

TEST(Backup, RestoreRequiresSignedReset) {
  TestRng rng(0xbac);
  tls::CertificateAuthority ca(rng);
  sgx::SgxPlatform platform(rng);
  store::MemoryStore content, group, dedup;
  core::Stores stores{content, group, dedup};

  core::EnclaveConfig config;
  config.hide_names = false;
  config.rollback_protection = true;
  config.fs_guard = core::FsRollbackGuard::kMonotonicCounter;

  std::map<std::string, Bytes> backup_content, backup_group, backup_dedup;
  {
    core::SegShareEnclave enclave(platform, rng, ca.public_key(), stores,
                                  config);
    core::SegShareServer::provision_certificate(enclave, ca, platform);
    core::SegShareServer server(enclave);
    net::DuplexChannel channel;
    client::UserClient alice(rng, ca.public_key(),
                             client::enroll_user(rng, ca, "alice"));
    server.accept(channel);
    alice.connect(channel.a(), [&] { server.pump(); });
    ASSERT_TRUE(alice.put_file("/keep", to_bytes("backed up")).ok());
    // §V-G: "the cloud provider only has to copy the files on disk".
    backup_content = content.snapshot();
    backup_group = group.snapshot();
    backup_dedup = dedup.snapshot();
    ASSERT_TRUE(alice.put_file("/keep", to_bytes("newer")).ok());
    enclave.destroy();
  }

  // Disaster: restore the old backup, restart the enclave.
  content.restore(backup_content);
  group.restore(backup_group);
  dedup.restore(backup_dedup);
  core::SegShareEnclave enclave2(platform, rng, ca.public_key(), stores,
                                 config);
  EXPECT_TRUE(enclave2.needs_reset());
  net::DuplexChannel probe;
  EXPECT_THROW(enclave2.accept(probe.a()), RollbackError);

  // A reset signed by anyone else is rejected.
  tls::CertificateAuthority mallory(rng, "Mallory");
  EXPECT_THROW(enclave2.apply_signed_reset(
                   core::SegShareEnclave::reset_message_payload(),
                   mallory.sign(core::SegShareEnclave::reset_message_payload())),
               AuthError);

  // The real CA authorises the restored state.
  enclave2.apply_signed_reset(
      core::SegShareEnclave::reset_message_payload(),
      ca.sign(core::SegShareEnclave::reset_message_payload()));
  EXPECT_FALSE(enclave2.needs_reset());

  core::SegShareServer server2(enclave2);
  net::DuplexChannel channel2;
  client::UserClient alice2(rng, ca.public_key(),
                            client::enroll_user(rng, ca, "alice"));
  server2.accept(channel2);
  alice2.connect(channel2.a(), [&] { server2.pump(); });
  EXPECT_EQ(alice2.get_file("/keep").second, to_bytes("backed up"));
}

}  // namespace
}  // namespace seg
