// Unit tests of the TrustedFileManager below the request handler:
// streaming uploads/downloads, dedup internals, name hiding, group-store
// records, rollback-tree mechanics and guard state.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/trusted_file_manager.h"
#include "fs/records.h"
#include "sgx/platform.h"
#include "store/untrusted_store.h"

namespace seg::core {
namespace {

class TfmTest : public ::testing::Test {
 protected:
  TfmTest() : rng_(7), platform_(rng_) {}

  std::unique_ptr<TrustedFileManager> make(
      EnclaveConfig config, TrustedFileManager::GuardState guard = {}) {
    return std::make_unique<TrustedFileManager>(
        Stores{content_, group_, dedup_}, Bytes(16, 0x11), rng_, config,
        &platform_, measurement_, guard);
  }

  /// Starts an unrelated deployment on the same platform: empty stores and
  /// a fresh measurement, so no protected-memory root carries over.
  void reset_deployment(const std::string& name) {
    content_.restore({});
    group_.restore({});
    dedup_.restore({});
    measurement_ = sgx::measure(to_bytes(name));
  }

  TestRng rng_;
  sgx::SgxPlatform platform_;
  store::MemoryStore content_, group_, dedup_;
  sgx::Measurement measurement_ = sgx::measure(to_bytes("test-enclave"));
};

constexpr FsRollbackGuard kGuardModes[] = {FsRollbackGuard::kProtectedMemory,
                                           FsRollbackGuard::kMonotonicCounter};

TEST_F(TfmTest, WriteReadRemove) {
  auto tfm = make({});
  tfm->write("/f", to_bytes("hello"));
  EXPECT_TRUE(tfm->exists("/f"));
  EXPECT_EQ(tfm->read("/f"), to_bytes("hello"));
  EXPECT_EQ(tfm->logical_size("/f"), 5u);
  tfm->remove("/f");
  EXPECT_FALSE(tfm->exists("/f"));
}

TEST_F(TfmTest, StreamingUploadMatchesWrite) {
  auto tfm = make({});
  const Bytes content = rng_.bytes(300'000);
  auto upload = tfm->begin_upload("/streamed");
  for (std::size_t pos = 0; pos < content.size(); pos += 7'001) {
    const std::size_t take = std::min<std::size_t>(7'001, content.size() - pos);
    upload->append(BytesView(content.data() + pos, take));
  }
  upload->finish();
  EXPECT_EQ(tfm->read("/streamed"), content);
}

TEST_F(TfmTest, StreamingDownloadChunksInOrder) {
  auto tfm = make({});
  const Bytes content = rng_.bytes(20'000);
  tfm->write("/f", content);
  auto download = tfm->open_download("/f");
  Bytes out;
  for (std::uint64_t i = 0; i < download->chunk_count(); ++i)
    append(out, download->read_chunk(i));
  download->finalize();
  EXPECT_EQ(out, content);
  EXPECT_EQ(download->size(), content.size());
}

TEST_F(TfmTest, AbandonedUploadLeavesNothing) {
  auto tfm = make({});
  {
    auto upload = tfm->begin_upload("/ghost");
    upload->append(to_bytes("partial"));
  }
  EXPECT_FALSE(tfm->exists("/ghost"));
}

TEST_F(TfmTest, MoveObjectPreservesRawContent) {
  auto tfm = make({});
  tfm->write("/a", to_bytes("payload"));
  tfm->move_object("/a", "/b");
  EXPECT_FALSE(tfm->exists("/a"));
  EXPECT_EQ(tfm->read("/b"), to_bytes("payload"));
}

TEST_F(TfmTest, HiddenNamesAreHmacDerived) {
  auto tfm = make({});  // hide_names default on
  tfm->write("/visible", to_bytes("x"));
  for (const auto& blob : content_.list()) {
    EXPECT_EQ(blob.find("visible"), std::string::npos);
  }
  // Same path maps to the same physical name across instances with the
  // same root key: a second manager can read the file.
  auto tfm2 = make({});
  EXPECT_EQ(tfm2->read("/visible"), to_bytes("x"));
}

TEST_F(TfmTest, GroupRecordsRoundtrip) {
  auto tfm = make({});
  fs::GroupList groups;
  const auto gid = groups.create("team");
  tfm->save_group_list(groups);
  EXPECT_EQ(tfm->load_group_list().find("team"), gid);

  fs::MemberList members;
  members.add(gid);
  EXPECT_FALSE(tfm->member_list_exists("alice"));
  tfm->save_member_list("alice", members);
  EXPECT_TRUE(tfm->member_list_exists("alice"));
  EXPECT_TRUE(tfm->load_member_list("alice").is_member(gid));
  EXPECT_EQ(tfm->member_list_users(), std::vector<std::string>{"alice"});
}

TEST_F(TfmTest, GroupStoreIntraSessionRollbackCaught) {
  auto tfm = make({});
  fs::MemberList members;
  members.add(1);
  tfm->save_member_list("bob", members);
  // Adversary snapshot.
  const auto snapshot = group_.snapshot();
  members.add(2);
  tfm->save_member_list("bob", members);
  group_.restore(snapshot);
  EXPECT_THROW(tfm->load_member_list("bob"), RollbackError);
}

// ------------------------------------------------------------- dedup ---

TEST_F(TfmTest, DedupSharesOneCopy) {
  EnclaveConfig config;
  config.deduplication = true;
  auto tfm = make(config);
  const Bytes content = rng_.bytes(100'000);
  for (const char* path : {"/a", "/b", "/c"}) {
    auto upload = tfm->begin_upload(path);
    upload->append(content);
    upload->finish();
  }
  // One dedup copy (+ index); links in the content store are tiny.
  EXPECT_LT(dedup_.total_bytes(), 110'000u);
  EXPECT_EQ(tfm->read("/a"), content);
  EXPECT_EQ(tfm->read("/c"), content);
  EXPECT_EQ(tfm->logical_size("/b"), content.size());

  tfm->remove("/a");
  tfm->remove("/b");
  EXPECT_EQ(tfm->read("/c"), content);  // still referenced
  tfm->remove("/c");
  EXPECT_LT(dedup_.total_bytes(), 5'000u);  // collected
}

TEST_F(TfmTest, OverwriteOfDedupLinkReleasesReference) {
  EnclaveConfig config;
  config.deduplication = true;
  auto tfm = make(config);
  const Bytes content = rng_.bytes(60'000);
  for (const char* path : {"/a", "/b"}) {
    auto upload = tfm->begin_upload(path);
    upload->append(content);
    upload->finish();
  }
  const std::uint64_t shared = tfm->dedup_store_bytes();

  // Overwriting a link via write() must drop its reference; removing the
  // last link then garbage-collects the shared blob. Before the fix the
  // refcount leaked and the blob lived forever.
  tfm->write("/a", to_bytes("replacement"));
  EXPECT_EQ(tfm->read("/a"), to_bytes("replacement"));
  EXPECT_EQ(tfm->read("/b"), content);  // still referenced by /b
  tfm->remove("/b");
  EXPECT_LT(tfm->dedup_store_bytes(), shared / 2);
}

TEST_F(TfmTest, ReuploadOverDedupLinkReleasesOldReference) {
  EnclaveConfig config;
  config.deduplication = true;
  auto tfm = make(config);
  const Bytes v1 = rng_.bytes(60'000);
  auto up1 = tfm->begin_upload("/f");
  up1->append(v1);
  up1->finish();
  const std::uint64_t after_v1 = tfm->dedup_store_bytes();
  auto up2 = tfm->begin_upload("/f");
  up2->append(rng_.bytes(60'000));
  up2->finish();
  // v1's blob had a single reference; the re-upload must collect it
  // rather than stack a second copy on top.
  EXPECT_LE(tfm->dedup_store_bytes(), after_v1 + 5'000);
  tfm->remove("/f");
  EXPECT_LT(tfm->dedup_store_bytes(), 5'000u);
}

TEST_F(TfmTest, LogicalSizeProbeIsBounded) {
  EnclaveConfig config;
  config.deduplication = true;
  auto tfm = make(config);
  const Bytes content = rng_.bytes(200'000);
  auto upload = tfm->begin_upload("/linked");
  upload->append(content);
  upload->finish();
  tfm->write("/direct", content);  // plain multi-chunk object, no link

  // Link case: a handful of gets on the one-chunk link object (meta, tag
  // node, chunk) plus the dedup store's metadata — never the 200 KB body.
  content_.reset_op_counts();
  dedup_.reset_op_counts();
  EXPECT_EQ(tfm->logical_size("/linked"), content.size());
  EXPECT_LE(content_.op_counts().gets + dedup_.op_counts().gets, 6u);

  // Direct case: the object is larger than one chunk, so it cannot be a
  // link — the probe must not stream the body at all.
  content_.reset_op_counts();
  EXPECT_EQ(tfm->logical_size("/direct"), content.size());
  EXPECT_LE(content_.op_counts().gets, 2u);
}

TEST_F(TfmTest, AbandonedUploadOverExistingFileKeepsOldContent) {
  EnclaveConfig config;
  config.deduplication = false;
  auto tfm = make(config);
  tfm->write("/f", to_bytes("old"));
  const std::uint64_t baseline = content_.total_bytes();
  {
    auto upload = tfm->begin_upload("/f");
    upload->append(rng_.bytes(100'000));
    // Abandoned: destructor must discard the staged temp, not the live
    // object (before the fix, non-dedup uploads wrote in place).
  }
  EXPECT_EQ(tfm->read("/f"), to_bytes("old"));
  EXPECT_EQ(content_.total_bytes(), baseline);
}

TEST_F(TfmTest, DedupDownloadStreamsFromDedupStore) {
  EnclaveConfig config;
  config.deduplication = true;
  auto tfm = make(config);
  const Bytes content = rng_.bytes(50'000);
  auto upload = tfm->begin_upload("/f");
  upload->append(content);
  upload->finish();
  auto download = tfm->open_download("/f");
  EXPECT_EQ(download->size(), content.size());
  Bytes out;
  for (std::uint64_t i = 0; i < download->chunk_count(); ++i)
    append(out, download->read_chunk(i));
  download->finalize();
  EXPECT_EQ(out, content);
}

TEST_F(TfmTest, DedupRolledBackBlobRejectedOnRead) {
  EnclaveConfig config;
  config.deduplication = true;
  auto tfm = make(config);
  auto up1 = tfm->begin_upload("/f");
  up1->append(to_bytes("version one"));
  up1->finish();
  const auto old_dedup = dedup_.snapshot();
  tfm->remove("/f");
  auto up2 = tfm->begin_upload("/f");
  up2->append(to_bytes("version two"));
  up2->finish();
  // Adversary swaps the dedup store back wholesale: the surviving link
  // points at hName(v2) but the store only holds v1's blob under v1's
  // name — read must fail, not return stale data.
  dedup_.restore(old_dedup);
  EXPECT_THROW(tfm->read("/f"), Error);
}

// ------------------------------------------------------ rollback tree ---

EnclaveConfig rollback_config() {
  EnclaveConfig config;
  config.hide_names = false;
  config.rollback_protection = true;
  config.fs_guard = FsRollbackGuard::kProtectedMemory;
  return config;
}

TEST_F(TfmTest, TreeMaintainedAcrossWrites) {
  auto tfm = make(rollback_config());
  tfm->write("/", fs::Directory{}.serialize());
  fs::Directory root;
  root.add("/f");
  tfm->write("/f", to_bytes("v1"));
  tfm->write("/", root.serialize());
  EXPECT_EQ(tfm->read("/f"), to_bytes("v1"));
  tfm->write("/f", to_bytes("v2"));
  EXPECT_EQ(tfm->read("/f"), to_bytes("v2"));
  tfm->remove("/f");
  root.remove("/f");
  tfm->write("/", root.serialize());
  EXPECT_EQ(tfm->read("/"), root.serialize());
}

TEST_F(TfmTest, HeaderTamperDetected) {
  auto tfm = make(rollback_config());
  tfm->write("/", fs::Directory{}.serialize());
  fs::Directory root;
  root.add("/f");
  tfm->write("/f", to_bytes("data"));
  tfm->write("/", root.serialize());
  // Flip a bit in the file's hash header.
  auto blob = *content_.get("h:/f");
  blob[10] ^= 1;
  content_.put("h:/f", blob);
  EXPECT_THROW(tfm->read("/f"), Error);
}

TEST_F(TfmTest, MissingHeaderDetected) {
  auto tfm = make(rollback_config());
  tfm->write("/", fs::Directory{}.serialize());
  fs::Directory root;
  root.add("/f");
  tfm->write("/f", to_bytes("data"));
  tfm->write("/", root.serialize());
  content_.remove("h:/f");
  EXPECT_THROW(tfm->read("/f"), RollbackError);
}

TEST_F(TfmTest, GuardStatePersistsCounters) {
  EnclaveConfig config = rollback_config();
  config.fs_guard = FsRollbackGuard::kMonotonicCounter;
  auto tfm = make(config);
  const auto guard = tfm->guard_state();
  ASSERT_TRUE(guard.fs_counter.has_value());
  ASSERT_TRUE(guard.group_counter.has_value());
  // A second manager resuming with the same counters validates cleanly.
  tfm->write("/", fs::Directory{}.serialize());
  auto tfm2 = std::make_unique<TrustedFileManager>(
      Stores{content_, group_, dedup_}, Bytes(16, 0x11), rng_, config,
      &platform_, sgx::measure(to_bytes("test-enclave")), guard);
  EXPECT_NO_THROW(tfm2->startup_validation());
}

TEST_F(TfmTest, CounterGuardRequiresPlatform) {
  EnclaveConfig config;
  config.rollback_protection = true;
  config.fs_guard = FsRollbackGuard::kMonotonicCounter;
  EXPECT_THROW(TrustedFileManager(Stores{content_, group_, dedup_},
                                  Bytes(16, 1), rng_, config, nullptr,
                                  sgx::Measurement{}),
               EnclaveError);
  // Caller-supplied counters do not lift the requirement: the amap roots
  // are guarded in protected memory in every guard mode, so accepting
  // this configuration would leave them unguarded.
  sgx::PlatformCounters counters(platform_);
  EXPECT_THROW(TrustedFileManager(Stores{content_, group_, dedup_},
                                  Bytes(16, 1), rng_, config, nullptr,
                                  sgx::Measurement{}, {}, &counters),
               EnclaveError);
}

TEST_F(TfmTest, RejectsBadRootKeySize) {
  EXPECT_THROW(TrustedFileManager(Stores{content_, group_, dedup_},
                                  Bytes(15, 1), rng_, {}, &platform_,
                                  sgx::Measurement{}),
               CryptoError);
}

// --------------------------------------------- paged metadata (amap) ---

EnclaveConfig paged_dedup_config() {
  EnclaveConfig config;
  config.deduplication = true;
  return config;
}

TEST_F(TfmTest, PagedDedupSharesOneCopyAndCollects) {
  auto tfm = make(paged_dedup_config());
  const Bytes content = rng_.bytes(100'000);
  for (const char* path : {"/a", "/b", "/c"}) {
    auto upload = tfm->begin_upload(path);
    upload->append(content);
    upload->finish();
  }
  // One dedup copy; refcounts now live in amap pages, also in this store.
  EXPECT_LT(dedup_.total_bytes(), 120'000u);
  EXPECT_EQ(tfm->amap_stats().dedup.entries, 1u);  // one "r:" record
  EXPECT_EQ(tfm->read("/a"), content);
  EXPECT_EQ(tfm->read("/c"), content);
  EXPECT_EQ(tfm->dedup_stats().refs, 3u);

  tfm->remove("/a");
  tfm->remove("/b");
  EXPECT_EQ(tfm->read("/c"), content);  // still referenced
  tfm->remove("/c");
  // Last release garbage-collects the blob AND the amap records.
  EXPECT_EQ(tfm->amap_stats().dedup.entries, 0u);
  EXPECT_LT(dedup_.total_bytes(), 20'000u);
}

TEST_F(TfmTest, PagedDedupStateSurvivesRestart) {
  const Bytes content = rng_.bytes(50'000);
  {
    auto tfm = make(paged_dedup_config());
    auto up1 = tfm->begin_upload("/a");
    up1->append(content);
    up1->finish();
    auto up2 = tfm->begin_upload("/b");
    up2->append(content);
    up2->finish();
  }
  // A fresh manager reloads the page table from the dedup store: the
  // second reference is still tracked, so removing one link must not
  // collect the shared blob.
  auto tfm = make(paged_dedup_config());
  tfm->startup_validation();
  EXPECT_EQ(tfm->amap_stats().dedup.entries, 1u);
  tfm->remove("/a");
  EXPECT_EQ(tfm->read("/b"), content);
  tfm->remove("/b");
  EXPECT_EQ(tfm->amap_stats().dedup.entries, 0u);
}

TEST_F(TfmTest, PagedDedupMutationCostIsIndexSizeIndependent) {
  // The O(page) claim: a refcount mutation touches one page chain and the
  // table, never the whole index. Seed many distinct entries, then count
  // dedup-store round trips of one more duplicate upload.
  auto tfm = make(paged_dedup_config());
  const auto upload = [&](const std::string& path, const Bytes& content) {
    auto up = tfm->begin_upload(path);
    up->append(content);
    up->finish();
  };
  const Bytes content = rng_.bytes(9'000);
  upload("/dup0", content);
  ASSERT_EQ(tfm->amap_stats().dedup.entries, 1u);  // seeding worked

  dedup_.reset_op_counts();
  upload("/dup1", content);  // pure refcount bump on existing content
  const auto small = dedup_.op_counts();
  EXPECT_GT(small.puts, 0u);

  // Grow the index 128x, then repeat the identical refcount bump: the
  // store traffic must not grow with it (one page chain + the table; the
  // temp-blob staging cost is a constant on both sides). The legacy
  // single-blob index re-writes every entry here.
  for (int i = 0; i < 128; ++i)
    upload("/seed" + std::to_string(i), rng_.bytes(9'000));
  ASSERT_EQ(tfm->amap_stats().dedup.entries, 129u);
  dedup_.reset_op_counts();
  upload("/dup2", content);
  const auto large = dedup_.op_counts();
  EXPECT_LE(large.puts, small.puts + 2);  // +split slack: still O(page)
  EXPECT_LE(large.gets, small.gets + 2);
}

TEST_F(TfmTest, PagedClientSideDedupProbeAndCommit) {
  EnclaveConfig config = paged_dedup_config();
  config.client_side_dedup = true;
  auto tfm = make(config);
  const Bytes content = rng_.bytes(30'000);
  EXPECT_FALSE(tfm->commit_by_hash("/copy", crypto::Sha256::hash(content)));
  auto upload = tfm->begin_upload("/orig");
  upload->append(content);
  upload->finish();
  // "r:" + "c:" + "b:" records for the one blob.
  EXPECT_EQ(tfm->amap_stats().dedup.entries, 3u);
  EXPECT_TRUE(tfm->commit_by_hash("/copy", crypto::Sha256::hash(content)));
  EXPECT_EQ(tfm->read("/copy"), content);
  tfm->remove("/orig");
  tfm->remove("/copy");
  // Last release follows the back-pointer and collects all three records
  // in O(page), without scanning the client index.
  EXPECT_EQ(tfm->amap_stats().dedup.entries, 0u);
}

TEST_F(TfmTest, PagedDedupRolledBackIndexFailsClosedAtRestart) {
  for (const FsRollbackGuard mode : kGuardModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    reset_deployment("dedup-" + std::to_string(static_cast<int>(mode)));
    EnclaveConfig config = paged_dedup_config();
    config.fs_guard = mode;
    const Bytes v1 = rng_.bytes(20'000);
    TrustedFileManager::GuardState guard;
    {
      auto tfm = make(config);
      guard = tfm->guard_state();
      auto up = tfm->begin_upload("/f");
      up->append(v1);
      up->finish();
    }
    // Honest restart first: the guarded root matches the stored table.
    {
      auto tfm = make(config, guard);
      EXPECT_NO_THROW(tfm->startup_validation());
      EXPECT_EQ(tfm->read("/f"), v1);
    }
    // Adversary snapshots the dedup store, lets the enclave advance the
    // index (guard re-arms with it), then rolls the store back wholesale.
    const auto stale = dedup_.snapshot();
    {
      auto tfm = make(config, guard);
      auto up = tfm->begin_upload("/g");
      up->append(rng_.bytes(20'000));
      up->finish();
    }
    dedup_.restore(stale);
    auto tfm = make(config, guard);
    EXPECT_THROW(tfm->startup_validation(), RollbackError);
  }
}

// ------------------------------------------ paged group membership ---

TEST_F(TfmTest, PagedGroupMembershipRoundtripAndReverseIndex) {
  auto tfm = make({});
  fs::GroupList groups;
  const auto g1 = groups.create("eng");
  const auto g2 = groups.create("ops");
  tfm->save_group_list(groups);
  fs::MemberList alice, bob, carol;
  alice.add(g1);
  alice.add(g2);
  bob.add(g1);
  carol.add(g2);
  tfm->save_member_list("alice", alice);
  tfm->save_member_list("bob", bob);
  tfm->save_member_list("carol", carol);
  EXPECT_EQ(tfm->member_list_users(),
            (std::vector<std::string>{"alice", "bob", "carol"}));
  EXPECT_EQ(tfm->group_member_users(g1),
            (std::vector<std::string>{"alice", "bob"}));
  EXPECT_EQ(tfm->group_member_users(g2),
            (std::vector<std::string>{"alice", "carol"}));
  // A membership change updates the reverse index by diff, not rebuild.
  bob.remove(g1);
  bob.add(g2);
  tfm->save_member_list("bob", bob);
  EXPECT_EQ(tfm->group_member_users(g1), std::vector<std::string>{"alice"});
  EXPECT_EQ(tfm->group_member_users(g2),
            (std::vector<std::string>{"alice", "bob", "carol"}));
  EXPECT_GT(tfm->amap_stats().group.entries, 0u);
}

TEST_F(TfmTest, PagedGroupDeletionScanIsMemberBoundNotStoreBound) {
  auto tfm = make({});
  // 200 users, each only in their own singleton group; 3 users also share
  // group 999.
  for (int i = 0; i < 200; ++i) {
    fs::MemberList members;
    members.add(static_cast<fs::GroupId>(i + 1));
    if (i < 3) members.add(999);
    tfm->save_member_list("user" + std::to_string(i), members);
  }
  const auto before = tfm->amap_stats().group;
  group_.reset_op_counts();
  EXPECT_EQ(tfm->group_member_users(999),
            (std::vector<std::string>{"user0", "user1", "user2"}));
  const auto after = tfm->amap_stats().group;
  // The partitioned prefix scan reads only the "g:999:" chain — a few
  // pages, independent of the 200-user population.
  EXPECT_LE(after.scan_pages - before.scan_pages, 4u);
  EXPECT_LE(group_.op_counts().gets, 8u)
      << "group enumeration must not re-read the whole group store";
}

TEST_F(TfmTest, PagedModeDoesNotMaintainLegacyGroupdir) {
  EnclaveConfig config;
  config.hide_names = false;  // keep group-store names observable
  auto tfm = make(config);
  fs::MemberList members;
  members.add(7);
  for (int i = 0; i < 20; ++i)
    tfm->save_member_list("user" + std::to_string(i), members);
  // The O(users) groupdir record of the retired single-blob format must
  // not exist; enumeration runs off the amap registry.
  for (const auto& name : group_.list())
    EXPECT_EQ(name.find("groupdir"), std::string::npos) << name;
  EXPECT_EQ(tfm->member_list_users().size(), 20u);
  // The single-blob format itself is gone: asking for it is an error.
  config.paged_metadata = false;
  EXPECT_THROW(make(config), EnclaveError);
}

TEST_F(TfmTest, PagedGroupIndexSurvivesRestartAndGuardsRollback) {
  for (const FsRollbackGuard mode : kGuardModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    reset_deployment("group-" + std::to_string(static_cast<int>(mode)));
    EnclaveConfig config;
    config.fs_guard = mode;
    fs::MemberList members;
    members.add(1);
    TrustedFileManager::GuardState guard;
    {
      auto tfm = make(config);
      guard = tfm->guard_state();
      tfm->save_member_list("alice", members);
      tfm->save_member_list("bob", members);
    }
    // Honest restart: the guarded amap root matches the stored index.
    {
      auto tfm = make(config, guard);
      EXPECT_NO_THROW(tfm->startup_validation());
      EXPECT_EQ(tfm->group_member_users(1),
                (std::vector<std::string>{"alice", "bob"}));
    }
    // Deleting the index's manifest while the guard remembers a root must
    // fail closed at the next startup, before any request runs.
    const auto honest = group_.snapshot();
    group_.remove("__amap:group:dir");
    EXPECT_THROW(make(config, guard)->startup_validation(), RollbackError);
    group_.restore(honest);
    // Wholesale rollback: the adversary snapshots the group store, lets
    // the enclave add a member, then restores the snapshot.
    {
      auto tfm = make(config, guard);
      tfm->save_member_list("carol", members);
    }
    group_.restore(honest);
    auto tfm = make(config, guard);
    EXPECT_THROW(tfm->startup_validation(), RollbackError);
  }
}

TEST_F(TfmTest, OverlongMemberNameIsRejectedBeforeAnyStoreWrite) {
  for (const FsRollbackGuard mode : kGuardModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    reset_deployment("long-name-" + std::to_string(static_cast<int>(mode)));
    EnclaveConfig config;
    config.fs_guard = mode;
    fs::MemberList members;
    members.add(7);
    TrustedFileManager::GuardState guard;
    {
      auto tfm = make(config);
      guard = tfm->guard_state();
      tfm->save_member_list("bob", members);
      // "g:7:<name>" cannot fit one amap page: indexing it is impossible,
      // so the whole save must be refused with nothing written.
      const auto before = group_.snapshot();
      EXPECT_THROW(tfm->save_member_list(std::string(5000, 'x'), members),
                   ProtocolError);
      EXPECT_EQ(group_.snapshot(), before);
      EXPECT_EQ(tfm->group_member_users(7), std::vector<std::string>{"bob"});
    }
    auto tfm = make(config, guard);
    EXPECT_NO_THROW(tfm->startup_validation());
    EXPECT_EQ(tfm->member_list_users(), std::vector<std::string>{"bob"});
  }
}

TEST_F(TfmTest, PagedValidationWalkKeepsResidentHeadersBounded) {
  EnclaveConfig config = rollback_config();
  config.metadata_cache_bytes = 8 << 10;  // 4 KiB of headers: ~50 leaves
  config.rollback_buckets = 4;            // big sibling sets per bucket
  auto tfm = make(config);
  tfm->write("/", fs::Directory{}.serialize());
  fs::Directory root;
  for (int i = 0; i < 120; ++i) {
    const std::string path = "/f" + std::to_string(i);
    root.add(path);
    tfm->write(path, to_bytes("x"));
  }
  tfm->write("/", root.serialize());
  tfm->startup_validation();  // restart: every cache dropped
  // Each validated read re-walks its bucket's sibling headers; across all
  // reads and the listing the walk touches every header, more than the
  // budget holds. The byte-budgeted LRU evicts instead of growing.
  const std::uint64_t budget = tfm->cache_stats().headers.budget_bytes;
  ASSERT_EQ(budget, config.metadata_cache_bytes / 2);
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(tfm->read("/f" + std::to_string(i)), to_bytes("x"));
    EXPECT_LE(tfm->cache_stats().headers.resident_bytes, budget);
  }
  EXPECT_EQ(tfm->list("/").size(), 120u);
  const auto headers = tfm->cache_stats().headers;
  EXPECT_LE(headers.resident_bytes, budget);
  EXPECT_GT(headers.evictions, 0u) << "the walk must outgrow the budget";
}

TEST_F(TfmTest, ReadsAfterRestartNeverWriteTheStores) {
  // Lookups after a restart miss every cache. A miss must be served from
  // the authenticated store without writing anything back to it.
  EnclaveConfig config = rollback_config();
  config.metadata_cache_bytes = 64 << 10;
  constexpr int kDirs = 40;
  constexpr int kFilesPerDir = 50;  // many small directories keep the
                                    // O(siblings) walk of each read short
  {
    auto tfm = make(config);
    tfm->write("/", fs::Directory{}.serialize());
    fs::Directory root;
    for (int d = 0; d < kDirs; ++d) {
      const std::string dir = "/d" + std::to_string(d) + "/";
      tfm->write(dir, fs::Directory{}.serialize());
      fs::Directory listing;
      for (int f = 0; f < kFilesPerDir; ++f) {
        const std::string file = dir + "f" + std::to_string(f);
        listing.add(file);
        tfm->write(file, to_bytes(file));
      }
      tfm->write(dir, listing.serialize());
      root.add(dir);
    }
    tfm->write("/", root.serialize());
  }
  auto tfm = make(config);
  tfm->startup_validation();
  for (auto* store : {&content_, &group_, &dedup_}) store->reset_op_counts();
  ASSERT_EQ(tfm->list("/").size(), static_cast<std::size_t>(kDirs));
  for (int d = 0; d < kDirs; ++d) {
    const std::string dir = "/d" + std::to_string(d) + "/";
    ASSERT_EQ(tfm->list(dir).size(), static_cast<std::size_t>(kFilesPerDir));
    for (int f = 0; f < kFilesPerDir; ++f) {
      const std::string file = dir + "f" + std::to_string(f);
      ASSERT_EQ(tfm->read(file), to_bytes(file));
    }
  }
  EXPECT_GT(content_.op_counts().gets, 0u);
  for (auto* store : {&content_, &group_, &dedup_}) {
    EXPECT_EQ(store->op_counts().puts, 0u);
    EXPECT_EQ(store->op_counts().removes, 0u);
    EXPECT_EQ(store->op_counts().renames, 0u);
  }
}

TEST_F(TfmTest, PagedGroupJournalModeCoalescesBarriers) {
  EnclaveConfig config;
  config.amap_journal_bytes = 64 << 10;
  fs::MemberList members;
  members.add(5);
  {
    auto tfm = make(config);
    for (int i = 0; i < 10; ++i)
      tfm->save_member_list("user" + std::to_string(i), members);
    const auto s = tfm->amap_stats().group;
    EXPECT_GT(s.journal_appends, 0u)
        << "membership barriers must group-commit journal records";
  }
  // The journaled mutations replay on restart and remain queryable.
  auto tfm = make(config);
  tfm->startup_validation();
  EXPECT_GT(tfm->amap_stats().group.journal_replayed, 0u);
  EXPECT_EQ(tfm->group_member_users(5).size(), 10u);
}

}  // namespace
}  // namespace seg::core
