// Demonstration of the paper's attacker model (§III-B) and the rollback
// protections of §V-D/§V-E: a malicious cloud provider tampers with and
// rolls back the untrusted stores; the enclave detects every attempt.
//
// Runs with name hiding disabled so the adversary can aim at specific
// blobs — a *stronger* adversary than the default deployment faces.
//
// Build & run:  ./build/examples/rollback_attack
#include <cstdio>

#include "client/user_client.h"
#include "core/enclave.h"
#include "core/server.h"
#include "crypto/drbg.h"
#include "net/channel.h"
#include "store/untrusted_store.h"

using namespace seg;

// A tampered download fails in one of two shapes: detected before the
// response header (a plain error Response) or mid-stream, after DATA
// frames are on the wire (an END error trailer the client raises as
// DownloadAbortedError). Either way the verdict is the enclave's error
// Response. A flipped chunk (attack 1) is caught by the Protected-FS tag
// check while streaming; the hash-tree verdicts of attacks 2-4 come
// before the response header, because every header and record lookup
// re-validates against the store.
static proto::Response attempt_get(client::UserClient& who,
                                   const std::string& path) {
  try {
    return who.get_file(path).first;
  } catch (const client::DownloadAbortedError& e) {
    return e.response();
  }
}

int main() {
  auto& rng = crypto::system_rng();
  tls::CertificateAuthority ca(rng);
  sgx::SgxPlatform platform(rng);

  // The adversary IS the storage layer.
  store::AdversaryStore content(std::make_unique<store::MemoryStore>());
  store::AdversaryStore group(std::make_unique<store::MemoryStore>());
  store::AdversaryStore dedup(std::make_unique<store::MemoryStore>());

  core::EnclaveConfig config;
  config.hide_names = false;          // let the adversary aim precisely
  config.rollback_protection = true;  // §V-D multiset-hash tree
  config.fs_guard = core::FsRollbackGuard::kProtectedMemory;  // §V-E

  core::SegShareEnclave enclave(platform, rng, ca.public_key(),
                                core::Stores{content, group, dedup}, config);
  core::SegShareServer::provision_certificate(enclave, ca, platform);
  core::SegShareServer server(enclave);

  net::DuplexChannel wire;
  client::UserClient alice(rng, ca.public_key(),
                           client::enroll_user(rng, ca, "alice"));
  server.accept(wire);
  alice.connect(wire.a(), [&] { server.pump(); });

  std::printf("== Attack 1: bit-flip a stored ciphertext ==\n");
  alice.put_file("/contract.txt", to_bytes("pay 100 EUR"));
  content.tamper_flip_bit("f:/contract.txt.c0", 130);
  auto r1 = attempt_get(alice, "/contract.txt");
  std::printf("  read after tamper: %s (%s)\n", proto::status_name(r1.status),
              r1.message.c_str());

  std::printf("\n== Attack 2: roll back one file to an old version ==\n");
  alice.put_file("/policy.txt", to_bytes("v1: fred may NOT sign"));
  // Adversary snapshots every blob of /policy.txt, then lets v2 happen.
  for (const auto& name : content.list())
    if (name.rfind("f:/policy.txt", 0) == 0 || name == "h:/policy.txt")
      content.snapshot_blob(name);
  alice.put_file("/policy.txt", to_bytes("v2: fred MAY sign"));
  for (const auto& name : content.list())
    if (name.rfind("f:/policy.txt", 0) == 0 || name == "h:/policy.txt")
      content.rollback_blob(name);
  // The stale header no longer matches its parent's bucket hash.
  auto r2 = alice.get_file("/policy.txt").first;
  std::printf("  read after rollback: %s (%s)\n",
              proto::status_name(r2.status), r2.message.c_str());

  std::printf("\n== Attack 3: revive a revoked permission via ACL rollback ==\n");
  net::DuplexChannel bob_wire;
  client::UserClient bob(rng, ca.public_key(),
                         client::enroll_user(rng, ca, "bob"));
  server.accept(bob_wire);
  bob.connect(bob_wire.a(), [&] { server.pump(); });

  alice.put_file("/secret.txt", to_bytes("the secret"));
  alice.set_permission("/secret.txt", "user:bob", fs::kPermRead);
  for (const auto& name : content.list())
    if (name.rfind("f:/secret.txt.acl", 0) == 0 || name == "h:/secret.txt.acl")
      content.snapshot_blob(name);
  alice.set_permission("/secret.txt", "user:bob", fs::kPermNone);
  for (const auto& name : content.list())
    if (name.rfind("f:/secret.txt.acl", 0) == 0 || name == "h:/secret.txt.acl")
      content.rollback_blob(name);
  // Same verdict for the ACL: "bucket hash mismatch".
  auto r3 = bob.get_file("/secret.txt").first;
  std::printf("  bob's read with rolled-back ACL: %s (%s)\n",
              proto::status_name(r3.status), r3.message.c_str());

  std::printf("\n== Attack 4: roll back the WHOLE file system ==\n");
  alice.put_file("/ledger.txt", to_bytes("balance: 1000 EUR"));
  content.snapshot_all();
  alice.put_file("/ledger.txt", to_bytes("balance: 0 EUR"));
  content.rollback_all();  // perfectly consistent old state, stale balance
  // Internally consistent, but the root hash no longer matches the
  // §V-E guard in protected memory.
  auto r4 = alice.get_file("/ledger.txt").first;
  std::printf("  read after full rollback: %s (%s)\n",
              proto::status_name(r4.status), r4.message.c_str());

  std::printf("\n== Control: untouched files still work ==\n");
  alice.put_file("/fresh.txt", to_bytes("all good"));
  auto [r5, body] = alice.get_file("/fresh.txt");
  std::printf("  normal read: %s \"%s\"\n", proto::status_name(r5.status),
              to_string(body).c_str());
  return 0;
}
