// Simulated Intel SGX platform (paper §II-A).
//
// Reproduces the *semantics* SeGShare depends on — not the silicon:
//
//  * Measurement: an enclave's identity is the SHA-256 of its initial code
//    and data ("MRENCLAVE").
//  * Sealing: per-(platform, measurement) keys derived from a platform
//    master secret; sealed blobs can only be opened by the same enclave
//    identity on the same platform.
//  * Attestation: the platform signs quotes (measurement + report data)
//    with an attestation key whose public half plays the role of Intel's
//    attestation service root.
//  * Monotonic counters: persisted per platform, with the slow-increment
//    and wear-out limitations the paper cites from ROTE [63].
//  * Transition/paging cost accounting: every ecall/ocall and every EPC
//    page-in is counted and charged to a virtual-time meter so benchmarks
//    can report the cost structure (experiment E9, switchless ablation).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/ed25519.h"

namespace seg::sgx {

using Measurement = std::array<std::uint8_t, 32>;

/// Computes the measurement of an enclave's initial code+data image.
Measurement measure(BytesView initial_image);

/// Latency model for SGX-specific costs (defaults follow the literature:
/// synchronous transitions ~8'000 cycles, switchless a fraction of that,
/// EPC paging tens of microseconds, monotonic counter increments ~100 ms).
struct CostModel {
  std::uint64_t ecall_ns = 2'300;            // synchronous enclave entry
  std::uint64_t ocall_ns = 2'300;            // synchronous enclave exit
  std::uint64_t switchless_call_ns = 350;    // task handoff via shared buffer
  std::uint64_t epc_page_in_ns = 40'000;     // page fault + decrypt + verify
  std::uint64_t counter_increment_ns = 100'000'000;  // SGX counters are slow
  std::uint64_t epc_size_bytes = 128ull << 20;       // PRM size (§II-A)
  /// Modeled latency of one untrusted-store operation on a disk-class
  /// backend (NVMe-read order of magnitude). Charged only by the async
  /// store I/O pool for memory-backed stores (DESIGN.md §7.3); real
  /// devices carry their own latency and synchronous deployments keep
  /// their original accounting.
  std::uint64_t store_op_ns = 25'000;
};

/// Aggregate accounting of simulated SGX costs.
struct SgxStats {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t switchless_calls = 0;
  std::uint64_t epc_pages_in = 0;
  std::uint64_t counter_increments = 0;
  std::uint64_t store_ops = 0;   // async store ops with modeled latency
  std::uint64_t charged_ns = 0;  // total modeled latency

  void reset() { *this = SgxStats{}; }
};

/// A quote: proof that an enclave with `measurement` ran on the platform
/// and produced `report_data` (§II-A remote attestation).
struct Quote {
  Measurement measurement{};
  Bytes report_data;
  crypto::Ed25519Signature signature{};

  Bytes signed_payload() const;
};

/// Abstraction over monotonic counters so higher layers can use either
/// the platform's SGX counters or a distributed service (ROTE, §V-E).
class CounterProvider {
 public:
  virtual ~CounterProvider() = default;
  virtual std::uint64_t create() = 0;
  virtual std::uint64_t read(std::uint64_t id) const = 0;
  /// Returns the new value; throws on wear-out / lost quorum.
  virtual std::uint64_t increment(std::uint64_t id) = 0;
};

class SgxPlatform {
 public:
  explicit SgxPlatform(RandomSource& rng, CostModel model = {});

  SgxPlatform(const SgxPlatform&) = delete;
  SgxPlatform& operator=(const SgxPlatform&) = delete;

  // --- attestation ---------------------------------------------------------

  /// Public half of the platform attestation key; stands in for the Intel
  /// attestation service a verifier would contact.
  const crypto::Ed25519PublicKey& attestation_public_key() const {
    return attestation_key_.public_key;
  }

  Quote quote(const Measurement& measurement, BytesView report_data) const;

  static bool verify_quote(const crypto::Ed25519PublicKey& platform_key,
                           const Quote& quote);

  // --- sealing ---------------------------------------------------------

  /// Derives the sealing key for an enclave identity (MRENCLAVE policy):
  /// same enclave on same platform ⇒ same key; anything else ⇒ different.
  Bytes derive_sealing_key(const Measurement& measurement,
                           BytesView label) const;

  // --- monotonic counters ----------------------------------------------

  /// Creates a counter and returns its id. Counters persist for the
  /// platform's lifetime (across enclave restarts).
  std::uint64_t create_monotonic_counter();
  std::uint64_t read_monotonic_counter(std::uint64_t id) const;
  /// Increments and returns the new value; throws EnclaveError once the
  /// wear-out limit is reached (the paper's [63] concern).
  std::uint64_t increment_monotonic_counter(std::uint64_t id);

  static constexpr std::uint64_t kCounterWearLimit = 1'000'000;

  // --- protected memory --------------------------------------------------

  /// Small TEE-protected key-value region, partitioned by enclave
  /// measurement and persisted across enclave restarts — the first §V-E
  /// root-hash protection option ("a protected memory that can only be
  /// accessed by a specific enclave and is persisted across restarts").
  void protected_put(const Measurement& measurement, const std::string& key,
                     BytesView value);
  std::optional<Bytes> protected_get(const Measurement& measurement,
                                     const std::string& key) const;

  // --- cost accounting ---------------------------------------------------

  void charge_ecall(bool switchless);
  void charge_ocall(bool switchless);
  /// Charges one modeled untrusted-store operation (store_op_ns). Called
  /// by StoreIoPool workers completing ops against memory-backed stores,
  /// so the virtual-time meter shows disk-class completion latency.
  void charge_store_op();
  /// Registers `bytes` of enclave heap use; pages beyond the EPC size are
  /// charged paging cost on touch. `bytes_resident` is the caller's
  /// transient working set; long-lived residency registered via
  /// adjust_epc_resident() is added on top.
  void charge_epc_touch(std::uint64_t bytes_resident, std::uint64_t bytes_touched);

  /// Registers long-lived enclave-resident bytes (metadata caches, amap
  /// page caches and tables). Charged against the EPC size on every
  /// subsequent charge_epc_touch().
  void adjust_epc_resident(std::int64_t delta);
  std::uint64_t epc_resident_bytes() const;

  const CostModel& cost_model() const { return model_; }

  /// Unlocked references — QUIESCENT USE ONLY. Contract: the caller must
  /// guarantee no service thread (worker pool, concurrent pump) is
  /// charging while the reference is read or reset — i.e. single-threaded
  /// setup/teardown and benches that read between phases. Anything that
  /// polls while workers run must use stats_snapshot(); the unlocked read
  /// would be a data race (and TSan flags it).
  SgxStats& stats() { return stats_; }
  const SgxStats& stats() const { return stats_; }

  /// Consistent copy of the counters taken under the platform lock. The
  /// charging paths are already serialized by that lock, so concurrent
  /// service threads (multiple TCS slots) account transitions and EPC
  /// residency race-free; this accessor is for readers that poll while
  /// those threads run. The stats() references stay for quiescent use.
  SgxStats stats_snapshot() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  CostModel model_;
  std::array<std::uint8_t, 32> master_secret_;
  crypto::Ed25519KeyPair attestation_key_;
  struct Counter {
    std::uint64_t value = 0;
    std::uint64_t increments = 0;
  };
  std::map<std::uint64_t, Counter> counters_;
  std::map<std::string, Bytes> protected_memory_;
  std::uint64_t next_counter_id_ = 1;
  std::uint64_t epc_resident_bytes_ = 0;
  SgxStats stats_;
  mutable std::mutex mutex_;
};

/// CounterProvider view of a platform's native SGX counters.
class PlatformCounters final : public CounterProvider {
 public:
  explicit PlatformCounters(SgxPlatform& platform) : platform_(platform) {}
  std::uint64_t create() override {
    return platform_.create_monotonic_counter();
  }
  std::uint64_t read(std::uint64_t id) const override {
    return platform_.read_monotonic_counter(id);
  }
  std::uint64_t increment(std::uint64_t id) override {
    return platform_.increment_monotonic_counter(id);
  }

 private:
  SgxPlatform& platform_;
};

}  // namespace seg::sgx
