// Timing decorator around one of the program's untrusted stores.
//
// The traced run hands the enclave TimedStore wrappers instead of the bare
// MemoryStores, so per-store operation counts, bytes written and busy time
// are measured from outside the program, at the store boundary. The
// untraced run installs no decorator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "store/untrusted_store.h"

namespace segbench {

struct StoreCounts {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t busy_ns = 0;
};

class TimedStore final : public seg::store::UntrustedStore {
 public:
  explicit TimedStore(seg::store::UntrustedStore& inner) : inner_(inner) {}

  void put(const std::string& name, seg::BytesView data) override {
    const Busy busy(*this);
    inner_.put(name, data);
    puts_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
  }
  std::optional<seg::Bytes> get(const std::string& name) const override {
    const Busy busy(*this);
    gets_.fetch_add(1, std::memory_order_relaxed);
    return inner_.get(name);
  }
  bool exists(const std::string& name) const override {
    const Busy busy(*this);
    return inner_.exists(name);
  }
  void remove(const std::string& name) override {
    const Busy busy(*this);
    inner_.remove(name);
  }
  void rename(const std::string& from, const std::string& to) override {
    const Busy busy(*this);
    inner_.rename(from, to);
  }
  std::vector<std::string> list() const override {
    const Busy busy(*this);
    return inner_.list();
  }
  std::uint64_t total_bytes() const override { return inner_.total_bytes(); }
  bool device_backed() const override { return inner_.device_backed(); }

  StoreCounts counts() const {
    StoreCounts c;
    c.gets = gets_.load(std::memory_order_relaxed);
    c.puts = puts_.load(std::memory_order_relaxed);
    c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    c.busy_ns = busy_ns_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  // Adds the wall time of one store call to busy_ns_, also when it throws.
  class Busy {
   public:
    explicit Busy(const TimedStore& store)
        : store_(store), start_(std::chrono::steady_clock::now()) {}
    ~Busy() {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      store_.busy_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                                std::memory_order_relaxed);
    }
    Busy(const Busy&) = delete;
    Busy& operator=(const Busy&) = delete;

   private:
    const TimedStore& store_;
    std::chrono::steady_clock::time_point start_;
  };

  seg::store::UntrustedStore& inner_;
  mutable std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace segbench
