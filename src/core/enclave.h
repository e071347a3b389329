// The SeGShare enclave (paper Fig. 1, §IV, §V).
//
// Hosts the trusted half of the architecture: the trusted TLS interface,
// the trusted certification component, the request handler, the access
// control component and the trusted file manager. The untrusted half
// (certification forwarding, TCP termination, connection pumping) lives
// in core/server.h.
//
// The CA public key is folded into the enclave's initial image, so the
// measurement — and with it sealing and attestation — binds the enclave
// to its CA exactly as §IV-A requires.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/access_control.h"
#include "core/config.h"
#include "core/trusted_file_manager.h"
#include "net/channel.h"
#include "proto/messages.h"
#include "sgx/enclave.h"
#include "sgx/switchless.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "tls/certificate.h"
#include "tls/handshake.h"
#include "tls/secure_channel.h"

namespace seg::core {

class SegShareEnclave : public sgx::Enclave {
 public:
  /// `auto_bootstrap`: generate SK_r on first start (root enclave, the
  /// common case). Pass false for a replica that will obtain SK_r via the
  /// §V-F replication protocol.
  /// `counters` optionally overrides the monotonic-counter backend for
  /// the §V-E guard (e.g. a rote::RoteCounters quorum client).
  SegShareEnclave(sgx::SgxPlatform& platform, RandomSource& rng,
                  const crypto::Ed25519PublicKey& ca_public_key, Stores stores,
                  EnclaveConfig config = {}, bool auto_bootstrap = true,
                  sgx::CounterProvider* counters = nullptr);
  ~SegShareEnclave() override;

  // ---- setup phase (§IV-A) -------------------------------------------------

  struct CsrWithQuote {
    tls::CertificateSigningRequest csr;
    sgx::Quote quote;  // report data binds the CSR
  };
  /// Generates the temporary server key pair and a CSR, quoted so the CA
  /// can attest this enclave.
  CsrWithQuote make_csr(const std::string& server_name = "segshare-server");

  /// Installs the CA-issued server certificate; seals the key pair and
  /// persists the certificate in untrusted memory.
  void install_server_certificate(const tls::Certificate& certificate);

  bool ready() const { return server_cert_.has_value() && tfm_ != nullptr; }
  const tls::Certificate& server_certificate() const;

  // ---- runtime: trusted TLS interface + request handler (§IV-B) ------------

  /// Accepts a new connection whose transport is the given channel end;
  /// returns a connection id.
  std::uint64_t accept(net::DuplexChannel::End& transport);

  /// Processes everything pending on the connection: handshake flights
  /// and request frames. Each processed message is one (switchless)
  /// transition into the enclave. A connection that sends a CLOSE frame
  /// or fails fatally (bad handshake, record forgery) is dropped here, so
  /// the untrusted server can prune its side by polling has_connection();
  /// fatal errors still propagate to the caller.
  ///
  /// Requests on *different* connections may be serviced by different
  /// threads concurrently (see service_async). Requests on the *same*
  /// connection are serialized: if another thread is already servicing
  /// this connection, the call returns immediately and the pending
  /// traffic is drained by that thread or a later service() call.
  void service(std::uint64_t connection_id);

  /// Like service(), but routed through the enclave's worker pool when
  /// config.service_threads > 1 (each pool worker models one TCS slot
  /// draining the switchless task buffer). With service_threads == 1
  /// there is no pool and the call runs inline; the returned future is
  /// ready on return either way. Exceptions surface from future::get().
  std::future<void> service_async(std::uint64_t connection_id);

  /// True when a service-thread pool exists (config.service_threads > 1),
  /// i.e. service_async() may actually run requests in parallel.
  bool concurrent() const { return service_pool_ != nullptr; }

  void close(std::uint64_t connection_id);

  /// Whether the enclave still tracks this connection (it drops closed
  /// and fatally-errored connections during service()).
  bool has_connection(std::uint64_t connection_id) const;
  std::size_t connection_count() const {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    return connections_.size();
  }

  /// Authenticated identity of the connection (empty until established).
  std::string connection_user(std::uint64_t connection_id) const;

  // ---- replication (§V-F) ---------------------------------------------------

  /// Replica side: ephemeral key + quote, asking a root enclave for SK_r.
  Bytes replication_request();
  /// Root side: verifies the replica's quote (same measurement, trusted
  /// platform) and returns SK_r encrypted under the ECDH key.
  Bytes serve_replication(BytesView request,
                          const crypto::Ed25519PublicKey& peer_platform_key);
  /// Replica side: decrypts and installs SK_r, then bootstraps.
  void install_replicated_key(
      BytesView response, const crypto::Ed25519PublicKey& peer_platform_key);

  // ---- backup restore (§V-G) ------------------------------------------------

  /// Applies a CA-signed reset message: re-validates the restored stores
  /// and re-arms the rollback guards. Throws AuthError on bad signature.
  void apply_signed_reset(BytesView reset_message,
                          const crypto::Ed25519Signature& signature);
  static Bytes reset_message_payload() { return to_bytes("segshare-reset-v1"); }

  /// True when startup freshness validation failed (restored backup or a
  /// whole-store rollback): the enclave refuses connections until a valid
  /// CA reset arrives.
  bool needs_reset() const { return needs_reset_; }

  // ---- introspection for tests and benchmarks ------------------------------

  const EnclaveConfig& config() const { return config_; }
  TrustedFileManager& file_manager();
  AccessControl& access_control();
  /// Metadata-cache counters (config.metadata_cache_bytes budget).
  TrustedFileManager::CacheStats cache_stats() const;

  // ---- observability (DESIGN.md §8) ----------------------------------------

  /// The explicit trust-boundary export: the enclave's own registry plus
  /// registry views of the platform's SGX cost accounting, the metadata
  /// cache and the paged metadata maps, merged with the attached untrusted
  /// registry (if any). Everything in it is an aggregate keyed by a
  /// static metric name — no paths, group names or key material (the
  /// registry rejects such names structurally). Same data the kStats
  /// verb serves to clients.
  telemetry::Snapshot telemetry_snapshot();

  /// Registers the untrusted server's registry so kStats snapshots cover
  /// both sides of the trust boundary. The registry must outlive this
  /// enclave's use of it (the server and enclave share a deployment
  /// lifetime). Untrusted metrics are data the host already knows; the
  /// merge never moves trusted state the other way.
  void attach_untrusted_registry(telemetry::Registry* registry) {
    untrusted_registry_ = registry;
  }

  /// Recently completed request spans, oldest first (ring of
  /// config.telemetry_trace_ring).
  std::vector<telemetry::TraceSpan> recent_traces() const {
    return traces_.recent();
  }

 private:
  struct PutState {
    proto::Request request;
    std::unique_ptr<TrustedFileManager::Upload> upload;  // null if denied
    proto::Status deny_status = proto::Status::kOk;
    std::string deny_message;
    bool is_new_file = false;
    std::uint64_t received = 0;
    // Streamed DATA frames carry no request id, so their spans are not
    // retained individually; their time accumulates here and surfaces on
    // the END span as the data_frames child (trace-ring blind-spot fix).
    std::uint64_t data_frames = 0;
    std::uint64_t data_real_ns = 0;
    std::uint64_t data_sim_ns = 0;
  };

  struct Connection {
    net::DuplexChannel::End* transport = nullptr;
    std::unique_ptr<tls::ServerHandshake> handshake;
    std::unique_ptr<tls::SecureChannel> channel;
    std::string user;
    std::optional<PutState> put;
    // CLOSE frame seen (service thread) or close() called while another
    // thread was servicing; the servicing thread drops the connection at
    // the end of its loop. Atomic: writer and reader can be different
    // threads.
    std::atomic<bool> closed{false};
    // Claimed by a servicing thread (under connections_mutex_); gives
    // per-connection serialization while different connections proceed
    // in parallel.
    bool in_service = false;
  };

  void bootstrap_new();
  void bootstrap_existing(BytesView sealed_bootstrap);
  void persist_bootstrap();
  void init_root_directory();

  /// Removes the connection from the table; the map node (and with it an
  /// abandoned upload, whose destructor does store I/O) is destroyed
  /// outside connections_mutex_.
  void drop_connection(std::uint64_t connection_id);

  void handle_handshake_message(Connection& connection, BytesView message);
  Bytes reassemble(Connection& connection, BytesView first_record);
  void handle_frame(Connection& connection, BytesView message);
  void handle_request(Connection& connection, const proto::Request& request);
  void handle_data(Connection& connection, BytesView payload);
  void handle_end(Connection& connection);

  // Request implementations (Algo 1 + the "straightforward" ones).
  void start_put_file(Connection& connection, const proto::Request& request);
  proto::Response do_mkdir(const std::string& user,
                           const proto::Request& request);
  void do_get(Connection& connection, const proto::Request& request);
  proto::Response do_list(const std::string& user,
                          const proto::Request& request);
  proto::Response do_remove(const std::string& user,
                            const proto::Request& request);
  proto::Response do_move(const std::string& user,
                          const proto::Request& request);
  proto::Response do_set_permission(const std::string& user,
                                    const proto::Request& request);
  proto::Response do_set_inherit(const std::string& user,
                                 const proto::Request& request);
  proto::Response do_add_member(const std::string& user,
                                const proto::Request& request);
  proto::Response do_remove_member(const std::string& user,
                                   const proto::Request& request);
  proto::Response do_add_file_owner(const std::string& user,
                                    const proto::Request& request);
  proto::Response do_group_owner(const std::string& user,
                                 const proto::Request& request, bool add);
  proto::Response do_delete_group(const std::string& user,
                                  const proto::Request& request);
  proto::Response do_stat(const std::string& user,
                          const proto::Request& request);
  proto::Response do_put_by_hash(const std::string& user,
                                 const proto::Request& request);
  proto::Response do_stats(const std::string& user,
                           const proto::Request& request);
  proto::Response do_traces(const std::string& user,
                            const proto::Request& request);

  /// Records a completed request span: ring buffer + latency histograms +
  /// per-segment time breakdown.
  void record_trace(const telemetry::TraceSpan& span);

  void remove_subtree(const std::string& path);
  void move_subtree(const std::string& from, const std::string& to);
  void send_response(Connection& connection, const proto::Response& response);
  /// Ends a streamed GET that failed after its header was sent: an END
  /// frame carrying a serialized error Response (the error trailer —
  /// see the frame grammar in proto/messages.h). Not a response frame,
  /// so it does not touch the one-response-per-op reconciliation counter.
  void send_error_trailer(Connection& connection, proto::Status status,
                          const std::string& message);

  // All enclave randomness flows through one mutex-guarded adapter so
  // concurrent service threads never interleave inside the underlying
  // source; with a single consumer the draw order (and thus every
  // ciphertext) is unchanged.
  LockedRandomSource rng_;
  crypto::Ed25519PublicKey ca_public_key_;
  Stores stores_;
  EnclaveConfig config_;

  Bytes root_key_;  // SK_r; empty until bootstrapped
  std::unique_ptr<TrustedFileManager> tfm_;
  std::unique_ptr<AccessControl> access_;

  std::optional<crypto::Ed25519KeyPair> server_key_;
  std::optional<tls::Certificate> server_cert_;

  std::optional<crypto::X25519KeyPair> replication_ephemeral_;

  mutable std::mutex connections_mutex_;  // guards connections_ + next id
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_connection_id_ = 1;
  bool needs_reset_ = false;
  sgx::CounterProvider* counters_ = nullptr;
  std::string bootstrap_blob_;
  std::string server_cert_blob_;
  std::string server_key_blob_;

  // ---- telemetry state (DESIGN.md §8) --------------------------------------
  // Declared before service_pool_ so pool workers can never outlive the
  // registry and handles they record into.
  telemetry::Registry registry_;
  telemetry::TraceBuffer traces_;
  std::atomic<std::uint64_t> next_request_id_{1};
  telemetry::Registry* untrusted_registry_ = nullptr;
  // Metric handles resolved once in the constructor so the record path
  // never touches the registration mutex. Verb/status arrays are indexed
  // by the wire enum value.
  telemetry::Counter* requests_counter_ = nullptr;
  telemetry::Counter* responses_counter_ = nullptr;
  telemetry::Counter* handshake_counter_ = nullptr;
  telemetry::Counter* bytes_in_counter_ = nullptr;
  telemetry::Counter* bytes_out_counter_ = nullptr;
  std::array<telemetry::Counter*,
             static_cast<std::size_t>(proto::Verb::kTraces) + 1>
      verb_counters_{};
  // Per-verb end-to-end latency over the HDR log-linear buckets, so
  // bench_json/check_bench_regression can gate per-verb p99/p99.9.
  std::array<telemetry::Histogram*,
             static_cast<std::size_t>(proto::Verb::kTraces) + 1>
      verb_real_hists_{};
  std::array<telemetry::Counter*,
             static_cast<std::size_t>(proto::Status::kError) + 1>
      status_counters_{};
  telemetry::Counter* trace_dropped_counter_ = nullptr;
  telemetry::Histogram* request_real_hist_ = nullptr;
  telemetry::Histogram* request_sim_hist_ = nullptr;
  telemetry::Histogram* lock_shared_hist_ = nullptr;
  telemetry::Histogram* lock_exclusive_hist_ = nullptr;
  std::array<telemetry::Histogram*, telemetry::kSegmentCount>
      segment_real_hists_{};
  // Modeled-time totals per segment (transition/paging/guard segments have
  // no wall-clock component worth a histogram).
  std::array<telemetry::Counter*, telemetry::kSegmentCount>
      segment_sim_counters_{};
  // The service-thread pool (config.service_threads TCS slots feeding on
  // the switchless task buffer); null when service_threads <= 1. Declared
  // last so its destructor joins the workers before any state they touch
  // is torn down.
  std::unique_ptr<sgx::SwitchlessQueue> service_pool_;
};

/// Builds the enclave's initial image bytes (identity + hard-coded CA
/// key); exported so the CA / tests can predict the expected measurement.
Bytes enclave_image(const crypto::Ed25519PublicKey& ca_public_key);

}  // namespace seg::core
