#include "core/enclave.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "fs/path.h"

namespace seg::core {

namespace {

Bytes serialize_quote(const sgx::Quote& quote) {
  Bytes out;
  append(out, quote.measurement);
  put_u32_be(out, static_cast<std::uint32_t>(quote.report_data.size()));
  append(out, quote.report_data);
  append(out, quote.signature);
  return out;
}

sgx::Quote parse_quote(BytesView data, std::size_t& offset) {
  sgx::Quote quote;
  const Bytes m = slice(data, offset, 32);
  std::copy(m.begin(), m.end(), quote.measurement.begin());
  offset += 32;
  const std::uint32_t len = get_u32_be(data, offset);
  offset += 4;
  quote.report_data = slice(data, offset, len);
  offset += len;
  const Bytes sig = slice(data, offset, crypto::kEd25519SignatureSize);
  std::copy(sig.begin(), sig.end(), quote.signature.begin());
  offset += crypto::kEd25519SignatureSize;
  return quote;
}

proto::Response make_status(proto::Status status, std::string message = {}) {
  proto::Response resp;
  resp.status = status;
  resp.message = std::move(message);
  return resp;
}

}  // namespace

Bytes enclave_image(const crypto::Ed25519PublicKey& ca_public_key) {
  // The CA public key is part of the measured initial image (§IV-A:
  // "The CA's public key is hard-coded into the enclave").
  return concat(to_bytes("segshare-enclave-v1:"), ca_public_key);
}

SegShareEnclave::SegShareEnclave(sgx::SgxPlatform& platform, RandomSource& rng,
                                 const crypto::Ed25519PublicKey& ca_public_key,
                                 Stores stores, EnclaveConfig config,
                                 bool auto_bootstrap,
                                 sgx::CounterProvider* counters)
    : sgx::Enclave(platform, enclave_image(ca_public_key)),
      rng_(rng),
      ca_public_key_(ca_public_key),
      stores_(stores),
      config_(config),
      counters_(counters),
      traces_(config.telemetry_trace_ring) {
  // Sealed blobs are platform-bound, so with a shared central data
  // repository (§V-F) each platform's enclave keeps its own bootstrap.
  const std::string platform_tag =
      to_hex(platform.attestation_public_key()).substr(0, 16);
  bootstrap_blob_ = "__segshare_bootstrap_" + platform_tag;
  server_cert_blob_ = "__segshare_server_cert_" + platform_tag;
  server_key_blob_ = "__segshare_server_key_" + platform_tag;
  if (config_.service_threads > 1) {
    // One pool worker per simulated TCS slot; requests are submitted to
    // the switchless task buffer and drained concurrently.
    service_pool_ = std::make_unique<sgx::SwitchlessQueue>(
        platform, config_.service_threads);
  }
  // Resolve every metric handle once, so record paths never touch the
  // registration mutex. Names are static identifiers (verb/status/segment
  // enum names), per the registry's no-request-data rule.
  requests_counter_ = &registry_.counter("enclave.requests");
  responses_counter_ = &registry_.counter("enclave.responses");
  handshake_counter_ = &registry_.counter("enclave.handshake_messages");
  bytes_in_counter_ = &registry_.counter("enclave.bytes_in");
  bytes_out_counter_ = &registry_.counter("enclave.bytes_out");
  for (std::size_t v = 1; v < verb_counters_.size(); ++v) {
    verb_counters_[v] = &registry_.counter(
        std::string("enclave.requests.") +
        proto::verb_name(static_cast<proto::Verb>(v)));
    verb_real_hists_[v] = &registry_.histogram(
        std::string("enclave.verb.") +
        proto::verb_name(static_cast<proto::Verb>(v)) + ".real_ns");
  }
  trace_dropped_counter_ = &registry_.counter("telemetry.trace.dropped");
  for (std::size_t s = 0; s < status_counters_.size(); ++s) {
    status_counters_[s] = &registry_.counter(
        std::string("enclave.responses.") +
        proto::status_name(static_cast<proto::Status>(s)));
  }
  request_real_hist_ = &registry_.histogram("enclave.request_real_ns");
  request_sim_hist_ = &registry_.histogram("enclave.request_sim_ns");
  lock_shared_hist_ = &registry_.histogram("enclave.lock_wait_shared_ns");
  lock_exclusive_hist_ =
      &registry_.histogram("enclave.lock_wait_exclusive_ns");
  for (std::size_t s = 0; s < telemetry::kSegmentCount; ++s) {
    const std::string segment =
        telemetry::segment_name(static_cast<telemetry::Segment>(s));
    segment_real_hists_[s] =
        &registry_.histogram("enclave.segment." + segment + "_ns");
    segment_sim_counters_[s] =
        &registry_.counter("enclave.segment." + segment + "_sim_ns_total");
  }
  if (service_pool_) service_pool_->attach_registry(registry_);
  if (const auto sealed = stores_.content.get(bootstrap_blob_)) {
    bootstrap_existing(*sealed);
  } else if (auto_bootstrap) {
    bootstrap_new();
  }
  // Restore a previously installed server certificate + sealed key.
  if (const auto cert_bytes = stores_.content.get(server_cert_blob_)) {
    const auto sealed_key = stores_.content.get(server_key_blob_);
    if (sealed_key) {
      const Bytes key_material = unseal(*sealed_key, to_bytes("server-key"));
      if (key_material.size() !=
          crypto::kEd25519SeedSize + crypto::kEd25519PublicKeySize)
        throw EnclaveError("bad sealed server key");
      crypto::Ed25519KeyPair pair;
      std::copy(key_material.begin(),
                key_material.begin() + crypto::kEd25519SeedSize,
                pair.seed.begin());
      std::copy(key_material.begin() + crypto::kEd25519SeedSize,
                key_material.end(), pair.public_key.begin());
      server_key_ = pair;
      const tls::Certificate cert = tls::Certificate::parse(*cert_bytes);
      if (!cert.verify(ca_public_key_))
        throw AuthError("persisted server certificate invalid");
      server_cert_ = cert;
    }
  }
}

SegShareEnclave::~SegShareEnclave() = default;

// ------------------------------------------------------------- bootstrap ---

void SegShareEnclave::bootstrap_new() {
  root_key_ = rng_.bytes(16);  // SK_r
  tfm_ = std::make_unique<TrustedFileManager>(
      stores_, root_key_, rng_, config_, &platform(), measurement(),
      TrustedFileManager::GuardState{}, counters_);
  access_ = std::make_unique<AccessControl>(*tfm_);
  init_root_directory();
  persist_bootstrap();
}

void SegShareEnclave::bootstrap_existing(BytesView sealed_bootstrap) {
  const Bytes plain = unseal(sealed_bootstrap, to_bytes("bootstrap"));
  if (plain.size() != 16 + 8 + 8) throw EnclaveError("bad bootstrap blob");
  root_key_ = slice(plain, 0, 16);
  TrustedFileManager::GuardState guard;
  const std::uint64_t fs_counter = get_u64_be(plain, 16);
  const std::uint64_t group_counter = get_u64_be(plain, 24);
  if (fs_counter != 0) guard.fs_counter = fs_counter;
  if (group_counter != 0) guard.group_counter = group_counter;
  tfm_ = std::make_unique<TrustedFileManager>(stores_, root_key_, rng_,
                                              config_, &platform(),
                                              measurement(), guard, counters_);
  access_ = std::make_unique<AccessControl>(*tfm_);
  try {
    tfm_->startup_validation();
  } catch (const RollbackError&) {
    // §V-G: a restored backup legitimately fails the freshness check. The
    // enclave stays up but refuses service until the CA authorises the
    // state via a signed reset message.
    needs_reset_ = true;
  }
}

void SegShareEnclave::persist_bootstrap() {
  Bytes plain = root_key_;
  const auto guard = tfm_->guard_state();
  put_u64_be(plain, guard.fs_counter.value_or(0));
  put_u64_be(plain, guard.group_counter.value_or(0));
  stores_.content.put(bootstrap_blob_,
                      seal(rng_, plain, to_bytes("bootstrap")));
}

void SegShareEnclave::init_root_directory() {
  if (!tfm_->exists("/")) {
    tfm_->write("/", fs::Directory{}.serialize());
    tfm_->write(AccessControl::acl_name("/"), fs::Acl{}.serialize());
  }
}

// ----------------------------------------------------------------- setup ---

SegShareEnclave::CsrWithQuote SegShareEnclave::make_csr(
    const std::string& server_name) {
  enter(config_.switchless);
  server_key_ = crypto::ed25519_generate(rng_);
  CsrWithQuote result;
  result.csr = tls::make_csr(server_name, *server_key_);
  result.quote = generate_quote(result.csr.serialize());
  return result;
}

void SegShareEnclave::install_server_certificate(
    const tls::Certificate& certificate) {
  enter(config_.switchless);
  if (!server_key_) throw ProtocolError("no CSR outstanding");
  if (!certificate.verify(ca_public_key_))
    throw AuthError("server certificate not signed by our CA");
  if (certificate.public_key != server_key_->public_key)
    throw AuthError("server certificate key mismatch");
  if (!certificate.is_server)
    throw AuthError("certificate is not a server certificate");
  server_cert_ = certificate;

  // Persist: certificate in the clear, key pair sealed (§IV-A).
  stores_.content.put(server_cert_blob_, certificate.serialize());
  const Bytes key_material = concat(server_key_->seed, server_key_->public_key);
  stores_.content.put(server_key_blob_,
                      seal(rng_, key_material, to_bytes("server-key")));
}

const tls::Certificate& SegShareEnclave::server_certificate() const {
  if (!server_cert_) throw ProtocolError("no server certificate installed");
  return *server_cert_;
}

// ----------------------------------------------------------- connections ---

std::uint64_t SegShareEnclave::accept(net::DuplexChannel::End& transport) {
  enter(config_.switchless);
  if (needs_reset_)
    throw RollbackError("stores failed freshness check; CA reset required");
  if (!ready()) throw ProtocolError("enclave not ready (setup incomplete)");
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  const std::uint64_t id = next_connection_id_++;
  connections_[id].transport = &transport;
  return id;
}

void SegShareEnclave::close(std::uint64_t connection_id) {
  decltype(connections_)::node_type node;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    const auto it = connections_.find(connection_id);
    if (it == connections_.end()) return;
    if (it->second.in_service) {
      // A service thread owns the connection right now; flag it and let
      // that thread reclaim the slot at the end of its loop.
      it->second.closed = true;
      return;
    }
    node = connections_.extract(it);
  }
  // Node destroyed here, outside the lock (Upload dtor does store I/O).
}

bool SegShareEnclave::has_connection(std::uint64_t connection_id) const {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.contains(connection_id);
}

std::string SegShareEnclave::connection_user(
    std::uint64_t connection_id) const {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  const auto it = connections_.find(connection_id);
  if (it == connections_.end()) throw ProtocolError("unknown connection");
  return it->second.user;
}

void SegShareEnclave::drop_connection(std::uint64_t connection_id) {
  decltype(connections_)::node_type node;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    node = connections_.extract(connection_id);
  }
  // Node destroyed here, outside the lock (Upload dtor does store I/O).
}

void SegShareEnclave::service(std::uint64_t connection_id) {
  Connection* connection = nullptr;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    const auto it = connections_.find(connection_id);
    if (it == connections_.end()) throw ProtocolError("unknown connection");
    if (it->second.in_service) return;  // another thread is draining it
    it->second.in_service = true;
    connection = &it->second;  // map nodes are pointer-stable
  }
  try {
    while (connection->transport->pending() && !connection->closed) {
      // One span per processed message: the scope makes it the thread's
      // active span so the transition charge of enter(), record-layer
      // crypto and everything below attributes to it. handle_frame fills
      // in request_id/verb for frames that are client-visible requests;
      // handshake flights and DATA frames stay id 0 and are not retained.
      telemetry::TraceSpan span;
      {
        const telemetry::SpanScope scope(span);
        enter(config_.switchless);
        const Bytes message = connection->transport->recv();
        if (!connection->channel) {
          handshake_counter_->add();
          handle_handshake_message(*connection, message);
        } else {
          // Reassemble the record-fragmented application message. The
          // first record is already in hand; SecureChannel pulls
          // continuations.
          handle_frame(*connection, reassemble(*connection, message));
        }
      }
      if (span.request_id != 0) {
        record_trace(span);
      } else if (connection->put) {
        // Streamed DATA frames have no request id of their own; fold
        // their time into the in-flight PUT so it reappears on the END
        // span as the data_frames child instead of vanishing.
        connection->put->data_frames += 1;
        connection->put->data_real_ns += span.total_real_ns;
        connection->put->data_sim_ns += span.total_sim_ns;
      }
    }
  } catch (...) {
    // Fatal errors (handshake failures, record forgeries, auth failures)
    // kill the connection: an abandoned PUT's Upload destructor discards
    // the staged temp object. The error still propagates so the caller
    // can log/abort — but the slot is reclaimed either way.
    drop_connection(connection_id);
    throw;
  }
  if (connection->closed) {
    drop_connection(connection_id);
    return;
  }
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  connection->in_service = false;
}

std::future<void> SegShareEnclave::service_async(std::uint64_t connection_id) {
  if (service_pool_) {
    return service_pool_->submit(
        [this, connection_id] { service(connection_id); });
  }
  // No pool: run inline and hand back an already-settled future so the
  // caller has one code path.
  std::promise<void> promise;
  try {
    service(connection_id);
    promise.set_value();
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return promise.get_future();
}

Bytes SegShareEnclave::reassemble(Connection& connection,
                                  BytesView first_record) {
  // One application message = one or more records with a continuation
  // flag (see SecureChannel). We decrypt the first here and delegate the
  // rest to the channel's record layer.
  Bytes message;
  Bytes fragment = connection.channel->records().unprotect(first_record);
  if (fragment.empty()) throw ProtocolError("empty record");
  append(message, BytesView(fragment).subspan(1));
  while (fragment[0] == 1) {
    fragment = connection.channel->records().unprotect(
        connection.transport->recv());
    if (fragment.empty()) throw ProtocolError("empty record");
    append(message, BytesView(fragment).subspan(1));
  }
  return message;
}

void SegShareEnclave::handle_handshake_message(Connection& connection,
                                               BytesView message) {
  if (!connection.handshake) {
    connection.handshake = std::make_unique<tls::ServerHandshake>(
        rng_, ca_public_key_, server_certificate(), server_key_->seed);
    const Bytes reply = connection.handshake->on_client_hello(message);
    exit_call(config_.switchless);
    connection.transport->send(reply);
    return;
  }
  const Bytes reply = connection.handshake->on_client_finished(message);
  exit_call(config_.switchless);
  connection.transport->send(reply);
  const tls::HandshakeResult& result = connection.handshake->result();
  connection.channel = std::make_unique<tls::SecureChannel>(
      *connection.transport, result.keys, /*is_client=*/false);
  connection.user = result.peer_certificate.subject;
  connection.handshake.reset();
  // ensure_user may create the user's default group (a group-store
  // write), so it needs the exclusive file-system lock.
  const auto guard = tfm_->write_guard();
  access_->ensure_user(connection.user);
}

void SegShareEnclave::send_response(Connection& connection,
                                    const proto::Response& response) {
  if (telemetry::TraceSpan* span = telemetry::active_span()) {
    span->status = static_cast<std::uint8_t>(response.status);
    span->has_status = true;
  }
  // One response per client-visible operation — the reconciliation
  // metric a kStats snapshot is checked against.
  responses_counter_->add();
  const auto status_index = static_cast<std::size_t>(response.status);
  if (status_index < status_counters_.size())
    status_counters_[status_index]->add();
  exit_call(config_.switchless);
  connection.channel->send_message(
      proto::frame(proto::FrameType::kResponse, response.serialize()));
}

namespace {

// Verbs that only read file-system state and may therefore run under the
// shared lock, concurrently with each other. Everything else mutates
// (or may mutate) and takes the exclusive lock.
bool is_read_only_verb(proto::Verb verb) {
  switch (verb) {
    case proto::Verb::kGetFile:
    case proto::Verb::kList:
    case proto::Verb::kStat:
    case proto::Verb::kStats:   // reads counters only, never fs state
    case proto::Verb::kTraces:  // reads the trace ring only
      return true;
    default:
      return false;
  }
}

}  // namespace

void SegShareEnclave::handle_frame(Connection& connection, BytesView message) {
  // View parse: `payload` aliases `message` (alive for the whole call),
  // so an inbound DATA frame's bytes reach the staged upload with no
  // intermediate copy.
  const auto [type, payload] = proto::unframe_view(message);
  try {
    switch (type) {
      case proto::FrameType::kRequest: {
        const proto::Request request = proto::Request::parse(payload);
        if (telemetry::TraceSpan* span = telemetry::active_span()) {
          span->request_id =
              next_request_id_.fetch_add(1, std::memory_order_relaxed);
          span->verb = static_cast<std::uint8_t>(request.verb);
          span->context = request.trace;  // zero when the client sent none
        }
        requests_counter_->add();
        const auto verb_index = static_cast<std::size_t>(request.verb);
        if (verb_index < verb_counters_.size() && verb_counters_[verb_index])
          verb_counters_[verb_index]->add();
        // Reader–writer concurrency: GET/LIST/STAT share the file-system
        // lock; mutating verbs (including PUT, which stages a temp
        // object) serialize. The lock spans authorization + execution so
        // an ACL check and the operation it authorizes are atomic.
        if (is_read_only_verb(request.verb)) {
          const std::uint64_t lock_start = telemetry::steady_now_ns();
          const auto guard = tfm_->read_guard();
          const std::uint64_t waited =
              telemetry::steady_now_ns() - lock_start;
          telemetry::span_add(telemetry::Segment::kLockWait, waited, 0);
          lock_shared_hist_->record(waited);
          handle_request(connection, request);
        } else {
          const std::uint64_t lock_start = telemetry::steady_now_ns();
          const auto guard = tfm_->write_guard();
          const std::uint64_t waited =
              telemetry::steady_now_ns() - lock_start;
          telemetry::span_add(telemetry::Segment::kLockWait, waited, 0);
          lock_exclusive_hist_->record(waited);
          handle_request(connection, request);
        }
        return;
      }
      case proto::FrameType::kData:
        // Connection-local staging (appends to this connection's own
        // temp object); no file-system lock needed.
        bytes_in_counter_->add(payload.size());
        handle_data(connection, payload);
        return;
      case proto::FrameType::kEnd: {
        // Commits the staged upload: dedup index, ACL and directory
        // updates — exclusive. The commit is traced as its own span
        // (verb PUT): a client-visible PUT is two request spans, START
        // and END, but only one response.
        if (telemetry::TraceSpan* span = telemetry::active_span()) {
          span->request_id =
              next_request_id_.fetch_add(1, std::memory_order_relaxed);
          span->verb = static_cast<std::uint8_t>(proto::Verb::kPutFile);
          if (connection.put) {
            // Same trace as the START span, and the folded DATA-frame
            // time rides along as a child (overlaps are reported beside
            // the segments, not summed into the remainder arithmetic).
            span->context = connection.put->request.trace;
            span->child(telemetry::ChildKind::kDataFrames) =
                telemetry::ChildSpan{connection.put->data_real_ns,
                                     connection.put->data_sim_ns,
                                     connection.put->data_frames};
          }
        }
        const std::uint64_t lock_start = telemetry::steady_now_ns();
        const auto guard = tfm_->write_guard();
        const std::uint64_t waited = telemetry::steady_now_ns() - lock_start;
        telemetry::span_add(telemetry::Segment::kLockWait, waited, 0);
        lock_exclusive_hist_->record(waited);
        handle_end(connection);
        return;
      }
      case proto::FrameType::kClose:
        // Orderly shutdown: abandon any in-flight PUT (the staged temp
        // object is discarded by Upload's destructor) and mark the
        // connection for removal. No response frame.
        connection.put.reset();
        connection.closed = true;
        return;
      case proto::FrameType::kResponse:
        throw ProtocolError("unexpected response frame from client");
    }
  } catch (const RollbackError& e) {
    connection.put.reset();
    send_response(connection, make_status(proto::Status::kError, e.what()));
  } catch (const IntegrityError& e) {
    connection.put.reset();
    send_response(connection, make_status(proto::Status::kError, e.what()));
  } catch (const StorageError& e) {
    connection.put.reset();
    send_response(connection, make_status(proto::Status::kNotFound, e.what()));
  } catch (const ProtocolError& e) {
    connection.put.reset();
    send_response(connection,
                  make_status(proto::Status::kBadRequest, e.what()));
  }
}

void SegShareEnclave::handle_request(Connection& connection,
                                     const proto::Request& request) {
  const std::string& user = connection.user;
  switch (request.verb) {
    case proto::Verb::kPutFile:
      start_put_file(connection, request);
      return;
    case proto::Verb::kGetFile:
      do_get(connection, request);
      return;
    case proto::Verb::kMkdir:
      send_response(connection, do_mkdir(user, request));
      return;
    case proto::Verb::kList:
      send_response(connection, do_list(user, request));
      return;
    case proto::Verb::kRemove:
      send_response(connection, do_remove(user, request));
      return;
    case proto::Verb::kMove:
      send_response(connection, do_move(user, request));
      return;
    case proto::Verb::kSetPermission:
      send_response(connection, do_set_permission(user, request));
      return;
    case proto::Verb::kSetInherit:
      send_response(connection, do_set_inherit(user, request));
      return;
    case proto::Verb::kAddUserToGroup:
      send_response(connection, do_add_member(user, request));
      return;
    case proto::Verb::kRemoveUserFromGroup:
      send_response(connection, do_remove_member(user, request));
      return;
    case proto::Verb::kAddFileOwner:
      send_response(connection, do_add_file_owner(user, request));
      return;
    case proto::Verb::kAddGroupOwner:
      send_response(connection, do_group_owner(user, request, /*add=*/true));
      return;
    case proto::Verb::kRemoveGroupOwner:
      send_response(connection, do_group_owner(user, request, /*add=*/false));
      return;
    case proto::Verb::kDeleteGroup:
      send_response(connection, do_delete_group(user, request));
      return;
    case proto::Verb::kStat:
      send_response(connection, do_stat(user, request));
      return;
    case proto::Verb::kPutByHash:
      send_response(connection, do_put_by_hash(user, request));
      return;
    case proto::Verb::kStats:
      send_response(connection, do_stats(user, request));
      return;
    case proto::Verb::kTraces:
      send_response(connection, do_traces(user, request));
      return;
  }
  send_response(connection,
                make_status(proto::Status::kBadRequest, "unknown verb"));
}

// -------------------------------------------------------------- put file ---

void SegShareEnclave::start_put_file(Connection& connection,
                                     const proto::Request& request) {
  if (connection.put)
    throw ProtocolError("nested PUT");
  PutState state;
  state.request = request;

  const std::string& path = request.path;
  const std::string& user = connection.user;
  if (!fs::is_valid_path(path) || fs::is_dir_path(path)) {
    state.deny_status = proto::Status::kBadRequest;
    state.deny_message = "invalid content-file path";
  } else {
    const std::string parent = fs::parent(path);
    const bool file_exists = access_->acl_exists(path);
    // Algo 1 put_fC authorization condition, with one correction: the
    // root-directory bypass only applies to *creating* files (taken
    // literally, the paper's predicate would let any user overwrite any
    // existing file stored directly under "/").
    const bool parent_writable =
        tfm_->exists(parent) && !fs::is_root(parent) &&
        access_->auth_file(user, fs::kPermWrite, parent);
    const bool parent_ok =
        file_exists ? parent_writable
                    : (fs::is_root(parent) || parent_writable);
    const bool file_ok =
        file_exists && access_->auth_file(user, fs::kPermWrite, path);
    if (!fs::is_root(parent) && !tfm_->exists(parent)) {
      state.deny_status = proto::Status::kNotFound;
      state.deny_message = "parent directory does not exist";
    } else if (parent_ok || file_ok) {
      state.upload = tfm_->begin_upload(path);
      state.is_new_file = !file_exists;
    } else {
      state.deny_status = proto::Status::kForbidden;
      state.deny_message = "write access denied";
    }
  }
  connection.put = std::move(state);
}

void SegShareEnclave::handle_data(Connection& connection, BytesView payload) {
  if (connection.put) {
    if (connection.put->upload) connection.put->upload->append(payload);
    connection.put->received += payload.size();
    return;
  }
  throw ProtocolError("data frame outside of PUT");
}

void SegShareEnclave::handle_end(Connection& connection) {
  if (!connection.put) throw ProtocolError("end frame outside of PUT");
  PutState state = std::move(*connection.put);
  connection.put.reset();

  if (!state.upload) {
    send_response(connection,
                  make_status(state.deny_status, state.deny_message));
    return;
  }
  if (state.received != state.request.body_size) {
    send_response(connection, make_status(proto::Status::kBadRequest,
                                          "body size mismatch"));
    return;
  }
  state.upload->finish();

  const std::string& path = state.request.path;
  if (state.is_new_file) {
    // updateRel(rFO, rFO ∪ (g_u, f)) — the uploader's default group owns
    // the new file; then register the child with its parent directory.
    const fs::GroupId gu = access_->ensure_user(connection.user);
    fs::Acl acl;
    acl.add_owner(gu);
    access_->save_acl(path, acl);

    const std::string parent = fs::parent(path);
    fs::Directory dir = fs::Directory::parse(tfm_->read(parent));
    dir.add(path);
    tfm_->write(parent, dir.serialize());
  }
  send_response(connection, make_status(proto::Status::kOk));
}

// ------------------------------------------------------------------- get ---

void SegShareEnclave::do_get(Connection& connection,
                             const proto::Request& request) {
  const std::string& path = request.path;
  if (fs::is_dir_path(path)) {
    send_response(connection, do_list(connection.user, request));
    return;
  }
  if (!access_->acl_exists(path)) {
    send_response(connection, make_status(proto::Status::kNotFound,
                                          "no such file"));
    return;
  }
  if (!access_->auth_file(connection.user, fs::kPermRead, path)) {
    send_response(connection, make_status(proto::Status::kForbidden,
                                          "read access denied"));
    return;
  }
  auto download = tfm_->open_download(path);
  proto::Response header;
  header.body_size = download->size();
  send_response(connection, header);
  // Past this point the Response header is on the wire: a failure can no
  // longer surface through handle_frame's catch → error-Response path
  // (the client would see two responses and wait forever for an END).
  // Instead the stream ends with an error trailer (END frame carrying a
  // serialized error Response) that the client raises as a typed error.
  try {
    // Zero-copy streaming: each chunk goes out as {type byte, chunk}
    // spans gathered straight into record buffers — the chunk is never
    // concatenated into a frame.
    const std::uint8_t data_header =
        proto::frame_header(proto::FrameType::kData);
    for (std::uint64_t i = 0; i < download->chunk_count(); ++i) {
      const Bytes chunk = download->read_chunk(i);
      bytes_out_counter_->add(chunk.size());
      exit_call(config_.switchless);
      const BytesView spans[] = {BytesView(&data_header, 1),
                                 BytesView(chunk)};
      connection.channel->send_frames(spans);
    }
    download->finalize();  // throws on rollback before the END frame is sent
  } catch (const StorageError& e) {
    send_error_trailer(connection, proto::Status::kNotFound, e.what());
    return;
  } catch (const ProtocolError& e) {
    send_error_trailer(connection, proto::Status::kBadRequest, e.what());
    return;
  } catch (const std::exception& e) {
    send_error_trailer(connection, proto::Status::kError, e.what());
    return;
  }
  exit_call(config_.switchless);
  connection.channel->send_message(proto::frame(proto::FrameType::kEnd));
}

void SegShareEnclave::send_error_trailer(Connection& connection,
                                         proto::Status status,
                                         const std::string& message) {
  proto::Response trailer;
  trailer.status = status;
  trailer.message = message;
  if (telemetry::TraceSpan* span = telemetry::active_span()) {
    span->status = static_cast<std::uint8_t>(status);
    span->has_status = true;
  }
  const auto status_index = static_cast<std::size_t>(status);
  if (status_index < status_counters_.size())
    status_counters_[status_index]->add();
  exit_call(config_.switchless);
  connection.channel->send_message(
      proto::frame(proto::FrameType::kEnd, trailer.serialize()));
}

// ----------------------------------------------------- namespace requests ---

proto::Response SegShareEnclave::do_mkdir(const std::string& user,
                                          const proto::Request& request) {
  const std::string& path = request.path;
  if (!fs::is_valid_path(path) || !fs::is_dir_path(path) || fs::is_root(path))
    return make_status(proto::Status::kBadRequest, "invalid directory path");
  if (tfm_->exists(path))
    return make_status(proto::Status::kConflict, "directory exists");
  const std::string parent = fs::parent(path);
  if (!tfm_->exists(parent))
    return make_status(proto::Status::kNotFound, "parent does not exist");
  if (!fs::is_root(parent) &&
      !access_->auth_file(user, fs::kPermWrite, parent))
    return make_status(proto::Status::kForbidden, "write access denied");

  const fs::GroupId gu = access_->ensure_user(user);
  fs::Acl acl;
  acl.add_owner(gu);
  access_->save_acl(path, acl);
  tfm_->write(path, fs::Directory{}.serialize());

  fs::Directory parent_dir = fs::Directory::parse(tfm_->read(parent));
  parent_dir.add(path);
  tfm_->write(parent, parent_dir.serialize());
  return make_status(proto::Status::kOk);
}

proto::Response SegShareEnclave::do_list(const std::string& user,
                                         const proto::Request& request) {
  const std::string& path = request.path;
  if (!fs::is_valid_path(path) || !fs::is_dir_path(path))
    return make_status(proto::Status::kBadRequest, "not a directory path");
  if (!tfm_->exists(path))
    return make_status(proto::Status::kNotFound, "no such directory");
  // The root is the shared namespace: any authenticated user may list it
  // (design decision; the paper's model has no root ACL owner).
  if (!fs::is_root(path) &&
      !access_->auth_file(user, fs::kPermRead, path))
    return make_status(proto::Status::kForbidden, "read access denied");
  proto::Response resp;
  resp.listing = tfm_->list(path);
  return resp;
}

void SegShareEnclave::remove_subtree(const std::string& path) {
  if (fs::is_dir_path(path)) {
    const fs::Directory dir = fs::Directory::parse(tfm_->read(path));
    for (const auto& child : dir.children()) remove_subtree(child);
  }
  tfm_->remove(path);
  if (tfm_->exists(AccessControl::acl_name(path)))
    tfm_->remove(AccessControl::acl_name(path));
}

proto::Response SegShareEnclave::do_remove(const std::string& user,
                                           const proto::Request& request) {
  const std::string& path = request.path;
  if (!fs::is_valid_path(path) || fs::is_root(path))
    return make_status(proto::Status::kBadRequest, "invalid path");
  if (!access_->acl_exists(path))
    return make_status(proto::Status::kNotFound, "no such file");
  if (!access_->auth_owner(user, path) &&
      !access_->auth_file(user, fs::kPermWrite, path))
    return make_status(proto::Status::kForbidden, "remove denied");

  remove_subtree(path);
  const std::string parent = fs::parent(path);
  fs::Directory dir = fs::Directory::parse(tfm_->read(parent));
  dir.remove(path);
  tfm_->write(parent, dir.serialize());
  return make_status(proto::Status::kOk);
}

void SegShareEnclave::move_subtree(const std::string& from,
                                   const std::string& to) {
  if (fs::is_dir_path(from)) {
    const fs::Directory dir = fs::Directory::parse(tfm_->read(from));
    fs::Directory rebased;
    for (const auto& child : dir.children())
      rebased.add(fs::rebase(child, from, to));
    tfm_->write(to, rebased.serialize());
    tfm_->move_object(AccessControl::acl_name(from),
                      AccessControl::acl_name(to));
    for (const auto& child : dir.children())
      move_subtree(child, fs::rebase(child, from, to));
    tfm_->remove(from);
    return;
  }
  tfm_->move_object(from, to);
  tfm_->move_object(AccessControl::acl_name(from),
                    AccessControl::acl_name(to));
}

proto::Response SegShareEnclave::do_move(const std::string& user,
                                         const proto::Request& request) {
  const std::string& from = request.path;
  const std::string& to = request.target;
  if (!fs::is_valid_path(from) || !fs::is_valid_path(to) ||
      fs::is_root(from) || fs::is_root(to) ||
      fs::is_dir_path(from) != fs::is_dir_path(to))
    return make_status(proto::Status::kBadRequest, "invalid move");
  if (fs::is_dir_path(from) && fs::is_ancestor(from, to))
    return make_status(proto::Status::kBadRequest, "move into own subtree");
  if (!access_->acl_exists(from))
    return make_status(proto::Status::kNotFound, "no such source");
  if (access_->acl_exists(to) || tfm_->exists(to))
    return make_status(proto::Status::kConflict, "target exists");
  const std::string to_parent = fs::parent(to);
  if (!tfm_->exists(to_parent))
    return make_status(proto::Status::kNotFound, "target parent missing");
  const bool source_ok = access_->auth_owner(user, from) ||
                         access_->auth_file(user, fs::kPermWrite, from);
  const bool target_ok = fs::is_root(to_parent) ||
                         access_->auth_file(user, fs::kPermWrite, to_parent);
  if (!source_ok || !target_ok)
    return make_status(proto::Status::kForbidden, "move denied");

  move_subtree(from, to);
  const std::string from_parent = fs::parent(from);
  fs::Directory src_dir = fs::Directory::parse(tfm_->read(from_parent));
  src_dir.remove(from);
  tfm_->write(from_parent, src_dir.serialize());
  fs::Directory dst_dir = fs::Directory::parse(tfm_->read(to_parent));
  dst_dir.add(to);
  tfm_->write(to_parent, dst_dir.serialize());
  return make_status(proto::Status::kOk);
}

// ---------------------------------------------------- permission requests ---

proto::Response SegShareEnclave::do_set_permission(
    const std::string& user, const proto::Request& request) {
  const std::string& path = request.path;
  if (!access_->acl_exists(path))
    return make_status(proto::Status::kNotFound, "no such file");
  if (!access_->auth_owner(user, path))
    return make_status(proto::Status::kForbidden, "only owners set permissions");
  const auto gid = access_->resolve_permission_group(request.group);
  if (!gid) return make_status(proto::Status::kNotFound, "no such group");
  if (request.perm > (fs::kPermDeny | fs::kPermReadWrite))
    return make_status(proto::Status::kBadRequest, "invalid permission bits");
  fs::Acl acl = access_->load_acl(path);
  acl.set_permission(*gid, request.perm);
  access_->save_acl(path, acl);
  return make_status(proto::Status::kOk);
}

proto::Response SegShareEnclave::do_set_inherit(const std::string& user,
                                                const proto::Request& request) {
  const std::string& path = request.path;
  if (!access_->acl_exists(path))
    return make_status(proto::Status::kNotFound, "no such file");
  if (!access_->auth_owner(user, path))
    return make_status(proto::Status::kForbidden, "only owners set inheritance");
  fs::Acl acl = access_->load_acl(path);
  acl.set_inherit(request.flag);
  access_->save_acl(path, acl);
  return make_status(proto::Status::kOk);
}

proto::Response SegShareEnclave::do_add_file_owner(
    const std::string& user, const proto::Request& request) {
  const std::string& path = request.path;
  if (!access_->acl_exists(path))
    return make_status(proto::Status::kNotFound, "no such file");
  if (!access_->auth_owner(user, path))
    return make_status(proto::Status::kForbidden, "only owners extend ownership");
  const auto gid = access_->resolve_permission_group(request.group);
  if (!gid) return make_status(proto::Status::kNotFound, "no such group");
  fs::Acl acl = access_->load_acl(path);
  acl.add_owner(*gid);
  access_->save_acl(path, acl);
  return make_status(proto::Status::kOk);
}

// --------------------------------------------------------- group requests ---

namespace {
bool is_default_group_name(const std::string& group) {
  return group.rfind("user:", 0) == 0;
}
}  // namespace

proto::Response SegShareEnclave::do_add_member(const std::string& user,
                                               const proto::Request& request) {
  const std::string& group = request.group;
  const std::string& member = request.target;
  if (group.empty() || member.empty() || is_default_group_name(group))
    return make_status(proto::Status::kBadRequest, "invalid group/member");
  // Algo 1 add_u: creating on first use; the creator becomes first member
  // and their default group the owner.
  if (!access_->group_exists(group)) access_->create_group(group, user);
  if (!access_->auth_group(user, group))
    return make_status(proto::Status::kForbidden, "not a group owner");
  access_->add_member(member, *access_->group_id(group));
  return make_status(proto::Status::kOk);
}

proto::Response SegShareEnclave::do_remove_member(
    const std::string& user, const proto::Request& request) {
  const std::string& group = request.group;
  const std::string& member = request.target;
  if (is_default_group_name(group))
    return make_status(proto::Status::kBadRequest,
                       "cannot edit default groups");
  if (!access_->group_exists(group))
    return make_status(proto::Status::kNotFound, "no such group");
  if (!access_->auth_group(user, group))
    return make_status(proto::Status::kForbidden, "not a group owner");
  access_->remove_member(member, *access_->group_id(group));
  return make_status(proto::Status::kOk);
}

proto::Response SegShareEnclave::do_group_owner(const std::string& user,
                                                const proto::Request& request,
                                                bool add) {
  const std::string& group = request.group;    // the owned group
  const std::string& owner = request.target;   // the (new) owner group
  const auto gid = access_->group_id(group);
  if (!gid) return make_status(proto::Status::kNotFound, "no such group");
  if (!access_->auth_group(user, group))
    return make_status(proto::Status::kForbidden, "not a group owner");
  const auto owner_gid = access_->resolve_permission_group(owner);
  if (!owner_gid)
    return make_status(proto::Status::kNotFound, "no such owner group");
  if (add) {
    access_->add_group_owner(*gid, *owner_gid);
  } else {
    access_->remove_group_owner(*gid, *owner_gid);
  }
  return make_status(proto::Status::kOk);
}

proto::Response SegShareEnclave::do_delete_group(
    const std::string& user, const proto::Request& request) {
  const std::string& group = request.group;
  if (is_default_group_name(group))
    return make_status(proto::Status::kBadRequest,
                       "cannot delete default groups");
  const auto gid = access_->group_id(group);
  if (!gid) return make_status(proto::Status::kNotFound, "no such group");
  if (!access_->auth_group(user, group))
    return make_status(proto::Status::kForbidden, "not a group owner");
  access_->delete_group(*gid);
  return make_status(proto::Status::kOk);
}

proto::Response SegShareEnclave::do_stat(const std::string& user,
                                         const proto::Request& request) {
  const std::string& path = request.path;
  if (!fs::is_valid_path(path))
    return make_status(proto::Status::kBadRequest, "invalid path");
  if (!access_->acl_exists(path))
    return make_status(proto::Status::kNotFound, "no such path");
  if (!fs::is_root(path) && !access_->auth_owner(user, path) &&
      !access_->auth_file(user, fs::kPermRead, path))
    return make_status(proto::Status::kForbidden, "access denied");
  proto::Response resp;
  resp.message = fs::is_dir_path(path) ? "directory" : "file";
  if (!fs::is_dir_path(path)) resp.body_size = tfm_->logical_size(path);
  return resp;
}

proto::Response SegShareEnclave::do_put_by_hash(
    const std::string& user, const proto::Request& request) {
  // §V-A client-side alternative: same authorization as put_fC, but the
  // body is replaced by a plaintext hash probe against the dedup store.
  if (!config_.deduplication || !config_.client_side_dedup)
    return make_status(proto::Status::kBadRequest,
                       "client-side dedup disabled");
  const std::string& path = request.path;
  if (!fs::is_valid_path(path) || fs::is_dir_path(path))
    return make_status(proto::Status::kBadRequest, "invalid content path");
  const Bytes hash_bytes = [&] {
    try {
      return from_hex(request.target);
    } catch (const Error&) {
      return Bytes{};
    }
  }();
  if (hash_bytes.size() != crypto::Sha256::kDigestSize)
    return make_status(proto::Status::kBadRequest, "bad content hash");

  const std::string parent = fs::parent(path);
  const bool file_exists = access_->acl_exists(path);
  const bool parent_writable =
      tfm_->exists(parent) && !fs::is_root(parent) &&
      access_->auth_file(user, fs::kPermWrite, parent);
  const bool parent_ok =
      file_exists ? parent_writable : (fs::is_root(parent) || parent_writable);
  const bool file_ok =
      file_exists && access_->auth_file(user, fs::kPermWrite, path);
  if (!fs::is_root(parent) && !tfm_->exists(parent))
    return make_status(proto::Status::kNotFound, "parent directory missing");
  if (!parent_ok && !file_ok)
    return make_status(proto::Status::kForbidden, "write access denied");

  crypto::Sha256::Digest digest;
  std::copy(hash_bytes.begin(), hash_bytes.end(), digest.begin());
  if (!tfm_->commit_by_hash(path, digest))
    return make_status(proto::Status::kNotFound,
                       "content unknown; full upload required");

  if (!file_exists) {
    const fs::GroupId gu = access_->ensure_user(user);
    fs::Acl acl;
    acl.add_owner(gu);
    access_->save_acl(path, acl);
    fs::Directory dir = fs::Directory::parse(tfm_->read(parent));
    dir.add(path);
    tfm_->write(parent, dir.serialize());
  }
  return make_status(proto::Status::kOk);
}

// ----------------------------------------------------------------- stats ---

proto::Response SegShareEnclave::do_stats(const std::string& /*user*/,
                                          const proto::Request& /*request*/) {
  // Any authenticated user may query: the snapshot is aggregate-only by
  // construction (registry name rules), so it reveals nothing about other
  // users' files or groups beyond global load. Built before this span is
  // recorded, so the export's latency histograms exclude the stats
  // request itself.
  proto::Response resp;
  resp.listing = telemetry_snapshot().to_lines();
  return resp;
}

proto::Response SegShareEnclave::do_traces(const std::string& /*user*/,
                                           const proto::Request& /*request*/) {
  // Same trust argument as kStats: spans hold only ids, verbs, statuses
  // and durations (see trace.h), and trace_to_line emits only numeric /
  // fixed-charset tokens. Oldest first, one span per listing line.
  proto::Response resp;
  const auto spans = traces_.recent();
  resp.listing.reserve(spans.size());
  for (const auto& span : spans)
    resp.listing.push_back(telemetry::trace_to_line(span));
  return resp;
}

telemetry::Snapshot SegShareEnclave::telemetry_snapshot() {
  telemetry::Snapshot snap = registry_.snapshot();

  const sgx::SgxStats sgx_stats = platform().stats_snapshot();
  snap.gauges["sgx.ecalls"] = sgx_stats.ecalls;
  snap.gauges["sgx.ocalls"] = sgx_stats.ocalls;
  snap.gauges["sgx.switchless_calls"] = sgx_stats.switchless_calls;
  snap.gauges["sgx.epc_pages_in"] = sgx_stats.epc_pages_in;
  snap.gauges["sgx.counter_increments"] = sgx_stats.counter_increments;
  snap.gauges["sgx.charged_ns"] = sgx_stats.charged_ns;
  snap.gauges["sgx.epc_resident_bytes"] = platform().epc_resident_bytes();

  if (tfm_) {
    const TrustedFileManager::CacheStats cache = tfm_->cache_stats();
    const auto tier = [&snap](const char* name, const CacheCounters& c) {
      const std::string prefix = std::string("cache.") + name;
      snap.gauges[prefix + ".hits"] = c.hits;
      snap.gauges[prefix + ".misses"] = c.misses;
      snap.gauges[prefix + ".evictions"] = c.evictions;
      snap.gauges[prefix + ".resident_bytes"] = c.resident_bytes;
      snap.gauges[prefix + ".budget_bytes"] = c.budget_bytes;
    };
    tier("headers", cache.headers);
    tier("objects", cache.objects);

    const pfs::ContentCache::Stats cc = tfm_->content_cache_stats();
    snap.gauges["pfs.content_cache.hits"] = cc.hits;
    snap.gauges["pfs.content_cache.misses"] = cc.misses;
    snap.gauges["pfs.content_cache.evictions"] = cc.evictions;
    snap.gauges["pfs.content_cache.bytes"] = cc.resident_bytes;
    snap.gauges["pfs.content_cache.budget_bytes"] = cc.budget_bytes;

    const pfs::CryptoPool& pool = tfm_->crypto_pool();
    snap.gauges["pfs.crypto_pool.threads"] = pool.threads();
    snap.gauges["pfs.crypto_pool.tasks"] = pool.tasks_executed();
    snap.gauges["pfs.crypto_pool.queue_depth"] = pool.max_queue_depth();

    const store::StoreIoPool::Stats io = tfm_->store_io_stats();
    snap.gauges["store.async.threads"] = tfm_->store_io().threads();
    snap.gauges["store.async.submitted"] = io.submitted;
    snap.gauges["store.async.completed"] = io.completed;
    snap.gauges["store.async.failed"] = io.failed;
    snap.gauges["store.async.inline_ops"] = io.inline_ops;
    snap.gauges["store.async.max_queue_depth"] = io.max_queue_depth;
    snap.gauges["store.async.max_in_flight"] = io.max_in_flight;
    snap.gauges["store.async.batches"] = io.batches;
    snap.gauges["store.async.completion_wait_ns"] = io.completion_wait_ns;
    snap.gauges["sgx.store_ops"] = sgx_stats.store_ops;

    const TrustedFileManager::DedupStats dedup = tfm_->dedup_stats();
    snap.gauges["tfm.dedup.hits"] = dedup.hits;
    snap.gauges["tfm.dedup.stores"] = dedup.stores;
    snap.gauges["tfm.dedup.releases"] = dedup.releases;
    snap.gauges["tfm.dedup.refs"] = dedup.refs;
    snap.gauges["tfm.dedup.blobs"] = dedup.blobs;

    // Out-of-EPC paged metadata (DESIGN.md §9). Two instances: the
    // authoritative dedup and group maps (the dedup tier exports zeros
    // without deduplication). Names are fixed strings — no key material
    // or logical names can leak here.
    const TrustedFileManager::AmapStats am = tfm_->amap_stats();
    const auto amap_tier = [&snap](const char* name,
                                   const amap::AuthenticatedPageMap::Stats& s) {
      const std::string prefix = std::string("amap.") + name;
      snap.gauges[prefix + ".entries"] = s.entries;
      snap.gauges[prefix + ".pages"] = s.pages;
      snap.gauges[prefix + ".splits"] = s.splits;
      snap.gauges[prefix + ".page_hits"] = s.page_hits;
      snap.gauges[prefix + ".page_misses"] = s.page_misses;
      snap.gauges[prefix + ".page_evictions"] = s.page_evictions;
      snap.gauges[prefix + ".dirty_pages"] = s.dirty_pages;
      snap.gauges[prefix + ".writeback_pages"] = s.writeback_pages;
      snap.gauges[prefix + ".writeback_batches"] = s.writeback_batches;
      snap.gauges[prefix + ".resident_bytes"] = s.cache_resident_bytes;
      snap.gauges[prefix + ".budget_bytes"] = s.cache_budget_bytes;
      snap.gauges[prefix + ".table_bytes"] = s.table_bytes;
      snap.gauges[prefix + ".scans"] = s.scans;
      snap.gauges[prefix + ".scan_pages"] = s.scan_pages;
      snap.gauges[prefix + ".journal.records"] = s.journal_records;
      snap.gauges[prefix + ".journal.bytes"] = s.journal_bytes;
      snap.gauges[prefix + ".journal.appends"] = s.journal_appends;
      snap.gauges[prefix + ".journal.replayed"] = s.journal_replayed;
      snap.gauges[prefix + ".journal.checkpoints"] = s.checkpoints;
      snap.gauges[prefix + ".compaction.runs"] = s.compactions;
      snap.gauges[prefix + ".compaction.reclaimed_pages"] =
          s.compaction_reclaimed_pages;
    };
    amap_tier("dedup", am.dedup);
    amap_tier("group", am.group);
    // Aggregates across the tiers, for alerting without per-tier queries.
    snap.gauges["amap.journal.appends"] =
        am.dedup.journal_appends + am.group.journal_appends;
    snap.gauges["amap.journal.bytes"] =
        am.dedup.journal_bytes + am.group.journal_bytes;
    snap.gauges["amap.journal.checkpoints"] =
        am.dedup.checkpoints + am.group.checkpoints;
    snap.gauges["amap.compaction.runs"] =
        am.dedup.compactions + am.group.compactions;
    snap.gauges["amap.compaction.reclaimed_pages"] =
        am.dedup.compaction_reclaimed_pages +
        am.group.compaction_reclaimed_pages;
  }

  // Wire-path copy meters (process-wide across all secure channels):
  // copies-per-payload-byte = (gather + sealed) / payload ≤ 2 on the
  // zero-copy send path.
  const tls::WireStats& wire = tls::wire_stats();
  snap.gauges["net.wire.messages"] =
      wire.messages.load(std::memory_order_relaxed);
  snap.gauges["net.wire.records"] =
      wire.records.load(std::memory_order_relaxed);
  snap.gauges["net.wire.payload_bytes"] =
      wire.payload_bytes.load(std::memory_order_relaxed);
  snap.gauges["net.wire.gather_bytes"] =
      wire.gather_bytes.load(std::memory_order_relaxed);
  snap.gauges["net.wire.sealed_bytes"] =
      wire.sealed_bytes.load(std::memory_order_relaxed);

  snap.gauges["enclave.connections"] = connection_count();
  snap.gauges["enclave.traces_recorded"] = traces_.total_recorded();
  if (service_pool_) {
    snap.gauges["sgx.switchless.tasks_executed"] =
        service_pool_->tasks_executed();
  }

  // The untrusted side last: its counters are data the host already
  // knows; nothing trusted flows the other way.
  if (untrusted_registry_ != nullptr) snap.merge(untrusted_registry_->snapshot());
  return snap;
}

void SegShareEnclave::record_trace(const telemetry::TraceSpan& span) {
  if (traces_.push(span)) trace_dropped_counter_->add();
  request_real_hist_->record(span.total_real_ns);
  request_sim_hist_->record(span.total_sim_ns);
  const auto verb_index = static_cast<std::size_t>(span.verb);
  if (verb_index < verb_real_hists_.size() && verb_real_hists_[verb_index])
    verb_real_hists_[verb_index]->record(span.total_real_ns);
  for (std::size_t s = 0; s < telemetry::kSegmentCount; ++s) {
    if (span.real_ns[s] != 0) segment_real_hists_[s]->record(span.real_ns[s]);
    if (span.sim_ns[s] != 0) segment_sim_counters_[s]->add(span.sim_ns[s]);
  }
}

// ------------------------------------------------------------ replication ---

Bytes SegShareEnclave::replication_request() {
  enter(config_.switchless);
  replication_ephemeral_ = crypto::x25519_generate(rng_);
  const sgx::Quote quote =
      generate_quote(replication_ephemeral_->public_key);
  Bytes out = to_bytes("repl-req:");
  append(out, replication_ephemeral_->public_key);
  append(out, serialize_quote(quote));
  return out;
}

Bytes SegShareEnclave::serve_replication(
    BytesView request, const crypto::Ed25519PublicKey& peer_platform_key) {
  enter(config_.switchless);
  if (root_key_.empty()) throw ProtocolError("not a root enclave");
  const Bytes magic = to_bytes("repl-req:");
  if (request.size() < magic.size() ||
      !std::equal(magic.begin(), magic.end(), request.begin()))
    throw ProtocolError("bad replication request");
  std::size_t offset = magic.size();
  crypto::X25519Key peer_pub;
  const Bytes pub = slice(request, offset, 32);
  std::copy(pub.begin(), pub.end(), peer_pub.begin());
  offset += 32;
  const sgx::Quote quote = parse_quote(request, offset);

  // Mutual attestation (§V-F): same measurement ⇒ compiled for the same
  // hard-coded CA; quote must come from a trusted platform and bind the
  // ephemeral key.
  if (!sgx::SgxPlatform::verify_quote(peer_platform_key, quote))
    throw AuthError("replication: invalid quote");
  if (quote.measurement != measurement())
    throw AuthError("replication: measurement mismatch");
  if (!constant_time_equal(quote.report_data, peer_pub))
    throw AuthError("replication: quote does not bind key");

  const auto ours = crypto::x25519_generate(rng_);
  const auto shared = crypto::x25519_shared(ours.private_key, peer_pub);
  const Bytes key = crypto::hkdf({}, shared, to_bytes("segshare-replication"),
                                 16);
  const Bytes ciphertext = crypto::pae_encrypt(key, rng_, root_key_);

  const Bytes binding = concat(ours.public_key,
                               crypto::Sha256::hash(ciphertext));
  const sgx::Quote reply_quote = generate_quote(binding);

  Bytes out = to_bytes("repl-resp:");
  append(out, ours.public_key);
  append(out, serialize_quote(reply_quote));
  put_u32_be(out, static_cast<std::uint32_t>(ciphertext.size()));
  append(out, ciphertext);
  return out;
}

void SegShareEnclave::install_replicated_key(
    BytesView response, const crypto::Ed25519PublicKey& peer_platform_key) {
  enter(config_.switchless);
  if (!replication_ephemeral_)
    throw ProtocolError("no replication request outstanding");
  const Bytes magic = to_bytes("repl-resp:");
  if (response.size() < magic.size() ||
      !std::equal(magic.begin(), magic.end(), response.begin()))
    throw ProtocolError("bad replication response");
  std::size_t offset = magic.size();
  crypto::X25519Key peer_pub;
  const Bytes pub = slice(response, offset, 32);
  std::copy(pub.begin(), pub.end(), peer_pub.begin());
  offset += 32;
  const sgx::Quote quote = parse_quote(response, offset);
  const std::uint32_t ct_len = get_u32_be(response, offset);
  offset += 4;
  const Bytes ciphertext = slice(response, offset, ct_len);

  if (!sgx::SgxPlatform::verify_quote(peer_platform_key, quote))
    throw AuthError("replication: invalid root quote");
  if (quote.measurement != measurement())
    throw AuthError("replication: root measurement mismatch");
  const Bytes binding = concat(peer_pub, crypto::Sha256::hash(ciphertext));
  if (!constant_time_equal(quote.report_data, binding))
    throw AuthError("replication: root quote does not bind payload");

  const auto shared =
      crypto::x25519_shared(replication_ephemeral_->private_key, peer_pub);
  const Bytes key = crypto::hkdf({}, shared, to_bytes("segshare-replication"),
                                 16);
  root_key_ = crypto::pae_decrypt(key, ciphertext);
  replication_ephemeral_.reset();

  tfm_ = std::make_unique<TrustedFileManager>(
      stores_, root_key_, rng_, config_, &platform(), measurement(),
      TrustedFileManager::GuardState{}, counters_);
  access_ = std::make_unique<AccessControl>(*tfm_);
  // The replica runs on its own platform: adopt the (shared or restored)
  // state and arm this platform's guards. Non-local guards are out of
  // scope, as in the paper.
  tfm_->accept_restored_state();
  init_root_directory();
  persist_bootstrap();
}

// ---------------------------------------------------------------- backup ---

void SegShareEnclave::apply_signed_reset(
    BytesView reset_message, const crypto::Ed25519Signature& signature) {
  enter(config_.switchless);
  if (!constant_time_equal(reset_message, reset_message_payload()))
    throw AuthError("unknown reset message");
  if (!crypto::ed25519_verify(ca_public_key_, reset_message, signature))
    throw AuthError("reset message not signed by CA");
  tfm_->accept_restored_state();
  needs_reset_ = false;
}

// ----------------------------------------------------------- introspection ---

TrustedFileManager& SegShareEnclave::file_manager() {
  if (!tfm_) throw ProtocolError("enclave has no root key yet");
  return *tfm_;
}

AccessControl& SegShareEnclave::access_control() {
  if (!access_) throw ProtocolError("enclave has no root key yet");
  return *access_;
}

TrustedFileManager::CacheStats SegShareEnclave::cache_stats() const {
  if (!tfm_) throw ProtocolError("enclave has no root key yet");
  return tfm_->cache_stats();
}

}  // namespace seg::core
