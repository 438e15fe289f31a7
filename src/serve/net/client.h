// DecisionClient: the consumer half of the serving transport.
//
// decide() always returns a decision or throws a *typed* error — never
// hangs.  The failure ladder, in order:
//
//   1. Timeouts.  Connect and request each have their own budget; a
//      wedged server surfaces as SocketTimeout, not a stuck caller.
//   2. Bounded retries with seeded exponential backoff + jitter.
//      Decision requests are idempotent reads, so a transport fault or
//      a retryable server status (Overloaded / Unavailable /
//      DeadlineExceeded / ShuttingDown) is retried up to `max_attempts`
//      times; the backoff jitter comes from a named deterministic RNG
//      stream (derive_seed(seed, "net-client-backoff")), so a chaos run
//      is reproducible.  BadRequest is deterministic and never retried.
//      Any transport-level fault also closes the socket, so the next
//      attempt reconnects from scratch — this is what carries the
//      client across a server restart and hot model swaps.
//   3. Circuit breaker → degraded mode.  After `breaker_threshold`
//      consecutive decide() failures the breaker opens: for
//      `breaker_cooldown` every call is served locally by the fallback
//      model (serve::decide, the service's own validated head, on the
//      snapshot given to set_fallback) and tagged degraded=true.  A
//      request the service would reject throws RequestRejected here
//      too, as the server's BadRequest does.  After the
//      cooldown one half-open probe goes to the server; success closes
//      the breaker (fail-back), failure re-opens it.  Without a
//      fallback installed, exhausted retries throw TransportError —
//      callers opt into degraded service explicitly.
//
// Every NetDecision carries served|degraded provenance and the model
// version that produced it, so the caller can always tell which failure
// domain answered.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "serve/decision_service.h"
#include "serve/net/wire.h"
#include "util/rng.h"
#include "util/socket.h"

namespace dras::serve::net {

/// Retries exhausted (or breaker open) and no fallback installed.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Server answered BadRequest, or, in degraded mode, the fallback's
/// validation refused the request: deterministic, never retried.
class RequestRejected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ClientOptions {
  util::SocketAddress address;
  std::chrono::milliseconds connect_timeout{250};
  std::chrono::milliseconds request_timeout{1000};
  /// Total attempts per decide() (first try + retries).
  std::size_t max_attempts = 4;
  std::chrono::microseconds backoff_base{500};
  double backoff_multiplier = 2.0;
  std::chrono::microseconds backoff_cap{50'000};
  /// Seed for the jittered-backoff RNG stream (reproducible runs).
  std::uint64_t seed = 1;
  /// Consecutive decide() failures before the breaker opens.
  std::size_t breaker_threshold = 3;
  /// How long the breaker stays open before a half-open probe.
  std::chrono::milliseconds breaker_cooldown{500};
};

struct NetDecision {
  std::size_t job_index = 0;
  std::uint64_t model_version = 0;  ///< Snapshot that answered (either side).
  bool degraded = false;            ///< true = local fallback answered.
  std::uint32_t batch_size = 0;     ///< Server-side batch (0 if degraded).
  std::uint32_t attempts = 1;       ///< Attempts this decision consumed.
  double latency_us = 0.0;          ///< decide() wall time.
};

class DecisionClient {
 public:
  explicit DecisionClient(ClientOptions options);
  ~DecisionClient();

  DecisionClient(const DecisionClient&) = delete;
  DecisionClient& operator=(const DecisionClient&) = delete;

  /// Install the local fallback model for degraded mode.  The client
  /// decides on the snapshot itself (shared read-only, no copy);
  /// `snapshot` may be hot-swapped later by calling again.
  void set_fallback(std::shared_ptr<const ModelSnapshot> snapshot);

  /// One decision, always (see the ladder above).  Thread-safe
  /// (serialized internally — one request in flight per client; run
  /// several clients for concurrency, like the load generator does).
  [[nodiscard]] NetDecision decide(const DecisionRequest& request);

  /// Round-trip liveness probe; false on any failure.  Never counts
  /// toward the breaker.
  [[nodiscard]] bool ping();

  [[nodiscard]] bool breaker_open() const;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t served = 0;          ///< Answered by the server.
    std::uint64_t degraded = 0;        ///< Answered by the fallback.
    std::uint64_t retries = 0;         ///< Extra attempts beyond the first.
    std::uint64_t reconnects = 0;      ///< Socket (re)connections.
    std::uint64_t transport_errors = 0;
    std::uint64_t server_rejects = 0;  ///< Retryable non-Ok statuses seen.
    std::uint64_t breaker_opens = 0;   ///< Failover transitions.
    std::uint64_t breaker_closes = 0;  ///< Fail-back transitions.
  };
  [[nodiscard]] Stats stats() const;

 private:
  void ensure_connected();
  void drop_connection();
  [[nodiscard]] ResponseMsg roundtrip(const RequestMsg& msg,
                                      std::chrono::steady_clock::time_point
                                          deadline);
  [[nodiscard]] std::chrono::microseconds backoff_delay(std::size_t attempt);
  [[nodiscard]] NetDecision fallback_or_throw(
      const DecisionRequest& request,
      std::chrono::steady_clock::time_point started, std::uint32_t attempts,
      const std::string& why);
  void note_success();
  void note_failure();

  ClientOptions options_;

  mutable std::mutex mutex_;
  util::Socket socket_;
  FrameDecoder decoder_;
  util::Rng backoff_rng_;
  std::uint64_t next_request_id_ = 0;

  std::shared_ptr<const ModelSnapshot> fallback_;

  // Breaker state (guarded by mutex_ except the open flag for readers).
  std::size_t consecutive_failures_ = 0;
  std::atomic<bool> breaker_open_{false};
  std::chrono::steady_clock::time_point breaker_reopen_at_{};

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> transport_errors_{0};
  std::atomic<std::uint64_t> server_rejects_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_closes_{0};
};

}  // namespace dras::serve::net
