// The scheduling-decision service: micro-batched inference with hot
// model swap (ROADMAP "batched inference + hot model swap").
//
// Concurrent client threads submit() encoded (queue-state, window)
// requests and get a std::future<Decision> back.  Inference workers
// coalesce queued requests into batches under a max-batch/max-wait
// policy — a batch closes as soon as it holds `max_batch` requests or
// the oldest queued request has waited `max_wait`, whichever comes
// first — and run ONE nn::Network::forward_batch per batch, then pick
// each request's action with its policy's own greedy rule
// (PGPolicy::greedy_index / DQLPolicy::greedy_index).  Because
// forward_batch rows are bit-identical to per-sample forward(), a served
// decision is bit-identical to the in-trainer decision from the same
// snapshot (the determinism oracle, enforced in tests and the bench).
//
// Hot swap: install() flips a shared_ptr under the queue mutex — an
// O(1) exchange, so requests never stall on a swap.  Every worker
// forwards through the snapshot's own agent, shared read-only (a const
// forward_batch keeps its activations per thread), so a swap copies no
// model.  A worker takes the new snapshot at its next batch; in-flight
// batches finish on the old one, which it keeps alive until they do.
// Every Decision carries the snapshot version that produced it.
//
// Telemetry: counters serve.requests / serve.batches / serve.swaps /
// serve.failures, gauge serve.queue_depth, hdr histograms
// serve.request.latency_us (submit → response), serve.batch.size and
// serve.batch.forward_us; spans serve.request → serve.batch →
// serve.forward (cross-thread parented, deterministic ids).  Stats are
// additionally mirrored in always-on atomics so shutdown logic and
// tests work with telemetry disabled.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace dras::serve {

struct BatchPolicy {
  /// Close a batch at this many requests (1 = no coalescing).
  std::size_t max_batch = 32;
  /// ... or when the oldest queued request has waited this long.
  std::chrono::microseconds max_wait{200};
};

struct ServiceOptions {
  BatchPolicy policy;
  /// Inference worker threads, all serving the one installed snapshot.
  std::size_t workers = 1;
};

/// One encoded decision request.  For a PG agent `state` is the encoded
/// W-slot window (StateEncoder::pg_input_size floats) and `valid` the
/// number of jobs actually present; for DQL `state` is `valid`
/// concatenated candidate encodings (valid × dql_input_size floats).
struct DecisionRequest {
  std::vector<float> state;
  std::size_t valid = 0;
};

struct Decision {
  std::size_t job_index = 0;        ///< Selected window slot / candidate.
  std::uint64_t model_version = 0;  ///< Snapshot that produced it.
  std::uint64_t batch_id = 0;       ///< Batch the request rode in.
  std::uint32_t batch_size = 0;
  double latency_us = 0.0;          ///< submit() → response.
};

class DecisionService {
 public:
  explicit DecisionService(ServiceOptions options);
  ~DecisionService();

  DecisionService(const DecisionService&) = delete;
  DecisionService& operator=(const DecisionService&) = delete;

  /// Enqueue one request.  Never blocks on a model swap; blocks only
  /// briefly on the queue mutex.  Requests submitted before the first
  /// install() wait (successfully) until a model lands.  After stop()
  /// the future fails with std::runtime_error.
  std::future<Decision> submit(DecisionRequest request);

  /// Atomically make `snapshot` the serving model (shared_ptr flip under
  /// the queue mutex; nothing is copied).  In-flight batches complete on
  /// the previous snapshot; later batches use it.
  void install(std::shared_ptr<const ModelSnapshot> snapshot);

  [[nodiscard]] std::shared_ptr<const ModelSnapshot> current_snapshot() const;

  /// Drain the queue (serving every pending request if a model is
  /// installed), then join the workers.  Idempotent; the destructor
  /// calls it.
  void stop();

  struct Stats {
    std::uint64_t requests = 0;  ///< Successfully answered.
    std::uint64_t batches = 0;
    std::uint64_t swaps = 0;     ///< install() calls.
    std::uint64_t failures = 0;  ///< Futures completed with an exception.
    std::uint64_t max_batch = 0; ///< Largest batch served.
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Pending {
    DecisionRequest request;
    std::promise<Decision> promise;
    std::chrono::steady_clock::time_point enqueued;
    obs::SpanContext span;  ///< submit-side parent for the batch span.
  };

  void worker_loop(std::size_t worker_index);
  void serve_batch(std::vector<Pending>& batch,
                   const ModelSnapshot& snapshot, std::uint64_t batch_id);

  ServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::shared_ptr<const ModelSnapshot> model_;
  bool stopping_ = false;
  std::uint64_t next_batch_id_ = 0;

  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> max_batch_{0};
};

/// The service's decision for one request on `agent`, outside any
/// batch: validated exactly as submit() validates it (throws
/// std::invalid_argument when `request` does not fit the network), then
/// decided by the same batched head.  Safe to call on an agent other
/// threads are serving from.
[[nodiscard]] std::size_t decide(const core::DrasAgent& agent,
                                 const DecisionRequest& request);

/// The decision the trainer-side greedy policy makes for `request` on
/// `agent` — PGPolicy::greedy_action / DQLPolicy::select_action with
/// exploration off, on the single-sample path.  An independent oracle,
/// not a serving path: the service's batched head must (and does)
/// return bit-identical indices, and tests and the benches assert it
/// through this function.  It does not validate `request`.
[[nodiscard]] std::size_t reference_decision(core::DrasAgent& agent,
                                             const DecisionRequest& request);

/// Synthetic but well-formed request for load generation: encoder-range
/// values in [0,1], `valid` uniform in [1, window] (PG) or [1, 8]
/// candidates (DQL).  Deterministic per `rng` stream.
[[nodiscard]] DecisionRequest make_synthetic_request(
    const core::DrasConfig& config, util::Rng& rng);

}  // namespace dras::serve
