#include "serve/decision_service.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "util/format.h"

namespace dras::serve {

namespace {

struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& swaps;
  obs::Counter& failures;
  obs::Gauge& queue_depth;
  obs::HdrHistogram& request_latency_us;
  obs::HdrHistogram& batch_size;
  obs::HdrHistogram& batch_forward_us;

  static ServeMetrics& get() {
    static ServeMetrics metrics = [] {
      auto& registry = obs::Registry::global();
      return ServeMetrics{
          registry.counter("serve.requests"),
          registry.counter("serve.batches"),
          registry.counter("serve.swaps"),
          registry.counter("serve.failures"),
          registry.gauge("serve.queue_depth"),
          registry.hdr("serve.request.latency_us"),
          registry.hdr("serve.batch.size"),
          registry.hdr("serve.batch.forward_us"),
      };
    }();
    return metrics;
  }
};

double micros_since(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Throws std::invalid_argument when `request` does not fit the
/// network `agent` serves.
void validate_request(const core::DrasAgent& agent,
                      const DecisionRequest& request) {
  const nn::NetworkConfig& net = agent.network().config();
  if (request.valid == 0)
    throw std::invalid_argument("decision request has no valid actions");
  if (agent.config().kind == core::AgentKind::PG) {
    if (request.valid > net.outputs)
      throw std::invalid_argument(util::format(
          "decision request has {} valid slots, window is {}", request.valid,
          net.outputs));
    if (request.state.size() != net.input_size())
      throw std::invalid_argument(util::format(
          "PG decision request state has {} floats, expected {}",
          request.state.size(), net.input_size()));
  } else {
    if (request.state.size() != request.valid * net.input_size())
      throw std::invalid_argument(util::format(
          "DQL decision request state has {} floats, expected {}x{}",
          request.state.size(), request.valid, net.input_size()));
  }
}

/// The requests' states back to back: sample-major forward_batch rows.
std::vector<float> pack_states(
    std::span<const DecisionRequest* const> requests) {
  std::vector<float> inputs;
  for (const DecisionRequest* r : requests)
    inputs.insert(inputs.end(), r->state.begin(), r->state.end());
  return inputs;
}

/// The batched head: every request's rows (its window state for PG, one
/// row per candidate for DQL) go through one forward_batch, then each
/// request's outputs go through its policy's greedy rule —
/// PGPolicy::greedy_index or DQLPolicy::greedy_index, the rules the
/// trainer-side greedy paths use.
void decide(core::DrasAgent& agent,
            std::span<const DecisionRequest* const> requests,
            std::span<std::size_t> picks) {
  nn::Network& net = agent.network();
  const std::size_t in = net.config().input_size();
  const std::size_t out = net.config().outputs;
  const std::vector<float> inputs = pack_states(requests);
  const std::size_t rows = inputs.size() / in;
  std::vector<float> outputs(rows * out);
  net.forward_batch(inputs, rows, outputs);
  const bool pg = agent.config().kind == core::AgentKind::PG;
  std::vector<float> probs;
  std::size_t offset = 0;
  for (std::size_t b = 0; b < requests.size(); ++b) {
    const DecisionRequest& request = *requests[b];
    const std::size_t n = request.state.size() / in * out;
    const auto scores = std::span<const float>(outputs).subspan(offset, n);
    picks[b] = pg ? core::PGPolicy::greedy_index(scores, request.valid, probs)
                  : core::DQLPolicy::greedy_index(scores);
    offset += n;
  }
}

}  // namespace

DecisionService::DecisionService(ServiceOptions options)
    : options_(options) {
  if (options_.policy.max_batch == 0)
    throw std::invalid_argument("BatchPolicy.max_batch must be >= 1");
  if (options_.workers == 0)
    throw std::invalid_argument("DecisionService needs >= 1 worker");
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

DecisionService::~DecisionService() { stop(); }

std::future<Decision> DecisionService::submit(DecisionRequest request) {
  obs::Span request_span("serve.request");
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = std::chrono::steady_clock::now();
  pending.span = request_span.context();
  std::future<Decision> future = pending.promise.get_future();
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      // Count before completing: stats() read right after future.get()
      // must already include this request (same order everywhere below).
      failures_.fetch_add(1, std::memory_order_relaxed);
      ServeMetrics::get().failures.add(1);
      pending.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("decision service stopped")));
      return future;
    }
    queue_.push_back(std::move(pending));
    ServeMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

void DecisionService::install(std::shared_ptr<const ModelSnapshot> snapshot) {
  if (!snapshot) throw std::invalid_argument("install(nullptr)");
  // One replica per worker, cloned before the swap: no batch waits on it.
  std::vector<std::unique_ptr<core::DrasAgent>> replicas(options_.workers);
  for (auto& replica : replicas) replica = snapshot->make_replica();
  {
    // The swap is an O(1) exchange under the queue mutex — submitters
    // and batch-closers contend on the same lock for microseconds, never
    // on a model load or copy (both happened before this point).
    std::lock_guard lock(mutex_);
    model_ = std::move(snapshot);
    ++model_generation_;
    spare_replicas_.swap(replicas);  // unclaimed old spares die unlocked
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics::get().swaps.add(1);
  cv_.notify_all();
}

std::shared_ptr<const ModelSnapshot> DecisionService::current_snapshot()
    const {
  std::lock_guard lock(mutex_);
  return model_;
}

void DecisionService::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
}

DecisionService::Stats DecisionService::stats() const {
  return Stats{
      requests_.load(std::memory_order_relaxed),
      batches_.load(std::memory_order_relaxed),
      swaps_.load(std::memory_order_relaxed),
      failures_.load(std::memory_order_relaxed),
      max_batch_.load(std::memory_order_relaxed),
  };
}

void DecisionService::worker_loop(std::size_t /*worker_index*/) {
  // Per-worker model replica: taken from install()'s spares at this
  // worker's first batch after each install() — told apart by generation,
  // as a new snapshot may reuse a freed one's address — freed unlocked.
  std::unique_ptr<core::DrasAgent> replica;
  std::unique_ptr<core::DrasAgent> retired;
  std::uint64_t replica_generation = 0;
  std::vector<Pending> batch;
  for (;;) {
    std::shared_ptr<const ModelSnapshot> snapshot;
    std::uint64_t batch_id = 0;
    std::size_t left_behind = 0;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] {
        return stopping_ || (!queue_.empty() && model_ != nullptr);
      });
      if (queue_.empty() && stopping_) return;
      if (model_ == nullptr) {
        // Stopping with requests that never saw a model: fail them.
        while (!queue_.empty()) {
          failures_.fetch_add(1, std::memory_order_relaxed);
          ServeMetrics::get().failures.add(1);
          queue_.front().promise.set_exception(std::make_exception_ptr(
              std::runtime_error("decision service stopped before a model "
                                 "was installed")));
          queue_.pop_front();
        }
        return;
      }
      // Coalesce: close the batch at max_batch requests or when the
      // oldest request's max_wait expires (immediately when stopping).
      if (queue_.size() < options_.policy.max_batch && !stopping_) {
        const auto deadline =
            queue_.front().enqueued + options_.policy.max_wait;
        cv_.wait_until(lock, deadline, [&] {
          return stopping_ || queue_.size() >= options_.policy.max_batch;
        });
      }
      if (queue_.empty()) continue;  // another worker drained it
      const std::size_t take =
          std::min(queue_.size(), options_.policy.max_batch);
      batch.clear();
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      snapshot = model_;
      if (replica_generation != model_generation_) {
        retired = std::exchange(replica, std::move(spare_replicas_.back()));
        spare_replicas_.pop_back();
        replica_generation = model_generation_;
      }
      batch_id = next_batch_id_++;
      left_behind = queue_.size();
      ServeMetrics::get().queue_depth.set(static_cast<double>(left_behind));
    }
    if (left_behind > 0) cv_.notify_one();
    retired.reset();
    serve_batch(batch, *snapshot, *replica, batch_id);
  }
}

void DecisionService::serve_batch(std::vector<Pending>& batch,
                                  const ModelSnapshot& snapshot,
                                  core::DrasAgent& replica,
                                  std::uint64_t batch_id) {
  ServeMetrics& metrics = ServeMetrics::get();
  obs::Span batch_span(
      "serve.batch", batch.front().span, batch_id,
      {obs::targ("batch_size", static_cast<std::uint64_t>(batch.size())),
       obs::targ("version", snapshot.version())});

  // Validate first: a malformed request fails alone, it cannot poison
  // the batch it rode in with.
  std::vector<const DecisionRequest*> valid_requests;
  std::vector<std::size_t> valid_slots;
  std::vector<std::pair<std::size_t, std::exception_ptr>> rejected;
  valid_requests.reserve(batch.size());
  valid_slots.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    try {
      validate_request(replica, batch[i].request);
      valid_requests.push_back(&batch[i].request);
      valid_slots.push_back(i);
    } catch (const std::exception&) {
      rejected.emplace_back(i, std::current_exception());
    }
  }

  std::vector<std::size_t> picks(valid_requests.size());
  if (!valid_requests.empty()) {
    obs::Span forward_span(
        "serve.forward",
        {obs::targ("rows", static_cast<std::uint64_t>(valid_requests.size()))},
        &metrics.batch_forward_us);
    decide(replica, valid_requests, picks);
  }

  // Count the batch before completing any of its futures, so stats()
  // read right after future.get() already includes it.
  if (!rejected.empty()) {
    failures_.fetch_add(rejected.size(), std::memory_order_relaxed);
    metrics.failures.add(rejected.size());
  }
  metrics.batch_size.observe(static_cast<double>(batch.size()));
  metrics.requests.add(valid_requests.size());
  metrics.batches.add(1);
  requests_.fetch_add(valid_requests.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
  while (seen < batch.size() &&
         !max_batch_.compare_exchange_weak(
             seen, batch.size(), std::memory_order_relaxed)) {
  }

  for (auto& [slot, error] : rejected) batch[slot].promise.set_exception(error);
  for (std::size_t i = 0; i < valid_requests.size(); ++i) {
    Pending& pending = batch[valid_slots[i]];
    Decision decision;
    decision.job_index = picks[i];
    decision.model_version = snapshot.version();
    decision.batch_id = batch_id;
    decision.batch_size = static_cast<std::uint32_t>(batch.size());
    decision.latency_us = micros_since(pending.enqueued);
    metrics.request_latency_us.observe(decision.latency_us);
    pending.promise.set_value(decision);
  }
}

std::size_t reference_decision(core::DrasAgent& agent,
                               const DecisionRequest& request) {
  if (agent.pg() != nullptr)
    return agent.pg()->greedy_action(request.state, request.valid);
  const std::size_t in = agent.network().config().input_size();
  std::vector<std::vector<float>> candidates(request.valid);
  for (std::size_t i = 0; i < request.valid; ++i)
    candidates[i].assign(
        request.state.begin() + static_cast<std::ptrdiff_t>(i * in),
        request.state.begin() + static_cast<std::ptrdiff_t>((i + 1) * in));
  util::Rng rng(0);  // unused: explore=false never draws
  return agent.dql()->select_action(candidates, rng, /*explore=*/false);
}

DecisionRequest make_synthetic_request(const core::DrasConfig& config,
                                       util::Rng& rng) {
  const nn::NetworkConfig net = config.network_config();
  DecisionRequest request;
  if (config.kind == core::AgentKind::PG) {
    request.valid = 1 + static_cast<std::size_t>(
                            rng.uniform_index(config.window));
    request.state.resize(net.input_size());
  } else {
    request.valid = 1 + static_cast<std::size_t>(rng.uniform_index(8));
    request.state.resize(request.valid * net.input_size());
  }
  for (float& v : request.state)
    v = static_cast<float>(rng.uniform(0.0, 1.0));
  return request;
}

}  // namespace dras::serve
