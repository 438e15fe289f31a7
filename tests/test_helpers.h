// Shared fixtures and helpers for the dras test suite.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/job.h"
#include "sim/scheduler.h"

namespace dras::testing {

/// Scheduler driven by a lambda — lets tests act on the SchedulingContext
/// directly (probing state, issuing hand-picked actions).
class LambdaScheduler final : public sim::Scheduler {
 public:
  using Fn = std::function<void(sim::SchedulingContext&)>;
  explicit LambdaScheduler(Fn fn, std::string_view name = "lambda")
      : fn_(std::move(fn)), name_(name) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  void schedule(sim::SchedulingContext& ctx) override { fn_(ctx); }

 private:
  Fn fn_;
  std::string_view name_;
};

/// Build a job with the common fields; estimate defaults to the runtime.
inline sim::Job make_job(sim::JobId id, double submit, int size,
                         double runtime, double estimate = -1.0,
                         int priority = 0) {
  sim::Job job;
  job.id = id;
  job.submit_time = submit;
  job.size = size;
  job.runtime_actual = runtime;
  job.runtime_estimate = estimate > 0.0 ? estimate : runtime;
  job.priority = priority;
  return job;
}

/// RAII default-tracer installation so a failing test cannot leak one.
class DefaultTracerScope {
 public:
  explicit DefaultTracerScope(obs::EventTracer* tracer) {
    obs::set_default_tracer(tracer);
  }
  ~DefaultTracerScope() { obs::set_default_tracer(nullptr); }
};

}  // namespace dras::testing
