// Forwarding Scheduler that times every schedule() call of the policy it
// wraps, from outside the simulator.  Optional hooks run on the live
// scheduling context before and after the forwarded call (probes).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/scheduler.h"

namespace perfbench {

class TimedPolicy final : public dras::sim::Scheduler {
 public:
  using Hook = std::function<void(dras::sim::SchedulingContext&)>;

  /// `span_name` names the recorded span: the layer of the wrapped policy.
  TimedPolicy(dras::sim::Scheduler& inner, std::string span_name)
      : inner_(inner), span_name_(std::move(span_name)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void begin_episode() override { inner_.begin_episode(); }
  void end_episode() override { inner_.end_episode(); }

  void schedule(dras::sim::SchedulingContext& ctx) override {
    if (before) before(ctx);
    const std::int64_t start = now_ns();
    inner_.schedule(ctx);
    const std::int64_t end = now_ns();
    seconds.push_back(static_cast<double>(end - start) * 1e-9);
    if (recorder != nullptr)
      recorder->add(span_name_, start, end, parent, seconds.size() - 1);
    if (after) after(ctx);
  }

  /// Wall seconds of each forwarded schedule() call, in call order.
  std::vector<double> seconds;
  /// When set, each call is also recorded as a span under `parent`.
  Recorder* recorder = nullptr;
  std::int64_t parent = -1;
  Hook before;
  Hook after;

 private:
  dras::sim::Scheduler& inner_;
  std::string span_name_;
};

}  // namespace perfbench
