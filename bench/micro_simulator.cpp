// Micro-benchmarks for the simulator substrate: event throughput under
// FCFS/EASY at theta-mini and Cori scale, EASY backfill-candidate
// computation, state encoding, and the knapsack DP of the Optimization
// baseline.
#include <benchmark/benchmark.h>

#include "core/state_encoder.h"
#include "sched/fcfs_easy.h"
#include "sched/knapsack_opt.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/models.h"
#include "workload/synthetic.h"

namespace {

const dras::sim::Trace& mini_trace() {
  static const dras::sim::Trace trace = [] {
    dras::workload::GenerateOptions options;
    options.num_jobs = 2000;
    options.seed = 1;
    return dras::workload::generate_trace(
        dras::workload::theta_mini_workload(), options);
  }();
  return trace;
}

const dras::workload::WorkloadModel& cori_model() {
  static const auto model = dras::workload::cori_workload().with_load(0.9);
  return model;
}

/// 12,076 nodes at load 0.9: ~1.1k running jobs at every backfill check.
const dras::sim::Trace& cori_trace() {
  static const dras::sim::Trace trace = [] {
    dras::workload::GenerateOptions options;
    options.num_jobs = 30000;
    options.seed = dras::workload::kRealTraceSeed;
    return dras::workload::generate_trace(cori_model(), options);
  }();
  return trace;
}

void run_fcfs_easy(benchmark::State& state, int nodes,
                   const dras::sim::Trace& trace) {
  std::size_t jobs = 0;
  for (auto _ : state) {
    dras::sim::Simulator sim(nodes);
    dras::sched::FcfsEasy fcfs;
    const auto result = sim.run(trace, fcfs);
    benchmark::DoNotOptimize(result.utilization);
    jobs += result.jobs.size();
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

void BM_SimulatorFcfsEasy(benchmark::State& state) {
  run_fcfs_easy(state, dras::workload::theta_mini_workload().system_nodes,
                mini_trace());
}
BENCHMARK(BM_SimulatorFcfsEasy)->Unit(benchmark::kMillisecond);

void BM_SimulatorFcfsEasyCori(benchmark::State& state) {
  run_fcfs_easy(state, cori_model().system_nodes, cori_trace());
}
BENCHMARK(BM_SimulatorFcfsEasyCori)->Unit(benchmark::kMillisecond);

void BM_ClusterEarliestStart(benchmark::State& state) {
  const auto running = state.range(0);
  dras::sim::Cluster cluster(4360);
  dras::util::Rng rng(3);
  dras::sim::JobId id = 0;
  while (cluster.free_nodes() > 128 &&
         static_cast<std::int64_t>(cluster.running_count()) < running) {
    dras::sim::Job job;
    job.id = id++;
    job.size = static_cast<int>(1 + rng.uniform_index(64));
    job.runtime_estimate = rng.uniform(100.0, 10000.0);
    job.runtime_actual = job.runtime_estimate;
    if (!cluster.allocate(job, 0.0)) break;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(cluster.earliest_start(4000, 0.0));
}
BENCHMARK(BM_ClusterEarliestStart)->Arg(16)->Arg(64)->Arg(256);

void BM_StateEncodeWindow(benchmark::State& state) {
  // Encode a full Theta-scale window state: 2W+N rows.
  const auto preset_nodes = 4360;
  dras::sim::Simulator sim(preset_nodes);
  // Use a probe scheduler to grab a context mid-simulation.
  std::vector<float> encoded;
  dras::core::StateEncoder encoder(preset_nodes, 86400.0);
  class Probe final : public dras::sim::Scheduler {
   public:
    Probe(benchmark::State& state, dras::core::StateEncoder& encoder,
          std::vector<float>& out)
        : state_(state), encoder_(encoder), out_(out) {}
    std::string_view name() const override { return "probe"; }
    void schedule(dras::sim::SchedulingContext& ctx) override {
      if (done_ || ctx.queue().size() < 50) {
        // Keep the machine busy so the queue builds up.
        if (!ctx.queue().empty() &&
            ctx.cluster().fits(ctx.queue().front()->size))
          ctx.start_now(ctx.queue().front()->id);
        return;
      }
      done_ = true;
      const std::span<dras::sim::Job* const> window(ctx.queue().data(), 50);
      for (auto _ : state_) {
        encoder_.encode_window(ctx, window, 50, out_);
        benchmark::DoNotOptimize(out_.data());
      }
    }
   private:
    benchmark::State& state_;
    dras::core::StateEncoder& encoder_;
    std::vector<float>& out_;
    bool done_ = false;
  };

  dras::workload::GenerateOptions options;
  options.num_jobs = 400;
  options.seed = 2;
  options.load_scale = 8.0;  // flood the queue
  const auto trace = dras::workload::generate_trace(
      dras::workload::theta_workload(), options);
  Probe probe(state, encoder, encoded);
  (void)sim.run(trace, probe);
}
BENCHMARK(BM_StateEncodeWindow)->Unit(benchmark::kMicrosecond);

void BM_KnapsackDP(benchmark::State& state) {
  const auto items = state.range(0);
  dras::util::Rng rng(5);
  std::vector<int> weights;
  std::vector<double> values;
  for (std::int64_t i = 0; i < items; ++i) {
    weights.push_back(static_cast<int>(1 + rng.uniform_index(512)));
    values.push_back(rng.uniform(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dras::sched::KnapsackOpt::solve_knapsack(weights, values, 4360));
  }
}
BENCHMARK(BM_KnapsackDP)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_BackfillCandidates(benchmark::State& state) {
  // Half-busy machine of `nodes` nodes running `size`-node jobs: Theta
  // with 19 running jobs, or Cori with ~1.1k.
  const auto nodes = static_cast<int>(state.range(0));
  const auto size = static_cast<int>(state.range(1));
  dras::sim::Cluster cluster(nodes);
  dras::util::Rng rng(7);
  dras::sim::JobId id = 0;
  while (cluster.free_nodes() > nodes * 46 / 100) {
    dras::sim::Job job;
    job.id = id++;
    job.size = size;
    job.runtime_estimate = rng.uniform(100.0, 10000.0);
    job.runtime_actual = job.runtime_estimate;
    (void)cluster.allocate(job, 0.0);
  }
  const dras::sim::Reservation reservation{9999, nodes - 360, 8000.0};
  std::vector<dras::sim::Job> waiting(256);
  std::vector<dras::sim::Job*> queue;
  for (auto& job : waiting) {
    job.id = id++;
    job.size = static_cast<int>(1 + rng.uniform_index(1024));
    job.runtime_estimate = rng.uniform(100.0, 20000.0);
    job.runtime_actual = job.runtime_estimate;
    queue.push_back(&job);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dras::sim::backfill_candidates(cluster, reservation, queue, 0.0));
  }
}
BENCHMARK(BM_BackfillCandidates)
    ->ArgNames({"nodes", "size"})
    ->Args({4360, 128})
    ->Args({12076, 6})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
