// dras_serve — load generator AND transport endpoints for the serving
// layer.  Four modes:
//
//   (default)       in-process: DecisionService + ModelWatcher driven by
//                   N client threads through the C++ API (PR 7 path,
//                   byte-identical behaviour).
//   --listen ADDR   serve the DecisionService over a socket
//                   (serve::net::DecisionServer).  Runs until SIGINT/
//                   SIGTERM (graceful drain) or --serve-for-ms.
//   --connect ADDR  drive a remote server: N threads, each with its own
//                   serve::net::DecisionClient (timeouts, retries,
//                   circuit breaker, optional --fallback degraded mode),
//                   with the same gates as the in-process mode plus
//                   failover accounting (--expect-failover for chaos CI).
//   --chaos         fault-injecting proxy between --listen ADDR and
//                   --upstream ADDR (serve::net::ChaosProxy).
//
// The determinism oracle spans the wire: --verify-every re-decides
// sampled responses on a local replica of the snapshot version that
// served them (loaded from --checkpoint-dir) and requires bit-identical
// indices — over the socket exactly as in-process.
//
// Exit codes: 0 ok, 2 usage, 3 gate failure (including "no loadable
// snapshot appeared within --wait-model-timeout").
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "ckpt/manager.h"
#include "core/presets.h"
#include "metrics/report.h"
#include "obs/report.h"
#include "obs/run_session.h"
#include "serve/decision_service.h"
#include "serve/model_watcher.h"
#include "serve/net/chaos.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "util/args.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/signal.h"
#include "util/socket.h"
#include "workload/models.h"

namespace {

using dras::util::format;

int usage(const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: dras_serve --checkpoint-dir DIR [options]\n"
      "       dras_serve --checkpoint-dir DIR --listen ADDR [options]\n"
      "       dras_serve --connect ADDR [options]\n"
      "       dras_serve --chaos --listen ADDR --upstream ADDR [options]\n"
      "\n"
      "ADDR is unix:PATH, tcp:HOST:PORT, or a bare path (unix).\n"
      "\n"
      "common options:\n"
      "  --checkpoint-dir D  directory of trainer checkpoints to serve\n"
      "                      from; watched live, new snapshots hot-swap\n"
      "                      in without stalling requests\n"
      "  --policy P          dras-pg | dras-dql (default dras-pg); must\n"
      "                      match the policy that wrote the checkpoints\n"
      "  --model M           theta | cori | theta-mini | cori-mini\n"
      "                      (default theta-mini); must match training\n"
      "  --nodes N           machine size (default: model preset size)\n"
      "  --seed S            master seed for training config + synthetic\n"
      "                      request streams (default 1)\n"
      "  --clients N         concurrent client threads (default 4)\n"
      "  --workers N         inference worker threads (default 1)\n"
      "  --requests N        requests per client (default 2000)\n"
      "  --rate R            open-loop arrival rate per client in req/s;\n"
      "                      0 = closed loop (default 0)\n"
      "  --max-batch B       micro-batch close at B requests (default 32)\n"
      "  --max-wait-us U     ... or oldest waited U us (default 200)\n"
      "  --poll-ms P         watcher poll interval (default 20)\n"
      "  --wait-model-timeout T\n"
      "                      ms to wait for the first loadable checkpoint\n"
      "                      before failing the run with a diagnostic\n"
      "                      (default 10000; --wait-model-ms is an alias)\n"
      "  --stall-ms S        a request slower than this counts as stalled\n"
      "                      and fails the run (default 1000)\n"
      "  --min-swaps N       fail unless >= N snapshots installed\n"
      "                      (default 1; in-process/--listen only)\n"
      "  --verify-every K    determinism oracle every Kth request\n"
      "                      (default 64; 0 = off)\n"
      "  --csv / --verbose\n"
      "  --run-dir DIR       run.json + rounds.jsonl + metrics.json +\n"
      "                      trace.json (request/batch/forward spans)\n"
      "  --trace-out F / --trace-format chrome|jsonl / --metrics-out F /\n"
      "  --profile           telemetry flags shared with dras_sim\n"
      "\n"
      "--listen mode:\n"
      "  --io-workers N      connection handler threads (default 4)\n"
      "  --admission N       in-flight requests before OVERLOADED\n"
      "                      shedding (default 256)\n"
      "  --request-deadline-ms D  server-side per-request budget\n"
      "                      (default 2000)\n"
      "  --serve-for-ms T    exit after T ms (default 0 = until SIGINT/\n"
      "                      SIGTERM, which drains gracefully)\n"
      "\n"
      "--connect mode:\n"
      "  --fallback          load the newest snapshot from\n"
      "                      --checkpoint-dir as the local degraded-mode\n"
      "                      fallback model\n"
      "  --expect-failover   gate: require >= 1 breaker open AND >= 1\n"
      "                      close AND > 0 degraded decisions (chaos CI)\n"
      "  --connect-timeout-ms / --request-timeout-ms (default 250/1000)\n"
      "  --max-attempts N    attempts per decision (default 4)\n"
      "  --breaker-threshold N / --breaker-cooldown-ms D (default 3/500)\n"
      "\n"
      "--chaos mode (all probabilities in [0,1], default 0):\n"
      "  --upstream ADDR     the real server to forward to (required)\n"
      "  --chaos-drop P --chaos-corrupt P --chaos-delay P\n"
      "  --chaos-delay-ms D --chaos-truncate P --chaos-reorder P\n"
      "  --chaos-kill P --chaos-seed S --serve-for-ms T\n";
  return error.empty() ? 0 : 2;
}

dras::core::SystemPreset pick_preset(const std::string& name) {
  if (name == "theta") return dras::core::theta();
  if (name == "cori") return dras::core::cori();
  if (name == "theta-mini") return dras::core::theta_mini();
  if (name == "cori-mini") return dras::core::cori_mini();
  throw std::invalid_argument(format("unknown model '{}'", name));
}

/// Wait (bounded) for the watcher to install a first snapshot.  On
/// timeout, print a diagnostic that distinguishes "directory missing",
/// "directory empty", "checkpoints present but none loadable" — the
/// failure modes that used to exit ungated — and return 3.
int wait_for_model(dras::serve::DecisionService& service,
                   const dras::serve::ModelWatcher& watcher,
                   const std::string& checkpoint_dir,
                   std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (service.current_snapshot() == nullptr) {
    if (std::chrono::steady_clock::now() >= deadline) {
      namespace fs = std::filesystem;
      std::string diagnosis;
      std::error_code ec;
      if (!fs::exists(checkpoint_dir, ec)) {
        diagnosis = "the directory does not exist";
      } else {
        std::size_t checkpoint_files = 0;
        for (const auto& entry : fs::directory_iterator(checkpoint_dir, ec)) {
          if (dras::ckpt::CheckpointManager::parse_episode(
                  entry.path().filename().string())) {
            ++checkpoint_files;
          }
        }
        if (checkpoint_files == 0) {
          diagnosis = "the directory exists but holds no ckpt-*.dras files "
                      "(is the trainer writing here?)";
        } else {
          diagnosis = format(
              "{} checkpoint file(s) present but none loaded ({} load "
              "failure(s) — config/fingerprint mismatch or corrupt files; "
              "re-run with --verbose for the watcher's reasons)",
              checkpoint_files, watcher.load_failures());
        }
      }
      std::cerr << format(
          "GATE FAIL: no loadable checkpoint appeared in '{}' within {} ms: "
          "{}\n",
          checkpoint_dir, timeout.count(), diagnosis);
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return 0;
}

/// Everything one client thread records about one sampled request, kept
/// so the post-run oracle can re-decide it on the exact snapshot that
/// served it.
struct VerifySample {
  dras::serve::DecisionRequest request;
  std::shared_ptr<const dras::serve::ModelSnapshot> snapshot;
  std::size_t future_index = 0;
};

struct ClientResult {
  std::vector<double> latencies_us;
  std::vector<std::uint32_t> batch_sizes;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;
  std::uint64_t verify_skipped = 0;  ///< Swap raced the sample; no oracle.
  std::uint64_t mismatches = 0;
  std::uint64_t degraded = 0;  ///< --connect: answered by the fallback.
};

/// A sampled socket-mode response awaiting oracle verification.
struct NetVerifySample {
  dras::serve::DecisionRequest request;
  std::size_t job_index = 0;
  std::uint64_t model_version = 0;
};

/// Shared flag/option bundle parsed once in main().
struct CommonOptions {
  std::string checkpoint_dir;
  std::string policy_name;
  std::string model_name;
  dras::core::DrasConfig config;
  std::uint64_t seed = 1;
  std::size_t clients = 4;
  std::size_t workers = 1;
  std::size_t requests_per_client = 2000;
  double rate = 0.0;
  std::size_t max_batch = 32;
  std::chrono::microseconds max_wait{200};
  std::chrono::milliseconds poll{20};
  std::chrono::milliseconds wait_model{10000};
  double stall_ms = 1000.0;
  std::uint64_t min_swaps = 1;
  std::size_t verify_every = 64;
  bool csv_output = false;
};

// ---------------------------------------------------------------------------
// Default mode: in-process service driven through the C++ API (PR 7).

int run_inprocess(const CommonOptions& opt, dras::obs::RunSession& session) {
  dras::serve::ServiceOptions service_options;
  service_options.policy.max_batch = opt.max_batch;
  service_options.policy.max_wait = opt.max_wait;
  service_options.workers = opt.workers;
  dras::serve::DecisionService service(service_options);

  dras::serve::WatcherOptions watcher_options;
  watcher_options.dir = opt.checkpoint_dir;
  watcher_options.config = opt.config;
  watcher_options.poll = opt.poll;
  dras::serve::ModelWatcher watcher(watcher_options, service);
  watcher.start();

  // Wait for the first snapshot — when serving against a live training
  // run the directory may still be empty.
  if (const int code = wait_for_model(service, watcher, opt.checkpoint_dir,
                                      opt.wait_model);
      code != 0) {
    watcher.stop();
    service.stop();
    return session.finish(code) ? code : 2;
  }
  dras::util::log_info("serving {} from {} (version {})", opt.policy_name,
                       opt.checkpoint_dir,
                       service.current_snapshot()->version());

  // Client threads: open-loop senders.  Futures are collected and
  // resolved after the send loop so a slow response never throttles
  // the arrival process (that is what "open loop" means).
  std::vector<ClientResult> results(opt.clients);
  std::vector<std::thread> client_threads;
  client_threads.reserve(opt.clients);
  const auto load_start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < opt.clients; ++c) {
    client_threads.emplace_back([&, c] {
      ClientResult& out = results[c];
      dras::util::Rng rng(
          dras::util::derive_seed(opt.seed, format("serve-client-{}", c)));
      std::vector<std::future<dras::serve::Decision>> futures;
      futures.reserve(opt.requests_per_client);
      std::vector<VerifySample> samples;
      const auto period =
          opt.rate > 0.0
              ? std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(1.0 / opt.rate))
              : std::chrono::steady_clock::duration::zero();
      auto next_send = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < opt.requests_per_client; ++r) {
        if (opt.rate > 0.0) {
          std::this_thread::sleep_until(next_send);
          next_send += period;
        }
        auto request = dras::serve::make_synthetic_request(opt.config, rng);
        const bool sampled =
            opt.verify_every > 0 && (r % opt.verify_every) == 0;
        if (sampled) {
          // Snapshot *before* submit: if no swap lands in between, the
          // decision must be bit-identical to this snapshot's greedy
          // decision.  A racing swap is detected by the version stamp
          // and the sample is skipped, not failed.
          samples.push_back(VerifySample{request, service.current_snapshot(),
                                         futures.size()});
        }
        futures.push_back(service.submit(std::move(request)));
      }
      std::vector<dras::serve::Decision> decisions(futures.size());
      std::vector<bool> ok(futures.size(), false);
      for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
          decisions[i] = futures[i].get();
          ok[i] = true;
          out.answered += 1;
          out.latencies_us.push_back(decisions[i].latency_us);
          out.batch_sizes.push_back(decisions[i].batch_size);
        } catch (const std::exception& e) {
          out.failed += 1;
          dras::util::log_warn("client {}: request {} failed: {}", c, i,
                               e.what());
        }
      }
      // Determinism oracle, off the hot path: one replica per distinct
      // snapshot version, reference decision per sampled request.
      std::map<std::uint64_t, std::unique_ptr<dras::core::DrasAgent>>
          replicas;
      for (const auto& sample : samples) {
        if (!ok[sample.future_index] || sample.snapshot == nullptr) continue;
        const auto& decision = decisions[sample.future_index];
        if (decision.model_version != sample.snapshot->version()) {
          out.verify_skipped += 1;  // a hot swap raced this sample
          continue;
        }
        auto& replica = replicas[sample.snapshot->version()];
        if (!replica) replica = sample.snapshot->make_replica();
        const std::size_t expected =
            dras::serve::reference_decision(*replica, sample.request);
        out.verified += 1;
        if (expected != decision.job_index) {
          out.mismatches += 1;
          dras::util::log_warn(
              "client {}: decision mismatch at request {}: served {} but "
              "reference says {} (version {})",
              c, sample.future_index, decision.job_index, expected,
              decision.model_version);
        }
      }
    });
  }
  for (auto& thread : client_threads) thread.join();
  const double load_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  load_start)
                                  .count();
  watcher.stop();
  service.stop();

  // Aggregate.
  ClientResult total;
  std::vector<double> batch_sizes_d;
  for (const auto& r : results) {
    total.answered += r.answered;
    total.failed += r.failed;
    total.verified += r.verified;
    total.verify_skipped += r.verify_skipped;
    total.mismatches += r.mismatches;
    total.latencies_us.insert(total.latencies_us.end(),
                              r.latencies_us.begin(), r.latencies_us.end());
    for (const auto b : r.batch_sizes)
      batch_sizes_d.push_back(static_cast<double>(b));
  }
  std::uint64_t stalled = 0;
  for (const double us : total.latencies_us)
    if (us > opt.stall_ms * 1000.0) stalled += 1;
  const auto latency = dras::obs::report::exact_stats(total.latencies_us);
  const auto batch = dras::obs::report::exact_stats(batch_sizes_d);
  const double decisions_per_sec =
      load_seconds > 0.0
          ? static_cast<double>(total.answered) / load_seconds
          : 0.0;
  const std::uint64_t swaps = watcher.swaps_installed();
  const auto service_stats = service.stats();

  session.set_stat("decisions_per_sec", decisions_per_sec);
  session.set_stat("requests_answered", static_cast<double>(total.answered));
  session.set_stat("requests_failed", static_cast<double>(total.failed));
  session.set_stat("requests_stalled", static_cast<double>(stalled));
  session.set_stat("swaps_installed", static_cast<double>(swaps));
  session.set_stat("watcher_load_failures",
                   static_cast<double>(watcher.load_failures()));
  session.set_stat("decisions_verified", static_cast<double>(total.verified));
  session.set_stat("decision_mismatches",
                   static_cast<double>(total.mismatches));
  session.set_stat("batch_mean", batch.mean);
  session.set_stat("latency_p99_us", latency.p99);

  if (opt.csv_output) {
    std::cout << "policy,clients,workers,max_batch,max_wait_us,answered,"
                 "failed,stalled,decisions_per_sec,p50_us,p99_us,"
                 "batch_mean,batch_max,swaps,verified,mismatches\n";
    std::cout << format(
        "{},{},{},{},{},{},{},{},{:.1f},{:.1f},{:.1f},{:.2f},{},{},{},{}\n",
        opt.policy_name, opt.clients, opt.workers, opt.max_batch,
        opt.max_wait.count(), total.answered, total.failed, stalled,
        decisions_per_sec, latency.p50, latency.p99, batch.mean,
        static_cast<std::uint64_t>(batch.max), swaps, total.verified,
        total.mismatches);
  } else {
    dras::metrics::print_table(
        std::cout, {"metric", "value"},
        {{"policy", opt.policy_name},
         {"load", format("{} clients x {} requests, rate {}/s", opt.clients,
                         opt.requests_per_client,
                         opt.rate > 0.0 ? format("{:.0f}", opt.rate)
                                        : std::string("max"))},
         {"service", format("{} workers, batch <= {}, wait <= {} us",
                            opt.workers, opt.max_batch,
                            opt.max_wait.count())},
         {"answered", format("{}", total.answered)},
         {"failed", format("{}", total.failed)},
         {"stalled", format("{} (> {:.0f} ms)", stalled, opt.stall_ms)},
         {"decisions/sec", format("{:.0f}", decisions_per_sec)},
         {"latency p50", format("{:.1f} us", latency.p50)},
         {"latency p99", format("{:.1f} us", latency.p99)},
         {"batch mean/max", format("{:.2f} / {}", batch.mean,
                                   static_cast<std::uint64_t>(batch.max))},
         {"snapshots installed", format("{}", swaps)},
         {"batches served", format("{}", service_stats.batches)},
         {"oracle", format("{} verified, {} skipped, {} mismatches",
                           total.verified, total.verify_skipped,
                           total.mismatches)}});
  }

  bool gate_failed = false;
  const auto gate = [&](bool bad, const std::string& what) {
    if (!bad) return;
    gate_failed = true;
    std::cerr << format("GATE FAIL: {}\n", what);
  };
  gate(total.failed > 0, format("{} requests failed", total.failed));
  gate(stalled > 0,
       format("{} requests stalled past {:.0f} ms", stalled, opt.stall_ms));
  gate(total.mismatches > 0,
       format("{} served decisions mismatched the in-trainer reference",
              total.mismatches));
  gate(swaps < opt.min_swaps,
       format("only {} snapshot installs, {} required", swaps,
              opt.min_swaps));
  gate(total.answered != static_cast<std::uint64_t>(
                             opt.clients * opt.requests_per_client) -
                             total.failed,
       "answered + failed != submitted");

  const int code = gate_failed ? 3 : 0;
  return session.finish(code) ? code : 2;
}

// ---------------------------------------------------------------------------
// --listen: put the service on a socket until interrupted.

int run_listen(const CommonOptions& opt, const dras::util::Args& args,
               dras::obs::RunSession& session) {
  const auto address =
      dras::util::SocketAddress::parse(args.get("listen", ""));
  dras::serve::net::ServerOptions server_options;
  server_options.address = address;
  server_options.io_workers = static_cast<std::size_t>(
      std::max(1LL, args.get_int("io-workers", 4)));
  server_options.admission_capacity = static_cast<std::size_t>(
      std::max(1LL, args.get_int("admission", 256)));
  server_options.request_deadline =
      std::chrono::milliseconds(args.get_int("request-deadline-ms", 2000));
  const auto serve_for =
      std::chrono::milliseconds(args.get_int("serve-for-ms", 0));
  if (const auto unread = args.unused(); !unread.empty())
    return usage(format("unknown option --{}", unread.front()));

  dras::serve::ServiceOptions service_options;
  service_options.policy.max_batch = opt.max_batch;
  service_options.policy.max_wait = opt.max_wait;
  service_options.workers = opt.workers;
  dras::serve::DecisionService service(service_options);

  dras::serve::WatcherOptions watcher_options;
  watcher_options.dir = opt.checkpoint_dir;
  watcher_options.config = opt.config;
  watcher_options.poll = opt.poll;
  dras::serve::ModelWatcher watcher(watcher_options, service);
  watcher.start();

  if (const int code = wait_for_model(service, watcher, opt.checkpoint_dir,
                                      opt.wait_model);
      code != 0) {
    watcher.stop();
    service.stop();
    return session.finish(code) ? code : 2;
  }

  dras::util::InterruptGuard guard;
  dras::serve::net::DecisionServer server(server_options, service);
  server.start();
  std::cout << format("dras_serve: listening on {} (model version {})\n",
                      server.bound_address().describe(),
                      service.current_snapshot()->version());
  std::cout.flush();

  const auto started = std::chrono::steady_clock::now();
  while (!dras::util::InterruptGuard::interrupted()) {
    if (serve_for.count() > 0 &&
        std::chrono::steady_clock::now() - started >= serve_for) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Drain-then-close: stop accepting, finish in-flight, then stop the
  // service underneath.
  server.stop();
  watcher.stop();
  service.stop();

  const auto stats = server.stats();
  session.set_stat("requests_answered",
                   static_cast<double>(stats.requests_ok));
  session.set_stat("requests_shed", static_cast<double>(stats.requests_shed));
  session.set_stat("requests_bad", static_cast<double>(stats.requests_bad));
  session.set_stat("frame_errors", static_cast<double>(stats.frame_errors));
  session.set_stat("connections",
                   static_cast<double>(stats.connections_accepted));
  session.set_stat("swaps_installed",
                   static_cast<double>(watcher.swaps_installed()));

  dras::metrics::print_table(
      std::cout, {"metric", "value"},
      {{"mode", std::string("listen ") + address.describe()},
       {"connections",
        format("{} accepted, {} shed, {} closed", stats.connections_accepted,
               stats.connections_shed, stats.connections_closed)},
       {"requests ok", format("{}", stats.requests_ok)},
       {"requests shed", format("{}", stats.requests_shed)},
       {"requests bad", format("{}", stats.requests_bad)},
       {"deadline misses", format("{}", stats.requests_deadline)},
       {"frame errors", format("{}", stats.frame_errors)},
       {"snapshots installed", format("{}", watcher.swaps_installed())}});

  return session.finish(0) ? 0 : 2;
}

// ---------------------------------------------------------------------------
// --connect: drive a remote server through DecisionClient threads.

int run_connect(const CommonOptions& opt, const dras::util::Args& args,
                dras::obs::RunSession& session) {
  const auto address =
      dras::util::SocketAddress::parse(args.get("connect", ""));
  dras::serve::net::ClientOptions client_options;
  client_options.address = address;
  client_options.connect_timeout =
      std::chrono::milliseconds(args.get_int("connect-timeout-ms", 250));
  client_options.request_timeout =
      std::chrono::milliseconds(args.get_int("request-timeout-ms", 1000));
  client_options.max_attempts = static_cast<std::size_t>(
      std::max(1LL, args.get_int("max-attempts", 4)));
  client_options.breaker_threshold = static_cast<std::size_t>(
      std::max(1LL, args.get_int("breaker-threshold", 3)));
  client_options.breaker_cooldown =
      std::chrono::milliseconds(args.get_int("breaker-cooldown-ms", 500));
  const bool want_fallback = args.flag("fallback");
  const bool expect_failover = args.flag("expect-failover");
  if (const auto unread = args.unused(); !unread.empty())
    return usage(format("unknown option --{}", unread.front()));

  // The fallback model (and the oracle replicas) come from the shared
  // checkpoint directory — the one piece of state trainer, server and
  // client have in common.
  std::shared_ptr<const dras::serve::ModelSnapshot> fallback;
  if (want_fallback) {
    if (opt.checkpoint_dir.empty())
      return usage("--fallback needs --checkpoint-dir");
    const auto newest = dras::ckpt::newest_checkpoint(opt.checkpoint_dir);
    if (!newest) {
      std::cerr << format(
          "GATE FAIL: --fallback: no checkpoint found in '{}'\n",
          opt.checkpoint_dir);
      return session.finish(3) ? 3 : 2;
    }
    fallback = dras::serve::ModelSnapshot::load(*newest, opt.config);
    dras::util::log_info("fallback model: version {}", fallback->version());
  }

  std::vector<ClientResult> results(opt.clients);
  std::vector<dras::serve::net::DecisionClient::Stats> net_stats(opt.clients);
  std::vector<std::vector<NetVerifySample>> all_samples(opt.clients);
  std::vector<std::thread> client_threads;
  client_threads.reserve(opt.clients);
  const auto load_start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < opt.clients; ++c) {
    client_threads.emplace_back([&, c] {
      ClientResult& out = results[c];
      auto options = client_options;
      options.seed = dras::util::derive_seed(opt.seed,
                                             format("net-client-{}", c));
      dras::serve::net::DecisionClient client(options);
      if (fallback) client.set_fallback(fallback);
      dras::util::Rng rng(
          dras::util::derive_seed(opt.seed, format("serve-client-{}", c)));
      const auto period =
          opt.rate > 0.0
              ? std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(1.0 / opt.rate))
              : std::chrono::steady_clock::duration::zero();
      auto next_send = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < opt.requests_per_client; ++r) {
        if (opt.rate > 0.0) {
          std::this_thread::sleep_until(next_send);
          next_send += period;
        }
        const auto request =
            dras::serve::make_synthetic_request(opt.config, rng);
        try {
          const auto decision = client.decide(request);
          out.answered += 1;
          out.degraded += decision.degraded ? 1 : 0;
          out.latencies_us.push_back(decision.latency_us);
          out.batch_sizes.push_back(decision.batch_size);
          if (opt.verify_every > 0 && (r % opt.verify_every) == 0) {
            all_samples[c].push_back(NetVerifySample{
                request, decision.job_index, decision.model_version});
          }
        } catch (const std::exception& e) {
          out.failed += 1;
          dras::util::log_warn("client {}: request {} failed: {}", c, r,
                               e.what());
        }
      }
      net_stats[c] = client.stats();
    });
  }
  for (auto& thread : client_threads) thread.join();
  const double load_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  load_start)
                                  .count();

  // Oracle, off the hot path: load the snapshot each sampled response
  // claims to come from (by version, straight from the shared
  // checkpoint directory) and require the bit-identical decision.
  ClientResult total;
  std::vector<double> batch_sizes_d;
  for (const auto& r : results) {
    total.answered += r.answered;
    total.failed += r.failed;
    total.degraded += r.degraded;
    total.latencies_us.insert(total.latencies_us.end(),
                              r.latencies_us.begin(), r.latencies_us.end());
    for (const auto b : r.batch_sizes)
      batch_sizes_d.push_back(static_cast<double>(b));
  }
  if (opt.verify_every > 0 && !opt.checkpoint_dir.empty()) {
    dras::ckpt::CheckpointManager manager(
        {.dir = opt.checkpoint_dir, .every = 1, .keep_last = 0});
    std::map<std::uint64_t, std::unique_ptr<dras::core::DrasAgent>> replicas;
    std::map<std::uint64_t, bool> unloadable;
    for (std::size_t c = 0; c < opt.clients; ++c) {
      for (const auto& sample : all_samples[c]) {
        auto& replica = replicas[sample.model_version];
        if (!replica && !unloadable[sample.model_version]) {
          try {
            const auto snapshot = dras::serve::ModelSnapshot::load(
                manager.path_for(sample.model_version), opt.config);
            replica = snapshot->make_replica();
          } catch (const std::exception&) {
            // Retention deleted it (or the version predates this dir):
            // skip, don't fail — the oracle needs the exact bytes.
            unloadable[sample.model_version] = true;
          }
        }
        if (!replica) {
          total.verify_skipped += 1;
          continue;
        }
        const std::size_t expected =
            dras::serve::reference_decision(*replica, sample.request);
        total.verified += 1;
        if (expected != sample.job_index) {
          total.mismatches += 1;
          dras::util::log_warn(
              "client {}: socket decision mismatch: served {} but reference "
              "says {} (version {})",
              c, sample.job_index, expected, sample.model_version);
        }
      }
    }
  }

  std::uint64_t stalled = 0;
  for (const double us : total.latencies_us)
    if (us > opt.stall_ms * 1000.0) stalled += 1;
  const auto latency = dras::obs::report::exact_stats(total.latencies_us);
  const auto batch = dras::obs::report::exact_stats(batch_sizes_d);
  const double decisions_per_sec =
      load_seconds > 0.0
          ? static_cast<double>(total.answered) / load_seconds
          : 0.0;
  dras::serve::net::DecisionClient::Stats net_total;
  for (const auto& s : net_stats) {
    net_total.requests += s.requests;
    net_total.served += s.served;
    net_total.degraded += s.degraded;
    net_total.retries += s.retries;
    net_total.reconnects += s.reconnects;
    net_total.transport_errors += s.transport_errors;
    net_total.server_rejects += s.server_rejects;
    net_total.breaker_opens += s.breaker_opens;
    net_total.breaker_closes += s.breaker_closes;
  }

  session.set_stat("decisions_per_sec", decisions_per_sec);
  session.set_stat("requests_answered", static_cast<double>(total.answered));
  session.set_stat("requests_failed", static_cast<double>(total.failed));
  session.set_stat("requests_stalled", static_cast<double>(stalled));
  session.set_stat("decisions_verified", static_cast<double>(total.verified));
  session.set_stat("decision_mismatches",
                   static_cast<double>(total.mismatches));
  session.set_stat("batch_mean", batch.mean);
  session.set_stat("latency_p99_us", latency.p99);
  session.set_stat("degraded_decisions", static_cast<double>(total.degraded));
  session.set_stat("client_retries", static_cast<double>(net_total.retries));
  session.set_stat("client_reconnects",
                   static_cast<double>(net_total.reconnects));
  session.set_stat("transport_errors",
                   static_cast<double>(net_total.transport_errors));
  session.set_stat("breaker_opens",
                   static_cast<double>(net_total.breaker_opens));
  session.set_stat("breaker_closes",
                   static_cast<double>(net_total.breaker_closes));

  if (opt.csv_output) {
    std::cout << "policy,clients,answered,failed,stalled,degraded,"
                 "decisions_per_sec,p50_us,p99_us,retries,reconnects,"
                 "breaker_opens,breaker_closes,verified,mismatches\n";
    std::cout << format(
        "{},{},{},{},{},{},{:.1f},{:.1f},{:.1f},{},{},{},{},{},{}\n",
        opt.policy_name, opt.clients, total.answered, total.failed, stalled,
        total.degraded, decisions_per_sec, latency.p50, latency.p99,
        net_total.retries, net_total.reconnects, net_total.breaker_opens,
        net_total.breaker_closes, total.verified, total.mismatches);
  } else {
    dras::metrics::print_table(
        std::cout, {"metric", "value"},
        {{"mode", std::string("connect ") + address.describe()},
         {"load", format("{} clients x {} requests, rate {}/s", opt.clients,
                         opt.requests_per_client,
                         opt.rate > 0.0 ? format("{:.0f}", opt.rate)
                                        : std::string("max"))},
         {"answered",
          format("{} ({} served, {} degraded)", total.answered,
                 total.answered - total.degraded, total.degraded)},
         {"failed", format("{}", total.failed)},
         {"stalled", format("{} (> {:.0f} ms)", stalled, opt.stall_ms)},
         {"decisions/sec", format("{:.0f}", decisions_per_sec)},
         {"latency p50", format("{:.1f} us", latency.p50)},
         {"latency p99", format("{:.1f} us", latency.p99)},
         {"retries / reconnects",
          format("{} / {}", net_total.retries, net_total.reconnects)},
         {"transport errors", format("{}", net_total.transport_errors)},
         {"breaker open/close", format("{} / {}", net_total.breaker_opens,
                                       net_total.breaker_closes)},
         {"oracle", format("{} verified, {} skipped, {} mismatches",
                           total.verified, total.verify_skipped,
                           total.mismatches)}});
  }

  bool gate_failed = false;
  const auto gate = [&](bool bad, const std::string& what) {
    if (!bad) return;
    gate_failed = true;
    std::cerr << format("GATE FAIL: {}\n", what);
  };
  gate(total.failed > 0, format("{} requests failed", total.failed));
  gate(stalled > 0,
       format("{} requests stalled past {:.0f} ms", stalled, opt.stall_ms));
  gate(total.mismatches > 0,
       format("{} socket decisions mismatched the reference oracle",
              total.mismatches));
  gate(total.answered != static_cast<std::uint64_t>(
                             opt.clients * opt.requests_per_client) -
                             total.failed,
       "answered + failed != submitted");
  if (expect_failover) {
    gate(net_total.breaker_opens == 0,
         "--expect-failover: circuit breaker never opened");
    gate(net_total.breaker_closes == 0,
         "--expect-failover: circuit breaker never closed (no fail-back)");
    gate(total.degraded == 0,
         "--expect-failover: no degraded-mode decisions were served");
  }

  const int code = gate_failed ? 3 : 0;
  return session.finish(code) ? code : 2;
}

// ---------------------------------------------------------------------------
// --chaos: fault-injecting proxy.

int run_chaos(const dras::util::Args& args) {
  const std::string listen_spec = args.get("listen", "");
  const std::string upstream_spec = args.get("upstream", "");
  if (listen_spec.empty() || upstream_spec.empty())
    return usage("--chaos needs --listen ADDR and --upstream ADDR");

  dras::serve::net::ChaosConfig chaos;
  chaos.drop = args.get_double("chaos-drop", 0.0);
  chaos.corrupt = args.get_double("chaos-corrupt", 0.0);
  chaos.delay = args.get_double("chaos-delay", 0.0);
  chaos.delay_for =
      std::chrono::milliseconds(args.get_int("chaos-delay-ms", 20));
  chaos.truncate = args.get_double("chaos-truncate", 0.0);
  chaos.reorder = args.get_double("chaos-reorder", 0.0);
  chaos.kill = args.get_double("chaos-kill", 0.0);
  chaos.seed = static_cast<std::uint64_t>(args.get_int("chaos-seed", 1));
  const auto serve_for =
      std::chrono::milliseconds(args.get_int("serve-for-ms", 0));
  if (const auto unread = args.unused(); !unread.empty())
    return usage(format("unknown option --{}", unread.front()));

  dras::util::InterruptGuard guard;
  dras::serve::net::ChaosProxy proxy(
      dras::util::SocketAddress::parse(listen_spec),
      dras::util::SocketAddress::parse(upstream_spec), chaos);
  proxy.start();
  std::cout << format("dras_serve: chaos proxy {} -> {}\n",
                      proxy.bound_address().describe(), upstream_spec);
  std::cout.flush();

  const auto started = std::chrono::steady_clock::now();
  while (!dras::util::InterruptGuard::interrupted()) {
    if (serve_for.count() > 0 &&
        std::chrono::steady_clock::now() - started >= serve_for) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  proxy.stop();

  const auto stats = proxy.stats();
  dras::metrics::print_table(
      std::cout, {"metric", "value"},
      {{"mode", format("chaos {} -> {}", listen_spec, upstream_spec)},
       {"connections", format("{}", stats.connections)},
       {"forwarded", format("{} chunks, {} bytes", stats.forwarded_chunks,
                            stats.forwarded_bytes)},
       {"dropped", format("{}", stats.dropped)},
       {"corrupted", format("{}", stats.corrupted)},
       {"delayed", format("{}", stats.delayed)},
       {"truncated", format("{}", stats.truncated)},
       {"reordered", format("{}", stats.reordered)},
       {"killed", format("{}", stats.killed)}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dras::util::Args args(
        argc, argv,
        {"csv", "verbose", "help", "profile", "chaos", "fallback",
         "expect-failover"});
    if (args.flag("help")) return usage();
    if (args.flag("verbose"))
      dras::util::set_log_level(dras::util::LogLevel::Info);

    const bool chaos_mode = args.flag("chaos");
    const std::string listen_spec = args.get("listen", "");
    const std::string connect_spec = args.get("connect", "");
    if (chaos_mode) return run_chaos(args);
    if (!listen_spec.empty() && !connect_spec.empty())
      return usage("--listen and --connect are mutually exclusive");

    CommonOptions opt;
    opt.csv_output = args.flag("csv");
    opt.checkpoint_dir = args.get("checkpoint-dir", "");
    if (opt.checkpoint_dir.empty() && connect_spec.empty())
      return usage("--checkpoint-dir is required");
    opt.policy_name = args.get("policy", "dras-pg");
    if (opt.policy_name != "dras-pg" && opt.policy_name != "dras-dql")
      return usage(format("unknown policy '{}' (dras-pg | dras-dql)",
                          opt.policy_name));
    opt.model_name = args.get("model", "theta-mini");
    const auto preset = pick_preset(opt.model_name);
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const int nodes = static_cast<int>(args.get_int("nodes", preset.nodes));
    opt.clients =
        static_cast<std::size_t>(std::max(1LL, args.get_int("clients", 4)));
    opt.workers =
        static_cast<std::size_t>(std::max(1LL, args.get_int("workers", 1)));
    opt.requests_per_client = static_cast<std::size_t>(
        std::max(1LL, args.get_int("requests", 2000)));
    opt.rate = args.get_double("rate", 0.0);
    opt.max_batch = static_cast<std::size_t>(
        std::max(1LL, args.get_int("max-batch", 32)));
    opt.max_wait = std::chrono::microseconds(args.get_int("max-wait-us", 200));
    opt.poll =
        std::chrono::milliseconds(std::max(1LL, args.get_int("poll-ms", 20)));
    // --wait-model-timeout is the documented name; --wait-model-ms is
    // the original spelling, kept working.
    opt.wait_model = std::chrono::milliseconds(args.get_int(
        "wait-model-timeout", args.get_int("wait-model-ms", 10000)));
    opt.stall_ms = args.get_double("stall-ms", 1000.0);
    opt.min_swaps = static_cast<std::uint64_t>(
        std::max(0LL, args.get_int("min-swaps", 1)));
    opt.verify_every = static_cast<std::size_t>(
        std::max(0LL, args.get_int("verify-every", 64)));

    opt.config = preset.agent_config(opt.policy_name == "dras-pg"
                                         ? dras::core::AgentKind::PG
                                         : dras::core::AgentKind::DQL,
                                     opt.seed);
    opt.config.total_nodes = nodes;

    // Fingerprint what changes the decisions or the load shape; the batch
    // policy and thread counts are included because this tool's job is
    // comparing exactly those knobs.  The in-process fingerprint must
    // stay stable across the transport addition (committed baselines
    // reference it), so only the socket modes fold in a mode tag.
    const std::string mode = !listen_spec.empty()    ? "listen"
                             : !connect_spec.empty() ? "connect"
                                                     : "inprocess";
    std::string canonical = format(
        "policy={};model={};nodes={};seed={};clients={};workers={};"
        "requests={};rate={};max_batch={};max_wait_us={}",
        opt.policy_name, opt.model_name, opt.config.total_nodes, opt.seed,
        opt.clients, opt.workers, opt.requests_per_client, opt.rate,
        opt.max_batch, opt.max_wait.count());
    if (mode != "inprocess") canonical += format(";mode={}", mode);
    dras::obs::RunSession session(
        args, {"dras_serve", {argv, argv + argc}, opt.seed,
               dras::obs::config_fingerprint(canonical)});
    session.note("policy", opt.policy_name);
    session.note("model", opt.model_name);
    session.note("checkpoint_dir", opt.checkpoint_dir);
    if (mode != "inprocess") session.note("mode", mode);

    if (mode == "listen") return run_listen(opt, args, session);
    if (mode == "connect") return run_connect(opt, args, session);
    if (const auto unread = args.unused(); !unread.empty())
      return usage(format("unknown option --{}", unread.front()));
    return run_inprocess(opt, session);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
}
