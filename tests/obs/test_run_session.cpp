// RunSession: the one telemetry flag layer shared by dras_sim,
// dras_serve and the bench harnesses.
#include "obs/run_session.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/args.h"
#include "util/json.h"
#include "util/signal.h"

namespace dras::obs {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ObsRunSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("dras-session-") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    set_enabled(false);
  }
  void TearDown() override {
    set_enabled(false);
    set_default_tracer(nullptr);
    util::InterruptGuard::clear_flush_hooks();
    fs::remove_all(dir_);
  }

  /// Args from a flag list (argv[0] supplied).
  static util::Args args(std::vector<std::string> flags) {
    flags.insert(flags.begin(), "tool");
    std::vector<const char*> argv;
    for (const std::string& flag : flags) argv.push_back(flag.c_str());
    return util::Args(static_cast<int>(argv.size()), argv.data(),
                      {"profile"});
  }

  static RunInfo info() {
    RunInfo run_info;
    run_info.tool = "tool";
    run_info.argv = {"tool"};
    run_info.seed = 3;
    run_info.config_fingerprint = "0badf00d";
    return run_info;
  }

  fs::path dir_;
};

TEST_F(ObsRunSessionTest, NoFlagsOpensNothing) {
  const fs::path cwd = fs::current_path();
  fs::current_path(dir_);
  {
    RunSession session(args({}), info());
    EXPECT_EQ(session.tracer(), nullptr);
    EXPECT_EQ(session.recorder(), nullptr);
    EXPECT_EQ(default_tracer(), nullptr);
    EXPECT_FALSE(enabled());
    session.set_stat("ignored", 1.0);  // no-op without --run-dir
    EXPECT_TRUE(session.finish(0));
  }
  fs::current_path(cwd);
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(ObsRunSessionTest, RunDirWritesTheFullObservatory) {
  const fs::path run = dir_ / "run";
  RunSession session(args({"--run-dir", run.string()}), info());
  ASSERT_NE(session.recorder(), nullptr);
  ASSERT_NE(session.tracer(), nullptr);
  EXPECT_EQ(default_tracer(), session.tracer());
  EXPECT_TRUE(enabled());
  session.tracer()->instant("marker", 0.0);
  Registry::global().counter("test.session.counter").add(2);
  session.set_final_score(1.5);
  ASSERT_TRUE(session.finish(0));
  EXPECT_EQ(default_tracer(), nullptr);

  for (const char* name :
       {"run.json", "rounds.jsonl", "trace.json", "metrics.json"})
    EXPECT_TRUE(fs::exists(run / name)) << name;
  EXPECT_NO_THROW((void)util::json::parse(read_file(run / "trace.json")));
  const auto manifest = util::json::parse(read_file(run / "run.json"));
  EXPECT_TRUE(manifest.find("completed")->as_bool());
  EXPECT_DOUBLE_EQ(manifest.find("exit_code")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(manifest.find("final_score")->as_number(), 1.5);
  EXPECT_EQ(manifest.find("config_fingerprint")->as_string(), "0badf00d");
  EXPECT_NE(read_file(run / "metrics.json").find("test.session.counter"),
            std::string::npos);
}

TEST_F(ObsRunSessionTest, TraceOutWinsOverTheRunDirTrace) {
  const fs::path run = dir_ / "run";
  const fs::path trace = dir_ / "elsewhere" / "t.json";
  {
    RunSession session(
        args({"--run-dir", run.string(), "--trace-out", trace.string(),
              "--trace-format", "jsonl"}),
        info());
    session.tracer()->instant("marker", 0.0);
    ASSERT_TRUE(session.finish(0));
  }
  EXPECT_FALSE(fs::exists(run / "trace.json"));
  std::istringstream lines(read_file(trace));
  std::string line;
  std::size_t events = 0;
  while (std::getline(lines, line)) {
    EXPECT_NO_THROW((void)util::json::parse(line)) << line;
    ++events;
  }
  EXPECT_GE(events, 1u);
}

TEST_F(ObsRunSessionTest, UnknownTraceFormatThrows) {
  EXPECT_THROW((void)RunSession(args({"--trace-format", "bogus"}), info()),
               std::invalid_argument);
  EXPECT_EQ(default_tracer(), nullptr);
}

TEST_F(ObsRunSessionTest, MetricsOutFormatFollowsTheExtension) {
  for (const char* name : {"m.csv", "m.json"}) {
    RunSession session(args({"--metrics-out", (dir_ / name).string()}),
                       info());
    EXPECT_TRUE(enabled());
    ASSERT_TRUE(session.finish(0));
  }
  EXPECT_EQ(read_file(dir_ / "m.csv").rfind("name,kind,value", 0), 0u);
  const auto doc = util::json::parse(read_file(dir_ / "m.json"));
  EXPECT_NE(doc.find("metrics"), nullptr);
}

TEST_F(ObsRunSessionTest, InterruptHookMarksTheManifestInterrupted) {
  const fs::path run = dir_ / "run";
  RunSession session(args({"--run-dir", run.string()}), info());
  util::InterruptGuard::run_flush_hooks();
  const auto manifest = util::json::parse(read_file(run / "run.json"));
  EXPECT_TRUE(manifest.find("interrupted")->as_bool());
  EXPECT_FALSE(manifest.find("completed")->as_bool());
  EXPECT_TRUE(session.finish(130));
}

TEST_F(ObsRunSessionTest, FailedWriteMakesFinishReturnFalse) {
  const fs::path run = dir_ / "run";
  const fs::path blocker = dir_ / "not-a-dir";
  std::ofstream(blocker) << "x";
  RunSession session(args({"--run-dir", run.string(), "--metrics-out",
                           (blocker / "m.json").string()}),
                     info());
  EXPECT_FALSE(session.finish(0));
  EXPECT_FALSE(session.finish(0));  // first result sticks
  const auto manifest = util::json::parse(read_file(run / "run.json"));
  EXPECT_DOUBLE_EQ(manifest.find("exit_code")->as_number(), 2.0);
}

TEST_F(ObsRunSessionTest, FingerprintMatchesTheTelemetryBaseline) {
  EXPECT_EQ(config_fingerprint(
                "policy=dras-pg;model=theta-mini;swf=;nodes=272;jobs=300;"
                "seed=7;load=1;depth=1;train_episodes=8;rollout_batch=4"),
            "9bd34575");
  EXPECT_EQ(config_fingerprint(""), "00000000");
}

}  // namespace
}  // namespace dras::obs
