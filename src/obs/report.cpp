#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/format.h"
#include "util/fs.h"

namespace dras::obs::report {

namespace {

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  const auto rank = std::min<std::size_t>(
      n, std::max<std::size_t>(
             1, static_cast<std::size_t>(
                    std::ceil(q / 100.0 * static_cast<double>(n)))));
  return sorted[rank - 1];
}

std::optional<double> number_field(const util::json::Value& object,
                                   const std::string& key) {
  const util::json::Value* v = object.find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_number();
}

std::optional<std::string> string_field(const util::json::Value& object,
                                        const std::string& key) {
  const util::json::Value* v = object.find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->as_string();
}

/// The "metrics" array entry for hdr metric `name`, or nullptr.
const util::json::Value* find_hdr_metric(const util::json::Value& metrics,
                                         const std::string& name) {
  const util::json::Value* list = metrics.find("metrics");
  if (list == nullptr || !list->is_array()) return nullptr;
  for (const util::json::Value& entry : list->as_array()) {
    const auto entry_name = string_field(entry, "name");
    const auto kind = string_field(entry, "kind");
    if (entry_name == name && kind == std::string("hdr")) return &entry;
  }
  return nullptr;
}

}  // namespace

SeriesStats exact_stats(std::vector<double> values) {
  SeriesStats stats;
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  stats.count = values.size();
  stats.min = values.front();
  stats.max = values.back();
  double sum = 0.0;
  for (const double v : values) sum += v;
  stats.mean = sum / static_cast<double>(values.size());
  stats.p50 = nearest_rank(values, 50.0);
  stats.p90 = nearest_rank(values, 90.0);
  stats.p99 = nearest_rank(values, 99.0);
  stats.p999 = nearest_rank(values, 99.9);
  return stats;
}

RunData load_run(const std::filesystem::path& dir) {
  RunData run;
  run.dir = dir;
  const auto manifest_path = dir / "run.json";
  std::string manifest_text;
  try {
    manifest_text = util::read_file(manifest_path);
  } catch (const std::exception& e) {
    throw std::runtime_error(util::format(
        "not a run directory (cannot read {}): {}", manifest_path.string(),
        e.what()));
  }
  try {
    run.manifest = util::json::parse(manifest_text);
  } catch (const std::exception& e) {
    throw std::runtime_error(util::format("malformed {}: {}",
                                          manifest_path.string(), e.what()));
  }
  if (!run.manifest.is_object())
    throw std::runtime_error(
        util::format("malformed {}: not an object", manifest_path.string()));

  // rounds.jsonl: optional, read line-tolerantly (a crashed run may
  // leave a torn final line — everything before it is still data).
  std::ifstream rounds(dir / "rounds.jsonl");
  std::string line;
  while (std::getline(rounds, line)) {
    if (line.empty()) continue;
    try {
      util::json::Value parsed = util::json::parse(line);
      if (const auto wall = number_field(parsed, "wall_s"))
        run.round_wall_s.push_back(*wall);
      run.rounds.push_back(std::move(parsed));
    } catch (const std::exception&) {
      continue;  // torn tail
    }
  }

  // metrics.json: optional.
  const auto metrics_path = dir / "metrics.json";
  if (std::filesystem::exists(metrics_path)) {
    try {
      run.metrics = util::json::parse(util::read_file(metrics_path));
    } catch (const std::exception&) {
      // Leave Null; summaries just omit the section.
    }
  }
  return run;
}

std::optional<double> metric_value(const RunData& run,
                                   const std::string& name) {
  const auto round_time_stat =
      [&](const std::string& stat) -> std::optional<double> {
    if (!run.round_wall_s.empty()) {
      const SeriesStats stats = exact_stats(run.round_wall_s);
      if (stat == "p50") return stats.p50;
      if (stat == "p90") return stats.p90;
      if (stat == "p99") return stats.p99;
      if (stat == "p999") return stats.p999;
      if (stat == "mean") return stats.mean;
      return std::nullopt;
    }
    // Fallback: the manifest's cumulative block (hdr-approximate).
    const util::json::Value* block = run.manifest.find("round_wall_s");
    if (block == nullptr) return std::nullopt;
    return number_field(*block, stat);
  };

  if (name.rfind("round_time_", 0) == 0)
    return round_time_stat(name.substr(sizeof("round_time_") - 1));
  if (name == "final_score") return number_field(run.manifest, "final_score");
  if (name == "wall_seconds")
    return number_field(run.manifest, "wall_seconds");
  if (name == "episodes") return number_field(run.manifest, "episodes");
  if (name == "rounds") return number_field(run.manifest, "rounds");
  if (name.rfind("hdr:", 0) == 0) {
    const auto rest = name.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos) return std::nullopt;
    const util::json::Value* entry =
        find_hdr_metric(run.metrics, rest.substr(0, colon));
    if (entry == nullptr) return std::nullopt;
    return number_field(*entry, rest.substr(colon + 1));
  }
  // First-class failure and fairness metrics (see the file comment):
  // they live in the manifest's "stats" object like any other set_stat
  // key, but are named here so the failure-drill and fairness-drill
  // gates can rely on them never being shadowed by a future manifest
  // field.
  if (name == "wasted_node_hours" || name == "failures" ||
      name == "fairness_jain" || name == "fairness_jain_slowdown" ||
      name == "max_user_slowdown") {
    const util::json::Value* stats = run.manifest.find("stats");
    if (stats == nullptr) return std::nullopt;
    return number_field(*stats, name);
  }
  // Fallback: a key in the manifest's "stats" object (RunRecorder::
  // set_stat) — e.g. dras_serve's decisions_per_sec.
  if (const util::json::Value* stats = run.manifest.find("stats"))
    if (const auto value = number_field(*stats, name)) return value;
  return std::nullopt;
}

bool higher_is_worse(const std::string& metric) {
  // Scores, work totals, rates and fairness indices regress downward;
  // times — and the failure metrics wasted_node_hours / failures —
  // regress upward.  Jain's index is in [1/n, 1] with 1 = perfectly
  // fair, so a *drop* is the regression.
  const bool is_rate =
      metric.size() >= 8 &&
      metric.compare(metric.size() - 8, 8, "_per_sec") == 0;
  return !(metric == "final_score" || metric == "episodes" ||
           metric == "rounds" || metric == "fairness_jain" ||
           metric == "fairness_jain_slowdown" || is_rate);
}

std::vector<Threshold> default_thresholds() {
  return {Threshold{"round_time_p99", 0.10}, Threshold{"final_score", 0.10}};
}

Threshold parse_threshold(const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0)
    throw std::invalid_argument(
        util::format("bad --threshold '{}', want NAME=FRACTION", spec));
  Threshold t;
  t.metric = spec.substr(0, eq);
  try {
    t.relative = std::stod(spec.substr(eq + 1));
  } catch (const std::exception&) {
    throw std::invalid_argument(
        util::format("bad --threshold '{}', want NAME=FRACTION", spec));
  }
  if (t.relative < 0.0)
    throw std::invalid_argument(
        util::format("bad --threshold '{}': fraction must be >= 0", spec));
  return t;
}

CompareResult compare_runs(const RunData& baseline, const RunData& candidate,
                           const std::vector<Threshold>& thresholds) {
  CompareResult result;
  const auto fp_a = string_field(baseline.manifest, "config_fingerprint");
  const auto fp_b = string_field(candidate.manifest, "config_fingerprint");
  result.fingerprint_mismatch = fp_a && fp_b && *fp_a != *fp_b;

  for (const Threshold& t : thresholds) {
    CompareRow row;
    row.metric = t.metric;
    row.allowed = t.relative;
    row.baseline = metric_value(baseline, t.metric);
    row.candidate = metric_value(candidate, t.metric);
    if (!row.baseline || !row.candidate) {
      row.missing = true;
      result.regressed = true;
      result.rows.push_back(std::move(row));
      continue;
    }
    const double a = *row.baseline;
    const double b = *row.candidate;
    if (a == b) {
      row.delta = 0.0;
    } else if (a == 0.0) {
      row.delta = std::copysign(std::numeric_limits<double>::infinity(),
                                b - a);
    } else {
      row.delta = (b - a) / std::abs(a);
    }
    row.regressed = higher_is_worse(t.metric) ? row.delta > t.relative
                                              : row.delta < -t.relative;
    result.regressed = result.regressed || row.regressed;
    result.rows.push_back(std::move(row));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

namespace {

std::string fmt_num(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return util::format("{:.6f}", v);
}

void append_manifest_facts(std::ostream& out, const RunData& run) {
  const auto fact = [&](const char* label, const std::string& value) {
    out << "| " << label << " | " << value << " |\n";
  };
  out << "| field | value |\n|---|---|\n";
  if (const auto tool = string_field(run.manifest, "tool"))
    fact("tool", *tool);
  if (const auto seed = number_field(run.manifest, "seed"))
    fact("seed", util::format("{}", static_cast<std::uint64_t>(*seed)));
  if (const auto fp = string_field(run.manifest, "config_fingerprint"))
    fact("config fingerprint", *fp);
  if (const auto rounds = number_field(run.manifest, "rounds"))
    fact("rounds", util::format("{}", static_cast<std::uint64_t>(*rounds)));
  if (const auto episodes = number_field(run.manifest, "episodes"))
    fact("episodes",
         util::format("{}", static_cast<std::uint64_t>(*episodes)));
  if (const auto wall = number_field(run.manifest, "wall_seconds"))
    fact("wall seconds", fmt_num(*wall));
  if (const auto score = number_field(run.manifest, "final_score"))
    fact("final score", fmt_num(*score));
  const util::json::Value* completed = run.manifest.find("completed");
  if (completed != nullptr && completed->is_bool())
    fact("completed", completed->as_bool() ? "yes" : "no");
  const util::json::Value* interrupted = run.manifest.find("interrupted");
  if (interrupted != nullptr && interrupted->is_bool() &&
      interrupted->as_bool())
    fact("interrupted", "yes");
}

void append_stats_row(std::ostream& out, const std::string& label,
                      const SeriesStats& stats) {
  out << "| " << label << " | " << stats.count << " | "
      << fmt_num(stats.mean) << " | " << fmt_num(stats.p50) << " | "
      << fmt_num(stats.p90) << " | " << fmt_num(stats.p99) << " | "
      << fmt_num(stats.p999) << " | " << fmt_num(stats.max) << " |\n";
}

constexpr const char* kStatsHeader =
    "| series | n | mean | p50 | p90 | p99 | p999 | max |\n"
    "|---|---|---|---|---|---|---|---|\n";

/// hdr entries of metrics.json as (name, stats) rows.
std::vector<std::pair<std::string, SeriesStats>> hdr_rows(
    const util::json::Value& metrics) {
  std::vector<std::pair<std::string, SeriesStats>> rows;
  const util::json::Value* list = metrics.find("metrics");
  if (list == nullptr || !list->is_array()) return rows;
  for (const util::json::Value& entry : list->as_array()) {
    if (string_field(entry, "kind") != std::string("hdr")) continue;
    const auto name = string_field(entry, "name");
    if (!name) continue;
    SeriesStats stats;
    stats.count = static_cast<std::uint64_t>(
        number_field(entry, "count").value_or(0.0));
    if (stats.count == 0) continue;
    stats.mean = number_field(entry, "mean").value_or(0.0);
    stats.min = number_field(entry, "min").value_or(0.0);
    stats.max = number_field(entry, "max").value_or(0.0);
    stats.p50 = number_field(entry, "p50").value_or(0.0);
    stats.p90 = number_field(entry, "p90").value_or(0.0);
    stats.p99 = number_field(entry, "p99").value_or(0.0);
    stats.p999 = number_field(entry, "p999").value_or(0.0);
    rows.emplace_back(*name, stats);
  }
  return rows;
}

void append_stats_json(std::ostream& out, const SeriesStats& stats) {
  out << util::format(
      "{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},"
      "\"p90\":{},\"p99\":{},\"p999\":{}}}",
      stats.count, stats.mean, stats.min, stats.max, stats.p50, stats.p90,
      stats.p99, stats.p999);
}

}  // namespace

std::string summary_markdown(const RunData& run) {
  std::ostringstream out;
  out << "# dras run: " << run.dir.string() << "\n\n";
  append_manifest_facts(out, run);
  out << "\n## round time (s)\n\n" << kStatsHeader;
  if (!run.round_wall_s.empty()) {
    append_stats_row(out, "round_wall_s (exact)",
                     exact_stats(run.round_wall_s));
  } else if (const util::json::Value* block =
                 run.manifest.find("round_wall_s")) {
    SeriesStats stats;
    stats.count = static_cast<std::uint64_t>(
        number_field(*block, "count").value_or(0.0));
    stats.mean = number_field(*block, "mean").value_or(0.0);
    stats.max = number_field(*block, "max").value_or(0.0);
    stats.p50 = number_field(*block, "p50").value_or(0.0);
    stats.p90 = number_field(*block, "p90").value_or(0.0);
    stats.p99 = number_field(*block, "p99").value_or(0.0);
    stats.p999 = number_field(*block, "p999").value_or(0.0);
    append_stats_row(out, "round_wall_s (manifest)", stats);
  }
  const auto hdrs = hdr_rows(run.metrics);
  if (!hdrs.empty()) {
    out << "\n## distributions (metrics.json, hdr)\n\n" << kStatsHeader;
    for (const auto& [name, stats] : hdrs) append_stats_row(out, name, stats);
  }
  if (const util::json::Value* stats = run.manifest.find("stats");
      stats != nullptr && stats->is_object() && !stats->as_object().empty()) {
    out << "\n## stats\n\n| stat | value |\n|---|---|\n";
    for (const auto& [name, value] : stats->as_object())
      if (value.is_number())
        out << "| " << name << " | " << fmt_num(value.as_number()) << " |\n";
  }
  return out.str();
}

std::string summary_json(const RunData& run) {
  std::ostringstream out;
  out << "{\"dir\":" << util::json::quote(run.dir.string());
  if (const auto tool = string_field(run.manifest, "tool"))
    out << ",\"tool\":" << util::json::quote(*tool);
  if (const auto seed = number_field(run.manifest, "seed"))
    out << util::format(",\"seed\":{}", static_cast<std::uint64_t>(*seed));
  if (const auto fp = string_field(run.manifest, "config_fingerprint"))
    out << ",\"config_fingerprint\":" << util::json::quote(*fp);
  if (const auto rounds = number_field(run.manifest, "rounds"))
    out << util::format(",\"rounds\":{}",
                        static_cast<std::uint64_t>(*rounds));
  if (const auto episodes = number_field(run.manifest, "episodes"))
    out << util::format(",\"episodes\":{}",
                        static_cast<std::uint64_t>(*episodes));
  if (const auto wall = number_field(run.manifest, "wall_seconds"))
    out << util::format(",\"wall_seconds\":{}", *wall);
  if (const auto score = number_field(run.manifest, "final_score"))
    out << util::format(",\"final_score\":{}", *score);
  out << ",\"round_time\":";
  append_stats_json(out, exact_stats(run.round_wall_s));
  out << ",\"hdr\":{";
  bool first = true;
  for (const auto& [name, stats] : hdr_rows(run.metrics)) {
    if (!first) out << ',';
    first = false;
    out << util::json::quote(name) << ':';
    append_stats_json(out, stats);
  }
  out << "}}\n";
  return out.str();
}

std::string compare_markdown(const RunData& baseline,
                             const RunData& candidate,
                             const CompareResult& result) {
  std::ostringstream out;
  out << "# dras_report --compare\n\n";
  out << "baseline:  " << baseline.dir.string() << "\n";
  out << "candidate: " << candidate.dir.string() << "\n\n";
  if (result.fingerprint_mismatch)
    out << "> WARNING: config fingerprints differ — comparing different "
           "configurations.\n\n";
  out << "| metric | baseline | candidate | delta | allowed | verdict |\n";
  out << "|---|---|---|---|---|---|\n";
  for (const CompareRow& row : result.rows) {
    out << "| " << row.metric << " | "
        << (row.baseline ? fmt_num(*row.baseline) : "missing") << " | "
        << (row.candidate ? fmt_num(*row.candidate) : "missing") << " | ";
    if (row.missing)
      out << "- | ";
    else
      out << util::format("{:.2f}%", row.delta * 100.0) << " | ";
    out << util::format("±{:.2f}%", row.allowed * 100.0) << " | "
        << (row.missing ? "MISSING"
                        : (row.regressed ? "REGRESSED" : "ok"))
        << " |\n";
  }
  out << "\nverdict: " << (result.regressed ? "REGRESSED" : "ok") << "\n";
  return out.str();
}

}  // namespace dras::obs::report
