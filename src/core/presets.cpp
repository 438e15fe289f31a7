#include "core/presets.h"

namespace dras::core {

nn::NetworkConfig SystemPreset::pg_network() const {
  return agent_config(AgentKind::PG, 0).network_config();
}

nn::NetworkConfig SystemPreset::dql_network() const {
  return agent_config(AgentKind::DQL, 0).network_config();
}

DrasConfig SystemPreset::agent_config(AgentKind kind,
                                      std::uint64_t seed) const {
  DrasConfig cfg;
  cfg.kind = kind;
  cfg.total_nodes = nodes;
  cfg.window = window;
  cfg.fc1 = fc1;
  cfg.fc2 = fc2;
  cfg.time_scale = max_walltime;
  cfg.reward_kind = reward;
  cfg.seed = seed;
  return cfg;
}

SystemPreset theta() {
  SystemPreset p;
  p.name = "theta";
  p.nodes = 4360;
  p.window = 50;
  p.fc1 = 4000;
  p.fc2 = 1000;
  p.reward = RewardKind::Capability;
  p.max_walltime = 86400.0;  // 1 day (Table II)
  return p;
}

SystemPreset cori() {
  SystemPreset p;
  p.name = "cori";
  p.nodes = 12076;
  p.window = 50;
  p.fc1 = 10000;
  p.fc2 = 4000;
  p.reward = RewardKind::Capacity;
  p.max_walltime = 7.0 * 86400.0;  // 7 days (Table II)
  return p;
}

SystemPreset theta_mini() {
  SystemPreset p;
  p.name = "theta-mini";
  p.nodes = 272;  // 4360 / 16, rounded to keep 128/16 = 8-node granularity
  p.window = 10;
  p.fc1 = 256;
  p.fc2 = 64;
  p.reward = RewardKind::Capability;
  p.max_walltime = 86400.0;
  return p;
}

SystemPreset cori_mini() {
  SystemPreset p;
  p.name = "cori-mini";
  p.nodes = 256;
  p.window = 10;
  p.fc1 = 256;
  p.fc2 = 64;
  p.reward = RewardKind::Capacity;
  p.max_walltime = 2.0 * 86400.0;  // mini model caps runtimes at 2 days
  return p;
}

}  // namespace dras::core
