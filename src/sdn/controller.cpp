#include "sdn/controller.hpp"

namespace pclass::sdn {

void Controller::broadcast(const Message& msg) {
  for (UpdateSink* sink : sinks_) {
    const hw::UpdateStats cost = sink->handle(msg);
    stats_.update_cycles_total += cost.cycles;
  }
  if (std::holds_alternative<FlowMod>(msg)) {
    ++stats_.flow_mods_sent;
  } else {
    ++stats_.config_mods_sent;
  }
}

void Controller::configure(const AppRequirement& app, usize mbt_capacity) {
  const core::IpAlgorithm alg = select_algorithm(app, mbt_capacity);
  ConfigMod mod;
  mod.ip_algorithm = alg;
  broadcast(mod);
}

void Controller::install(const ruleset::Rule& rule, ActionSpec action) {
  FlowMod fm;
  fm.command = FlowMod::Command::kAdd;
  fm.cookie = rule.id;
  fm.match = rule;
  fm.action = action;
  broadcast(fm);
}

void Controller::install_ruleset(const ruleset::RuleSet& rules) {
  for (const ruleset::Rule& r : rules) {
    install(r, ActionSpec::decode(r.action.token));
  }
}

void Controller::remove(RuleId id) {
  FlowMod fm;
  fm.command = FlowMod::Command::kDelete;
  fm.cookie = id;
  broadcast(fm);
}

}  // namespace pclass::sdn
