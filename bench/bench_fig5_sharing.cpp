/// \file bench_fig5_sharing.cpp
/// Fig. 5 — memory sharing between the MBT level-2 block and the BST
/// node block: one physical memory serves whichever algorithm IPalg_s
/// selects, and the capacity the inactive algorithm would have wasted
/// becomes available (the paper uses it "to collect more rules").
/// Also measures the cost of flipping IPalg_s live.
#include "bench_util.hpp"

using namespace pclass;
using namespace pclass::bench;

int main() {
  const Workload w = make_workload(ruleset::FilterType::kAcl, 5000, 1);
  header("Fig. 5 — memory sharing (MBT level-2 <-> BST nodes)",
         "workload: " + w.rules.name());

  // Shared vs dedicated synthesis: physical bits of the device.
  u64 shared_bits = 0, dedicated_bits = 0;
  {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(w.rules.size());
    cfg.share_ip_memory = true;
    core::ConfigurableClassifier clf(cfg);
    shared_bits = clf.memory_report().total_capacity_bits;
  }
  {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(w.rules.size());
    cfg.share_ip_memory = false;
    core::ConfigurableClassifier clf(cfg);
    dedicated_bits = clf.memory_report().total_capacity_bits;
  }
  TextTable t({"synthesis", "block memory bits", "Mb"});
  t.add_row({"dedicated blocks per algorithm",
             std::to_string(dedicated_bits), mb(dedicated_bits)});
  t.add_row({"shared L2/BST block (Fig. 5)", std::to_string(shared_bits),
             mb(shared_bits)});
  t.add_row({"saved by sharing", std::to_string(dedicated_bits - shared_bits),
             mb(dedicated_bits - shared_bits)});
  t.print(std::cout);

  // Live occupancy of the shared block under each binding.
  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(w.rules.size());
  cfg.share_ip_memory = true;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(w.rules);

  auto shared_usage = [&] {
    u64 cap = 0, used = 0;
    for (const auto& b : clf.memory_report().blocks) {
      if (b.name.find(".shared") != std::string::npos) {
        cap += b.capacity_bits;
        used += b.used_bits;
      }
    }
    return std::pair<u64, u64>{cap, used};
  };

  const auto [cap_mbt, used_mbt] = shared_usage();
  const auto cost_to_bst = clf.set_ip_algorithm(core::IpAlgorithm::kBst);
  const auto [cap_bst, used_bst] = shared_usage();
  const auto cost_to_mbt = clf.set_ip_algorithm(core::IpAlgorithm::kMbt);

  TextTable u({"IPalg_s binding", "shared block capacity", "live bits",
               "utilization"});
  u.add_row({"Data 1: MBT level-2 nodes", kb(cap_mbt) + " Kb",
             kb(used_mbt) + " Kb",
             TextTable::num(100.0 * static_cast<double>(used_mbt) /
                                static_cast<double>(cap_mbt),
                            1) +
                 " %"});
  u.add_row({"Data 2: BST nodes", kb(cap_bst) + " Kb", kb(used_bst) + " Kb",
             TextTable::num(100.0 * static_cast<double>(used_bst) /
                                static_cast<double>(cap_bst),
                            1) +
                 " %"});
  u.print(std::cout);

  // In BST mode, the MBT-dedicated L1/L3 blocks idle; their capacity is
  // the "rest of the memory ... used to collect more rules". A rule takes
  // a Rule Filter entry and, at worst, a partial-filter entry.
  u64 freed = 0;
  for (const auto& b : clf.memory_report().blocks) {
    if (b.name.find(".mbt.") != std::string::npos) {
      freed += b.capacity_bits;
    }
  }
  const double extra_rules =
      static_cast<double>(freed) /
      (static_cast<double>(core::RuleFilter::kWordBits +
                           core::PartialFilter::kWordBits) /
       0.7);
  std::cout << "\nBST binding frees " << mb(freed)
            << " Mb of MBT level-1/3 capacity = room for ~"
            << static_cast<u64>(extra_rules)
            << " extra rule entries (the paper's 8K->12K capacity jump)\n";

  std::cout << "\nlive reconfiguration cost (clear + rebind + rebuild of "
            << w.rules.size() << " rules):\n";
  TextTable c({"transition", "bus cycles", "config toggles"});
  c.add_row({"MBT -> BST", std::to_string(cost_to_bst.cycles),
             std::to_string(cost_to_bst.config_toggles)});
  c.add_row({"BST -> MBT", std::to_string(cost_to_mbt.cycles),
             std::to_string(cost_to_mbt.config_toggles)});
  c.print(std::cout);
  return 0;
}
