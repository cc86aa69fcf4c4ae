/// \file bench_fig4_update.cpp
/// Fig. 4 / §V.A — incremental update methodology and its measured cost.
/// The paper claims "two clock cycles per rule; one cycle to store source
/// information and one clock cycle to store destination information"
/// plus "an additional clock cycle ... using hash function" — i.e. 3 bus
/// cycles for a rule whose field values are already labelled. New labels
/// additionally pay for the structure words they touch; the BST pays its
/// software-rebuild re-upload (its documented weakness, §III.C), the RVH
/// one bucket entry per new prefix. A final table replays an add/delete
/// update storm over an FW set per backend: the backend update trade as
/// deterministic device cycles.
#include <algorithm>

#include "bench_util.hpp"
#include "sdn/southbound.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;
using namespace pclass::bench;

namespace {

struct Dist {
  std::vector<u64> samples;
  void add(u64 x) { samples.push_back(x); }
  u64 pct(double p) {
    std::sort(samples.begin(), samples.end());
    if (samples.empty()) return 0;
    const auto idx = static_cast<usize>(
        p * static_cast<double>(samples.size() - 1));
    return samples[idx];
  }
};

constexpr core::IpAlgorithm kAlgs[] = {
    core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst, core::IpAlgorithm::kRvh};

}  // namespace

int main() {
  header("Fig. 4 / section V.A — incremental update cost",
         "bus cycles per FlowMod, measured on the update-bus model");

  // Bulk-load cost per rule set and configuration.
  TextTable bulk({"rule set", "config", "bulk cycles/rule"});
  for (const auto type :
       {ruleset::FilterType::kAcl, ruleset::FilterType::kFw}) {
    const Workload w = make_workload(type, 1000, 1);
    for (const auto alg : kAlgs) {
      auto clf = make_classifier(w.rules, alg,
                                 core::CombineMode::kFirstLabel);
      bulk.add_row({w.rules.name(), to_string(alg),
                    TextTable::num(
                        static_cast<double>(clf->update_stats().cycles) /
                            static_cast<double>(w.rules.size()),
                        1)});
    }
  }
  bulk.print(std::cout);

  // Incremental inserts into a warm device: split label-hit (all 7 field
  // values already labelled -> the paper's 3-cycle case) from label-miss
  // (fresh field values from an unrelated set -> structure writes).
  const Workload w = make_workload(ruleset::FilterType::kAcl, 1000, 1);
  const ruleset::RuleSet fresh_src =
      ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000, 777);
  const usize warm = w.rules.size() * 9 / 10;
  for (const auto alg : kAlgs) {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(2 * w.rules.size());
    cfg.ip_algorithm = alg;
    core::ConfigurableClassifier clf(cfg);
    for (usize i = 0; i < warm; ++i) {
      ruleset::Rule r = w.rules[i];
      clf.add_rule(r);
    }
    // Churn batch: the tail of the warm set (mostly label-hits) plus 100
    // rules drawn from an independently seeded set (mostly new labels).
    std::vector<ruleset::Rule> churn;
    for (usize i = warm; i < w.rules.size(); ++i) {
      churn.push_back(w.rules[i]);
    }
    for (usize i = 0; i < 100; ++i) {
      ruleset::Rule r = fresh_src[i];
      r.id = RuleId{50000 + static_cast<u32>(i)};
      r.priority = static_cast<Priority>(2000 + i);
      churn.push_back(r);
    }
    Dist hit, miss, del;
    usize hits = 0, misses = 0, skipped = 0;
    for (const ruleset::Rule& r : churn) {
      if (clf.installed_rule(r.id).has_value()) {
        ++skipped;
        continue;
      }
      const usize labels_before =
          clf.label_count(Dimension::kSrcIpHi) +
          clf.label_count(Dimension::kSrcIpLo) +
          clf.label_count(Dimension::kDstIpHi) +
          clf.label_count(Dimension::kDstIpLo) +
          clf.label_count(Dimension::kSrcPort) +
          clf.label_count(Dimension::kDstPort) +
          clf.label_count(Dimension::kProtocol);
      hw::UpdateStats cost;
      try {
        cost = clf.add_rule(r);
      } catch (const ConfigError&) {
        ++skipped;  // duplicate match part across the two seeded sets
        continue;
      } catch (const CapacityError&) {
        ++skipped;  // port-label space exhausted by the merged sets
        continue;
      }
      const usize labels_after =
          clf.label_count(Dimension::kSrcIpHi) +
          clf.label_count(Dimension::kSrcIpLo) +
          clf.label_count(Dimension::kDstIpHi) +
          clf.label_count(Dimension::kDstIpLo) +
          clf.label_count(Dimension::kSrcPort) +
          clf.label_count(Dimension::kDstPort) +
          clf.label_count(Dimension::kProtocol);
      if (labels_after == labels_before) {
        hit.add(cost.cycles);
        ++hits;
      } else {
        miss.add(cost.cycles);
        ++misses;
      }
    }
    for (const ruleset::Rule& r : churn) {
      if (clf.installed_rule(r.id).has_value()) {
        del.add(clf.remove_rule(r.id).cycles);
      }
    }

    std::cout << "\nconfig " << to_string(alg) << " — " << churn.size()
              << " incremental inserts (" << hits << " label-hit, "
              << misses << " label-miss, " << skipped << " skipped):\n";
    TextTable t({"operation", "min", "median", "p90", "max"});
    auto row = [&](const char* name, Dist& d) {
      if (d.samples.empty()) return;
      t.add_row({name, std::to_string(d.pct(0.0)),
                 std::to_string(d.pct(0.5)), std::to_string(d.pct(0.9)),
                 std::to_string(d.pct(1.0))});
    };
    row("insert, labels exist (paper: 3)", hit);
    row("insert, new labels", miss);
    row("delete", del);
    t.print(std::cout);
  }

  // Update storm: add/delete pairs of fresh rules streamed into a warm
  // FW device — the rule set and seed-1 update schedule of perfbench's
  // fw-thrash workload, whose device_update_us is this table's MBT
  // storm mean over the bus clock.
  const ruleset::RuleSet fw =
      workload::synthesize(workload::RulesetProfile::fw(1500));
  const std::vector<sdn::Message> storm =
      workload::make_update_storm(fw, 2000, /*first_id=*/60'000,
                                  /*seed=*/1 ^ 0x5707)
          .schedule;
  std::cout << "\nupdate storm — " << storm.size()
            << " add/delete updates into " << fw.name() << " ("
            << fw.size() << " rules):\n";
  TextTable st({"config", "bulk cycles/rule", "storm cycles/update",
                "add mean", "delete mean"});
  for (const auto alg : kAlgs) {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(fw.size() + 512);
    cfg.ip_algorithm = alg;
    core::ConfigurableClassifier clf(cfg);
    const u64 bulk_cycles = clf.add_rules(fw).cycles;
    u64 add_cycles = 0, del_cycles = 0;
    usize adds = 0, dels = 0;
    for (const sdn::Message& msg : storm) {
      const hw::UpdateStats cost = sdn::apply_message(clf, msg);
      const auto* mod = std::get_if<sdn::FlowMod>(&msg);
      if (mod != nullptr && mod->command == sdn::FlowMod::Command::kAdd) {
        add_cycles += cost.cycles;
        ++adds;
      } else {
        del_cycles += cost.cycles;
        ++dels;
      }
    }
    auto mean = [](u64 total, usize n) {
      return TextTable::num(
          n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n),
          1);
    };
    st.add_row({to_string(alg), mean(bulk_cycles, fw.size()),
                mean(add_cycles + del_cycles, adds + dels),
                mean(add_cycles, adds), mean(del_cycles, dels)});
  }
  st.print(std::cout);

  const core::ThroughputModel rate;
  std::cout << "\nlabel-hit update rate at 133.51 MHz: "
            << TextTable::num(rate.updates_per_sec(3.0) / 1e6, 1)
            << " M rules/s (the paper's fast-update headline)\n";
  return 0;
}
