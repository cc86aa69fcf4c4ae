/// \file bench_ablation_labels.cpp
/// Ablation B — what the label method actually buys (§III.C): unique
/// field storage vs replicated storage (the paper's >50 % claim), and
/// the content-addressed label-list store's deduplication of leaf-pushed
/// trie lists (identical lists stored once, ref-counted).
#include "bench_util.hpp"

using namespace pclass;
using namespace pclass::bench;

int main() {
  header("Ablation — label method storage effect",
         "field storage (rule-set level) and live list storage "
         "(device level, MBT configuration)");

  TextTable t({"workload", "replicated Kb", "unique-only Kb", "saving",
               "distinct lists", "list refs", "live words",
               "no-dedup words", "dedup factor"});
  for (const auto type : {ruleset::FilterType::kAcl, ruleset::FilterType::kFw,
                          ruleset::FilterType::kIpc}) {
    for (const usize nominal : {usize{1000}, usize{10000}}) {
      const Workload w = make_workload(type, nominal, 1);
      const auto st = ruleset::RuleSetStats::analyze(w.rules);
      auto clf = make_classifier(w.rules, core::IpAlgorithm::kMbt,
                                 core::CombineMode::kFirstLabel);

      usize distinct = 0;
      u64 refs = 0, live = 0, replicated = 0;
      for (usize i = 0; i < 4; ++i) {
        const auto& store = clf->label_store(i);
        distinct += store.distinct_lists();
        refs += store.total_references();
        live += store.live_words();
        replicated += store.replicated_words();
      }
      t.add_row({w.rules.name(), kb(st.field_bits_replicated),
                 kb(st.field_bits_unique_only),
                 TextTable::num(100.0 * st.unique_only_saving(), 1) + " %",
                 std::to_string(distinct), std::to_string(refs),
                 std::to_string(live), std::to_string(replicated),
                 TextTable::num(static_cast<double>(replicated) /
                                    static_cast<double>(std::max<u64>(1,
                                                                      live)),
                                1) +
                     "x"});
    }
  }
  t.print(std::cout);
  std::cout << "\nreading: the >50% unique-field saving of Table II holds "
               "on every workload; on top of it, content addressing "
               "shrinks the list storage by the dedup factor (prefix "
               "expansion puts one list on several sibling entries). Trie "
               "entries without a prefix of their own store a null "
               "pointer and inherit their ancestor's list, so they hold "
               "no reference.\n";
  return 0;
}
