// Ablation (README, Design notes): RefreshMode::kExact (reposition elements
// whose referrers expired; exact list scores) vs RefreshMode::kPaper
// (literal Algorithm 1; stale-high scores that stay sound upper bounds).
//
// Measures both sides of the trade: maintenance cost per element (kPaper
// saves repositions) and query cost/quality (kPaper's looser bounds retrieve
// and evaluate more elements; result quality is unaffected because the
// candidates always evaluate the true f).
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace ksir;
  using namespace ksir::bench;
  PrintBanner("Ablation - ranked-list refresh on referrer expiry",
              "README, Design notes (not in the paper)");

  const std::size_t num_queries = NumQueries(GetScale());
  for (int which = 0; which < 3; ++which) {
    const Dataset dataset = MakeDataset(which);
    const auto workload = MakeWorkload(dataset, num_queries);
    std::printf("\n[%s]\n", dataset.name.c_str());
    PrintHeaderRow("mode", {"update ms/el", "MTTS ms", "MTTS eval%",
                            "MTTD ms", "MTTD eval%", "MTTD score"});
    for (const RefreshMode mode : {RefreshMode::kExact, RefreshMode::kPaper}) {
      const auto engine =
          BuildAndFeed(dataset, MakeConfig(dataset, 24 * 3600, mode));
      const auto stats = engine->maintenance_stats();
      const CellStats mtts =
          RunWorkload(*engine, workload, Algorithm::kMtts, 10, 0.1);
      const CellStats mttd =
          RunWorkload(*engine, workload, Algorithm::kMttd, 10, 0.1);
      PrintRow(mode == RefreshMode::kExact ? "exact" : "paper",
               {stats.total_update_ms /
                    static_cast<double>(stats.elements_ingested),
                mtts.mean_time_ms, 100.0 * mtts.mean_eval_ratio,
                mttd.mean_time_ms, 100.0 * mttd.mean_eval_ratio,
                mttd.mean_score},
               4);
    }
  }
  return 0;
}
