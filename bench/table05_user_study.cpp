// Table 5: the user study, reproduced with proxy raters (README, Design notes).
//
// 20 trending-topic queries per dataset; five methods (TF-IDF, DIV, Sumblr,
// REL, k-SIR) each return five elements; three simulated raters rank the
// result sets on representativeness and impact (1..5); mean ratings and the
// mean pairwise linearly weighted kappa are reported.
//
// Expected shape (paper): k-SIR highest on both aspects in all datasets;
// Sumblr second on impact; TF-IDF/REL suffer on coverage, DIV on relevance.
#include <cstdio>

#include "bench_util.h"
#include "eval/user_study.h"
#include "search/div.h"
#include "search/rel.h"
#include "search/sumblr.h"
#include "search/tfidf.h"
#include "topic/inference.h"

namespace {

using namespace ksir;
using namespace ksir::bench;

// Trending-topic queries: the topical words of the most popular synthetic
// topics (the generator's topic prior is Zipfian, so low topic ids trend).
std::vector<QuerySpec> TrendingQueries(const Dataset& dataset,
                                       std::size_t count) {
  InferenceOptions options;
  options.iterations = 20;
  options.burn_in = 8;
  TopicInferencer inferencer(&dataset.stream.model, options);
  std::vector<QuerySpec> queries;
  for (std::size_t q = 0; q < count; ++q) {
    QuerySpec spec;
    const auto topic = static_cast<TopicId>(
        q % std::min<std::size_t>(dataset.stream.model.num_topics(), 10));
    // 3 topical words of a trending topic, offset per query for variety.
    const auto top_words = dataset.stream.model.TopWords(topic, 3 + q / 10);
    for (std::size_t i = (q / 10) * 1; i < top_words.size(); ++i) {
      spec.keywords.push_back(top_words[i]);
    }
    spec.x = inferencer.InferSparse(Document::FromWordIds(spec.keywords), q);
    spec.x.NormalizeL1();
    queries.push_back(std::move(spec));
  }
  return queries;
}

}  // namespace

int main() {
  PrintBanner("Table 5 - user study with proxy raters",
              "EDBT'19 Table 5 (simulated; see README, Design notes)");

  constexpr int kResultSize = 5;  // the paper returns sets of five elements
  for (int which = 0; which < 3; ++which) {
    const Dataset dataset = MakeDataset(which);
    const auto engine = BuildAndFeed(dataset, MakeConfig(dataset));
    const auto& window = engine->window();
    const TfIdfIndex tfidf = TfIdfIndex::Build(window);
    const auto queries = TrendingQueries(dataset, 20);

    std::vector<std::vector<StudyEntry>> study_queries;
    std::vector<SparseVector> vectors;
    for (const QuerySpec& spec : queries) {
      std::vector<StudyEntry> entries;
      entries.push_back(
          StudyEntry{"TF-IDF", tfidf.TopK(spec.keywords, kResultSize)});
      entries.push_back(
          StudyEntry{"DIV", DivTopK(tfidf, spec.keywords, kResultSize)});
      entries.push_back(StudyEntry{
          "Sumblr", SumblrSummarize(window, tfidf, spec.keywords, kResultSize,
                                    dataset.stream.model.num_topics())});
      entries.push_back(
          StudyEntry{"REL", RelevanceTopK(window, spec.x, kResultSize)});
      KsirQuery query;
      query.k = kResultSize;
      query.x = spec.x;
      query.algorithm = Algorithm::kMttd;
      query.epsilon = 0.1;
      const auto ksir_result = engine->Query(query);
      KSIR_CHECK(ksir_result.ok());
      entries.push_back(StudyEntry{"k-SIR", ksir_result->element_ids});
      study_queries.push_back(std::move(entries));
      vectors.push_back(spec.x);
    }

    const auto study = RunProxyUserStudy(window, study_queries, vectors);
    KSIR_CHECK(study.ok());
    std::printf("\n[%s]  (kappa: represent. %.2f, impact %.2f)\n",
                dataset.name.c_str(), study->kappa_representativeness,
                study->kappa_impact);
    std::printf("%-10s %-18s %-10s\n", "method", "representativeness",
                "impact");
    std::printf("----------------------------------------\n");
    for (const MethodRating& rating : study->ratings) {
      std::printf("%-10s %-18.2f %-10.2f\n", rating.method.c_str(),
                  rating.representativeness, rating.impact);
    }
  }
  return 0;
}
