// Trending-news feed: continuous k-SIR queries over a live Twitter-like
// stream (the paper's motivating scenario).
//
// Generates a TwitterSim stream, feeds it to the engine bucket by bucket,
// and every 6 simulated hours refreshes the same standing query ("what is
// representative for my topics right now?"), showing how the result set
// drifts as content trends and decays inside the 24-hour sliding window.
// The refresh is an indexed subscription round: it re-answers the query
// only when some bucket since the previous refresh moved a topic the
// query weights.
//
//   $ ./trending_news
#include <cstdio>
#include <string>

#include "core/advance_summary.h"
#include "core/engine.h"
#include "stream/generator.h"
#include "subscribe/subscription_manager.h"
#include "topic/inference.h"
#include "topic/query_inference.h"

namespace {

using namespace ksir;  // NOLINT(build/namespaces) - example brevity

std::string DescribeElement(const GeneratedStream& stream,
                            const SocialElement& e) {
  // Synthetic streams have no raw text; show the dominant words instead.
  std::string out = "[";
  std::size_t shown = 0;
  for (const auto& [word, count] : e.doc.word_counts()) {
    if (shown++ == 4) break;
    if (shown > 1) out += " ";
    out += stream.vocab.WordOf(word);
  }
  out += "]";
  return out;
}

}  // namespace

int main() {
  std::printf("Trending-news example: standing k-SIR query over a live "
              "stream\n");
  std::printf("=============================================================="
              "\n");

  StreamProfile profile = TwitterSimProfile();
  profile.num_elements = 12000;
  profile.duration = 3 * 24 * 3600;  // three simulated days
  auto generated = GenerateStream(profile);
  KSIR_CHECK(generated.ok());
  const GeneratedStream& stream = *generated;

  EngineConfig config;
  config.scoring.lambda = 0.5;
  config.scoring.eta = 200.0;  // paper's Twitter setting
  config.window_length = 24 * 3600;
  config.bucket_length = 15 * 60;
  KsirEngine engine(config, &stream.model);

  // The standing query: a user interested in the two hottest synthetic
  // topics, expressed as keywords and inferred through the topic model
  // (query-by-keyword, Section 3.2).
  TopicInferencer inferencer(&stream.model);
  QueryVectorBuilder builder(&inferencer, &stream.vocab);
  // Top words of the two most popular topics serve as "keywords".
  std::vector<std::string> keywords;
  for (TopicId t : {0, 1}) {
    for (WordId w : stream.model.TopWords(t, 2)) {
      keywords.push_back(stream.vocab.WordOf(w));
    }
  }
  auto x = builder.FromKeywords(keywords);
  KSIR_CHECK(x.ok());
  std::printf("\nStanding query keywords:");
  for (const auto& kw : keywords) std::printf(" %s", kw.c_str());
  std::printf("\n");

  // Register the standing query with the subscription manager; its
  // callback renders each refresh and flags result drift.
  SubscriptionManager manager(
      [&engine](const KsirQuery& q) { return engine.Query(q); },
      SubscriptionMode::kIndexed);
  Timestamp current_time = 0;
  KsirQuery query;
  query.k = 5;
  query.x = *x;
  query.algorithm = Algorithm::kMttd;
  query.epsilon = 0.1;
  manager.Subscribe(query, [&](const SubscriptionUpdate& update) {
    const QueryResult& result = *update.result;
    std::printf(
        "\n-- t = %2lldh | window holds %5zu active elements | "
        "f(S,x) = %.3f | %.2f ms, %zu of %zu evaluated%s --\n",
        static_cast<long long>(current_time / 3600),
        engine.window().num_active(), result.score,
        result.stats.elapsed_ms, result.stats.num_evaluated,
        engine.window().num_active(),
        update.first || update.set_changed ? " | RESULT CHANGED" : "");
    for (ElementId id : result.element_ids) {
      const SocialElement* e = engine.window().Find(id);
      KSIR_CHECK(e != nullptr);
      std::printf("   e%-6lld age %5lldmin  refs-in %2zu  %s\n",
                  static_cast<long long>(id),
                  static_cast<long long>((current_time - e->ts) / 60),
                  engine.window().ReferrersOf(id).size(),
                  DescribeElement(stream, *e).c_str());
    }
  });

  // Feed the stream; refresh every 6 simulated hours once the window warmed
  // up. A refresh must see every bucket since the previous one, so the
  // buckets' touched-topic summaries are folded in as they arrive.
  const Timestamp checkpoint_every = 6 * 3600;
  AdvanceSummary since_refresh;
  Timestamp next_checkpoint = config.window_length;
  std::size_t begin = 0;
  Timestamp bucket_end = 0;
  while (begin < stream.elements.size()) {
    bucket_end += config.bucket_length;
    std::vector<SocialElement> bucket;
    while (begin < stream.elements.size() &&
           stream.elements[begin].ts <= bucket_end) {
      bucket.push_back(stream.elements[begin]);
      ++begin;
    }
    KSIR_CHECK(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());
    since_refresh = MergeAdvanceSummaries(
        {since_refresh, engine.last_advance_summary()}, engine.bucket_epoch());

    if (bucket_end >= next_checkpoint) {
      next_checkpoint += checkpoint_every;
      current_time = bucket_end;
      KSIR_CHECK(manager.EvaluateAffected(since_refresh).ok());
      since_refresh = AdvanceSummary{};
    }
  }

  const auto stats = engine.maintenance_stats();
  std::printf("\nIngestion: %lld elements in %lld buckets, %.3f ms/element "
              "maintenance.\n",
              static_cast<long long>(stats.elements_ingested),
              static_cast<long long>(stats.buckets_processed),
              stats.total_update_ms /
                  static_cast<double>(stats.elements_ingested));
  return 0;
}
