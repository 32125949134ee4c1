// Unit tests for the stream substrate: element serialization and the
// synthetic generator's statistical targets (Table 3 calibration).
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "stream/generator.h"
#include "stream/stream_io.h"

namespace ksir {
namespace {

SocialElement MakeElement(ElementId id, Timestamp ts,
                          std::vector<WordId> words,
                          std::vector<ElementId> refs) {
  SocialElement e;
  e.id = id;
  e.ts = ts;
  e.doc = Document::FromWordIds(words);
  e.refs = std::move(refs);
  e.topics = SparseVector::FromEntries({{0, 0.4}, {1, 0.6}});
  return e;
}

// ---------------------------------------------------------------- TSV I/O --

TEST(StreamIoTest, RoundTrip) {
  std::vector<SocialElement> elements;
  elements.push_back(MakeElement(1, 10, {0, 0, 3}, {}));
  elements.push_back(MakeElement(2, 20, {1}, {1}));
  elements.push_back(MakeElement(3, 20, {}, {1, 2}));

  std::stringstream buffer;
  ASSERT_TRUE(WriteStreamTsv(elements, &buffer).ok());
  auto loaded = ReadStreamTsv(&buffer);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[0].id, 1);
  EXPECT_EQ((*loaded)[0].ts, 10);
  EXPECT_EQ((*loaded)[0].doc.FrequencyOf(0), 2);
  EXPECT_EQ((*loaded)[0].doc.FrequencyOf(3), 1);
  EXPECT_TRUE((*loaded)[0].refs.empty());
  EXPECT_EQ((*loaded)[1].refs, (std::vector<ElementId>{1}));
  EXPECT_EQ((*loaded)[2].refs, (std::vector<ElementId>{1, 2}));
  EXPECT_NEAR((*loaded)[1].topics.Get(1), 0.6, 1e-12);
}

TEST(StreamIoTest, EmptyDocAndTopicsSerialized) {
  SocialElement e = MakeElement(5, 7, {}, {});
  e.topics = SparseVector();
  std::stringstream buffer;
  ASSERT_TRUE(WriteStreamTsv({e}, &buffer).ok());
  auto loaded = ReadStreamTsv(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)[0].doc.empty());
  EXPECT_TRUE((*loaded)[0].topics.empty());
}

TEST(StreamIoTest, RejectsDuplicateIds) {
  std::stringstream buffer;
  ASSERT_TRUE(WriteStreamTsv({MakeElement(1, 1, {0}, {}),
                              MakeElement(1, 2, {0}, {})},
                             &buffer)
                  .ok());
  EXPECT_FALSE(ReadStreamTsv(&buffer).ok());
}

TEST(StreamIoTest, RejectsDecreasingTimestamps) {
  std::stringstream buffer("1\t5\t-\t-\t-\n2\t4\t-\t-\t-\n");
  EXPECT_FALSE(ReadStreamTsv(&buffer).ok());
}

TEST(StreamIoTest, RejectsMalformedLines) {
  {
    std::stringstream buffer("1\t5\t-\t-\n");  // 4 fields
    EXPECT_FALSE(ReadStreamTsv(&buffer).ok());
  }
  {
    std::stringstream buffer("x\t5\t-\t-\t-\n");  // bad id
    EXPECT_FALSE(ReadStreamTsv(&buffer).ok());
  }
  {
    std::stringstream buffer("1\t5\t3:0\t-\t-\n");  // zero count
    EXPECT_FALSE(ReadStreamTsv(&buffer).ok());
  }
  {
    std::stringstream buffer("1\t5\t-\t-\t0:-1\n");  // negative prob
    EXPECT_FALSE(ReadStreamTsv(&buffer).ok());
  }
}

TEST(StreamIoTest, RejectsNonFiniteProbabilities) {
  // std::from_chars parses "nan" and "inf"; neither may reach the engine.
  for (const char* prob : {"nan", "inf", "-nan", "infinity"}) {
    std::stringstream buffer(std::string("1\t5\t-\t-\t0:0.5\n") +
                             "2\t6\t-\t-\t3:" + prob + "\n");
    const auto loaded = ReadStreamTsv(&buffer);
    ASSERT_FALSE(loaded.ok()) << prob;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << prob;
    EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(StreamIoTest, HugeWordCountParsesWithoutPerTokenMemory) {
  // Expanding the count into one id per token would need 8 GB here.
  std::stringstream buffer("1\t0\t5:2000000000\t-\t0:1\n");
  const auto loaded = ReadStreamTsv(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Document& doc = (*loaded)[0].doc;
  EXPECT_EQ(doc.num_distinct_words(), 1u);
  EXPECT_EQ(doc.FrequencyOf(5), 2000000000);
  EXPECT_EQ(doc.num_tokens(), 2000000000);
}

TEST(StreamIoTest, MergesRepeatedWordsAndRejectsCountOverflow) {
  {
    std::stringstream buffer("1\t0\t7:2,3:1,7:5\t-\t-\n");
    const auto loaded = ReadStreamTsv(&buffer);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)[0].doc, Document::FromWordIds({3, 7, 7, 7, 7, 7, 7,
                                                       7}));
    EXPECT_EQ((*loaded)[0].doc.num_tokens(), 8);
  }
  {
    // Each count fits in int32; their sum does not.
    std::stringstream buffer(
        "1\t0\t0:1\t-\t-\n"
        "2\t1\t5:2000000000,9:1,5:2000000000\t-\t-\n");
    const auto loaded = ReadStreamTsv(&buffer);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(StreamIoTest, SkipsBlankLines) {
  std::stringstream buffer("\n1\t5\t0:1\t-\t-\n\n");
  auto loaded = ReadStreamTsv(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

// -------------------------------------------------------------- Generator --

TEST(GeneratorTest, RejectsInvalidProfiles) {
  StreamProfile p;
  p.num_elements = 0;
  EXPECT_FALSE(GenerateStream(p).ok());
  p = StreamProfile{};
  p.vocab_size = 0;
  EXPECT_FALSE(GenerateStream(p).ok());
  p = StreamProfile{};
  p.num_topics = 0;
  EXPECT_FALSE(GenerateStream(p).ok());
  p = StreamProfile{};
  p.duration = 0;
  EXPECT_FALSE(GenerateStream(p).ok());
}

class GeneratorStatsTest : public ::testing::TestWithParam<StreamProfile> {};

TEST_P(GeneratorStatsTest, MatchesProfileTargets) {
  StreamProfile profile = GetParam();
  profile.num_elements = 6000;  // enough for tight statistics, still fast
  auto stream = GenerateStream(profile);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream->elements.size(), profile.num_elements);

  // Timestamps are positive, sorted, and span the requested duration.
  Timestamp last = 0;
  double total_len = 0.0;
  double total_refs = 0.0;
  for (const SocialElement& e : stream->elements) {
    EXPECT_GE(e.ts, 1);
    EXPECT_GE(e.ts, last);
    last = e.ts;
    total_len += static_cast<double>(e.doc.num_tokens());
    total_refs += static_cast<double>(e.refs.size());
    EXPECT_NEAR(e.topics.Sum(), 1.0, 1e-9);
    EXPECT_GE(e.topics.nnz(), 1u);
  }
  EXPECT_NEAR(static_cast<double>(last),
              static_cast<double>(profile.duration),
              static_cast<double>(profile.duration) * 0.01);

  const double n = static_cast<double>(profile.num_elements);
  EXPECT_NEAR(total_len / n, profile.avg_length, profile.avg_length * 0.1)
      << profile.name << " average length off target";
  EXPECT_NEAR(total_refs / n, profile.avg_references,
              profile.avg_references * 0.15 + 0.02)
      << profile.name << " average references off target";
}

TEST_P(GeneratorStatsTest, ReferencesPointBackwardWithinHorizon) {
  StreamProfile profile = GetParam();
  profile.num_elements = 3000;
  auto stream = GenerateStream(profile);
  ASSERT_TRUE(stream.ok());
  std::unordered_map<ElementId, Timestamp> ts_of;
  for (const SocialElement& e : stream->elements) ts_of[e.id] = e.ts;
  for (const SocialElement& e : stream->elements) {
    std::unordered_set<ElementId> seen;
    for (ElementId ref : e.refs) {
      ASSERT_TRUE(ts_of.contains(ref));
      EXPECT_LT(ts_of[ref], e.ts) << "references must point strictly back";
      EXPECT_GE(ts_of[ref], e.ts - profile.ref_horizon);
      EXPECT_TRUE(seen.insert(ref).second) << "duplicate reference target";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, GeneratorStatsTest,
    ::testing::Values(AMinerSimProfile(), RedditSimProfile(),
                      TwitterSimProfile()),
    [](const ::testing::TestParamInfo<StreamProfile>& param_info) {
      return param_info.param.name;
    });

TEST(GeneratorTest, DeterministicForSeed) {
  StreamProfile p = TwitterSimProfile();
  p.num_elements = 500;
  auto a = GenerateStream(p);
  auto b = GenerateStream(p);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a->elements.size(); ++i) {
    EXPECT_EQ(a->elements[i].ts, b->elements[i].ts);
    EXPECT_EQ(a->elements[i].doc, b->elements[i].doc);
    EXPECT_EQ(a->elements[i].refs, b->elements[i].refs);
    EXPECT_EQ(a->elements[i].topics, b->elements[i].topics);
  }
}

TEST(GeneratorTest, TopicVectorsAreSparse) {
  StreamProfile p = RedditSimProfile();
  p.num_elements = 2000;
  auto stream = GenerateStream(p);
  ASSERT_TRUE(stream.ok());
  double total_nnz = 0.0;
  for (const SocialElement& e : stream->elements) {
    total_nnz += static_cast<double>(e.topics.nnz());
  }
  // Matches the paper's observation: fewer than ~2 topics per element.
  EXPECT_LT(total_nnz / static_cast<double>(stream->elements.size()), 2.5);
}

TEST(GeneratorTest, GroundTruthModelIsValid) {
  StreamProfile p = AMinerSimProfile();
  p.num_elements = 100;
  auto stream = GenerateStream(p);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->model.num_topics(),
            static_cast<std::size_t>(p.num_topics));
  EXPECT_EQ(stream->model.vocab_size(), p.vocab_size);
  EXPECT_EQ(stream->vocab.size(), p.vocab_size);
  for (TopicId t = 0; t < p.num_topics; ++t) {
    const auto& row = stream->model.TopicRow(t);
    double sum = 0.0;
    for (double v : row) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(GeneratorTest, ReferencesFavorTopicalAffinity) {
  StreamProfile p = TwitterSimProfile();
  p.num_elements = 4000;
  auto stream = GenerateStream(p);
  ASSERT_TRUE(stream.ok());
  std::unordered_map<ElementId, const SocialElement*> by_id;
  for (const SocialElement& e : stream->elements) by_id[e.id] = &e;

  // Mean topical similarity of actual reference pairs should clearly exceed
  // the similarity of random pairs.
  double ref_sim = 0.0;
  std::size_t ref_count = 0;
  for (const SocialElement& e : stream->elements) {
    for (ElementId ref : e.refs) {
      ref_sim += SparseVector::Dot(e.topics, by_id[ref]->topics);
      ++ref_count;
    }
  }
  ASSERT_GT(ref_count, 100u);
  ref_sim /= static_cast<double>(ref_count);

  double random_sim = 0.0;
  std::size_t random_count = 0;
  for (std::size_t i = 0; i + 1 < stream->elements.size();
       i += 7, ++random_count) {
    random_sim += SparseVector::Dot(stream->elements[i].topics,
                                    stream->elements[i + 1].topics);
  }
  random_sim /= static_cast<double>(random_count);
  EXPECT_GT(ref_sim, random_sim * 1.5);
}

}  // namespace
}  // namespace ksir
