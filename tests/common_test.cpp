// Unit tests for the common substrate: Status/StatusOr, RNG and samplers,
// math helpers, SparseVector.
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/flat_hash_map.h"
#include "common/math.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "common/sparse_vector.h"
#include "common/status.h"
#include "common/timer.h"

namespace ksir {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValueWorks) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 5);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BoundedUintRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(13), 13u);
  }
}

TEST(RngTest, BoundedUintCoversAllResidues) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.NextUint64(8)];
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(19);
  for (const double shape : {0.3, 1.0, 2.5, 10.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.NextGamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.05) << "shape " << shape;
  }
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(23);
  for (const double mean : {0.5, 3.0, 50.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.NextPoisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, std::max(0.05, mean * 0.05)) << mean;
  }
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalIgnoresZeroWeights) {
  Rng rng(37);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextCategorical(weights), 1u);
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    const auto v = rng.NextDirichlet(0.1, 10);
    EXPECT_NEAR(std::accumulate(v.begin(), v.end(), 0.0), 1.0, 1e-9);
    for (double p : v) EXPECT_GE(p, 0.0);
  }
}

TEST(RngTest, SparseDirichletConcentratesMass) {
  // Small total concentration puts most mass on very few coordinates.
  Rng rng(43);
  double top_mass = 0.0;
  double significant = 0.0;  // coordinates carrying >= 5% mass
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    auto v = rng.NextDirichlet(0.01, 50);  // total concentration 0.5
    top_mass += *std::max_element(v.begin(), v.end());
    for (double p : v) {
      if (p >= 0.05) significant += 1.0;
    }
  }
  EXPECT_GT(top_mass / trials, 0.7);
  EXPECT_LT(significant / trials, 2.5);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(47);
  Rng fork = a.Fork();
  // Forked stream differs from parent continuation.
  EXPECT_NE(a.NextUint64(), fork.NextUint64());
}

TEST(ZipfSamplerTest, RanksWithinDomain) {
  Rng rng(53);
  ZipfSampler zipf(100, 1.1);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t r = zipf.Sample(&rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
  }
}

TEST(ZipfSamplerTest, LowRanksDominate) {
  Rng rng(59);
  ZipfSampler zipf(1000, 1.2);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) <= 10) ++low;
  }
  // With s=1.2 the top-10 ranks carry well over a third of the mass.
  EXPECT_GT(low, n / 3);
}

TEST(ZipfSamplerTest, SingleElementDomain) {
  Rng rng(61);
  ZipfSampler zipf(1, 1.0);
  EXPECT_EQ(zipf.Sample(&rng), 1u);
}

TEST(ZipfSamplerTest, ExponentOneIsHandled) {
  Rng rng(67);
  ZipfSampler zipf(50, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t r = zipf.Sample(&rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 50u);
  }
}

TEST(AliasTableTest, MatchesWeights) {
  Rng rng(71);
  const std::vector<double> weights = {5.0, 1.0, 0.0, 4.0};
  AliasTable table(weights);
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(&rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.4, 0.02);
}

TEST(AliasTableTest, UniformWeights) {
  Rng rng(73);
  AliasTable table(std::vector<double>(7, 1.0));
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 14000; ++i) ++counts[table.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

// ------------------------------------------------------------------ Math --

TEST(MathTest, EntropyWeightZeroAtBounds) {
  EXPECT_DOUBLE_EQ(EntropyWeight(0.0), 0.0);
  EXPECT_NEAR(EntropyWeight(1.0), 0.0, 1e-12);
}

TEST(MathTest, EntropyWeightMatchesPaperExample31) {
  // sigma_2(w4, e2): p = p_2(w4) * p_2(e2) = 0.09 * 0.74 -> 0.18 (paper).
  EXPECT_NEAR(EntropyWeight(0.09 * 0.74), 0.18, 0.005);
  // sigma_2(w9, e2): 0.07 * 0.74 -> 0.15.
  EXPECT_NEAR(EntropyWeight(0.07 * 0.74), 0.15, 0.005);
  // sigma_2(w11, e2): 0.11 * 0.74 -> 0.20.
  EXPECT_NEAR(EntropyWeight(0.11 * 0.74), 0.20, 0.005);
  // sigma_2(w4, e7): 0.09 * 0.67 -> 0.17 and sigma_2(w11, e7) -> 0.19.
  EXPECT_NEAR(EntropyWeight(0.09 * 0.67), 0.17, 0.005);
  EXPECT_NEAR(EntropyWeight(0.11 * 0.67), 0.19, 0.005);
}

TEST(MathTest, EntropyWeightPeaksAtInverseE) {
  const double peak = EntropyWeight(1.0 / std::numbers::e);
  EXPECT_GT(peak, EntropyWeight(0.2));
  EXPECT_GT(peak, EntropyWeight(0.5));
  EXPECT_NEAR(peak, 1.0 / std::numbers::e, 1e-12);
}

TEST(MathTest, NormalizeInPlaceSumsToOne) {
  std::vector<double> v = {1.0, 2.0, 7.0};
  NormalizeInPlace(&v);
  EXPECT_NEAR(v[0], 0.1, 1e-12);
  EXPECT_NEAR(v[1], 0.2, 1e-12);
  EXPECT_NEAR(v[2], 0.7, 1e-12);
}

TEST(MathTest, NormalizeZeroVectorBecomesUniform) {
  std::vector<double> v = {0.0, 0.0};
  NormalizeInPlace(&v);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
  EXPECT_DOUBLE_EQ(v[1], 0.5);
}

TEST(MathTest, CosineSimilarityBasics) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {2, 2}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0);
}

// ---------------------------------------------------------- SparseVector --

TEST(SparseVectorTest, FromEntriesSortsAndMerges) {
  const auto v = SparseVector::FromEntries({{3, 0.2}, {1, 0.5}, {3, 0.1}});
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.entries()[0].first, 1);
  EXPECT_NEAR(v.entries()[0].second, 0.5, 1e-12);
  EXPECT_EQ(v.entries()[1].first, 3);
  EXPECT_NEAR(v.entries()[1].second, 0.3, 1e-12);
}

TEST(SparseVectorTest, FromEntriesDropsNonPositive) {
  const auto v = SparseVector::FromEntries({{0, 0.0}, {1, -0.5}, {2, 0.7}});
  ASSERT_EQ(v.nnz(), 1u);
  EXPECT_EQ(v.entries()[0].first, 2);
}

TEST(SparseVectorTest, GetReturnsZeroForMissing) {
  const auto v = SparseVector::FromEntries({{2, 0.4}});
  EXPECT_DOUBLE_EQ(v.Get(2), 0.4);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 0.0);
}

TEST(SparseVectorTest, FromDenseRespectsThreshold) {
  const auto v = SparseVector::FromDense({0.0, 0.3, 0.05, 0.65}, 0.1);
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(1), 0.3);
  EXPECT_DOUBLE_EQ(v.Get(3), 0.65);
}

TEST(SparseVectorTest, TruncateAndNormalizeRenormalizes) {
  const auto v = SparseVector::TruncateAndNormalize({0.6, 0.36, 0.04}, 0.05);
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_NEAR(v.Get(0), 0.625, 1e-12);
  EXPECT_NEAR(v.Get(1), 0.375, 1e-12);
  EXPECT_NEAR(v.Sum(), 1.0, 1e-12);
}

TEST(SparseVectorTest, TruncateKeepsArgmaxWhenAllBelowThreshold) {
  const auto v = SparseVector::TruncateAndNormalize({0.02, 0.03, 0.01}, 0.05);
  ASSERT_EQ(v.nnz(), 1u);
  EXPECT_NEAR(v.Get(1), 1.0, 1e-12);
}

TEST(SparseVectorTest, DotAndCosine) {
  const auto a = SparseVector::FromEntries({{0, 1.0}, {2, 2.0}});
  const auto b = SparseVector::FromEntries({{2, 3.0}, {5, 1.0}});
  EXPECT_NEAR(SparseVector::Dot(a, b), 6.0, 1e-12);
  const double expected =
      6.0 / (std::sqrt(5.0) * std::sqrt(10.0));
  EXPECT_NEAR(SparseVector::Cosine(a, b), expected, 1e-12);
}

TEST(SparseVectorTest, CosineOfDisjointSupportsIsZero) {
  const auto a = SparseVector::FromEntries({{0, 1.0}});
  const auto b = SparseVector::FromEntries({{1, 1.0}});
  EXPECT_DOUBLE_EQ(SparseVector::Cosine(a, b), 0.0);
  EXPECT_DOUBLE_EQ(SparseVector::Cosine(a, SparseVector()), 0.0);
}

TEST(SparseVectorTest, ToDenseRoundTrips) {
  const auto v = SparseVector::FromEntries({{1, 0.25}, {3, 0.75}});
  const auto dense = v.ToDense(5);
  ASSERT_EQ(dense.size(), 5u);
  EXPECT_DOUBLE_EQ(dense[1], 0.25);
  EXPECT_DOUBLE_EQ(dense[3], 0.75);
  EXPECT_DOUBLE_EQ(dense[0] + dense[2] + dense[4], 0.0);
}

TEST(SparseVectorTest, NormalizeL1) {
  auto v = SparseVector::FromEntries({{0, 2.0}, {1, 6.0}});
  v.NormalizeL1();
  EXPECT_NEAR(v.Get(0), 0.25, 1e-12);
  EXPECT_NEAR(v.Get(1), 0.75, 1e-12);
}

TEST(SparseVectorTest, DimensionBound) {
  EXPECT_EQ(SparseVector().DimensionBound(), 0);
  EXPECT_EQ(SparseVector::FromEntries({{4, 1.0}}).DimensionBound(), 5);
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), timer.ElapsedMillis());
}

// ----------------------------------------------------------- FlatHashMap --

TEST(FlatHashMapTest, EmplaceFindContains) {
  FlatHashMap<std::int64_t, double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.find(1), map.end());

  auto [it, inserted] = map.emplace(1, 0.5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 1);
  EXPECT_DOUBLE_EQ(it->second, 0.5);
  EXPECT_TRUE(map.contains(1));
  EXPECT_EQ(map.size(), 1u);

  auto [it2, inserted2] = map.emplace(1, 9.0);
  EXPECT_FALSE(inserted2);
  EXPECT_DOUBLE_EQ(it2->second, 0.5);  // existing value untouched
}

TEST(FlatHashMapTest, TryEmplaceAndSubscript) {
  FlatHashMap<std::int32_t, std::vector<int>> map;
  map.try_emplace(3).first->second.push_back(7);
  map[3].push_back(8);
  map[4];  // default-constructs
  EXPECT_EQ(map[3], (std::vector<int>{7, 8}));
  EXPECT_TRUE(map[4].empty());
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatHashMapTest, EraseByKeyAndIterator) {
  FlatHashMap<std::int64_t, int> map;
  for (int i = 0; i < 10; ++i) map.emplace(i, i * i);
  EXPECT_EQ(map.erase(3), 1u);
  EXPECT_EQ(map.erase(3), 0u);
  map.erase(map.find(5));
  EXPECT_EQ(map.size(), 8u);
  EXPECT_FALSE(map.contains(3));
  EXPECT_FALSE(map.contains(5));
  EXPECT_TRUE(map.contains(9));
}

TEST(FlatHashMapTest, SurvivesRehashChurn) {
  FlatHashMap<std::int64_t, std::int64_t> map;
  std::unordered_map<std::int64_t, std::int64_t> reference;
  Rng rng(7);
  for (int round = 0; round < 5000; ++round) {
    const std::int64_t key = static_cast<std::int64_t>(rng.NextUint64(800));
    if (rng.NextDouble() < 0.6) {
      map[key] = round;
      reference[key] = round;
    } else {
      EXPECT_EQ(map.erase(key), reference.erase(key)) << "round " << round;
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  std::size_t seen = 0;
  for (const auto& [key, value] : map) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "key " << key;
    EXPECT_EQ(value, it->second);
    ++seen;
  }
  EXPECT_EQ(seen, reference.size());
}

TEST(FlatHashMapTest, ReserveAvoidsRehashInvalidation) {
  FlatHashMap<std::int64_t, int> map;
  map.reserve(100);
  map.emplace(1, 10);
  const auto it = map.find(1);
  for (std::int64_t i = 2; i <= 100; ++i) map.emplace(i, 0);
  EXPECT_EQ(it->second, 10);  // no rehash below the reserved size
  EXPECT_EQ(map.size(), 100u);
}

TEST(FlatHashMapTest, MoveTransfersContents) {
  FlatHashMap<std::int64_t, std::string> map;
  map.emplace(1, std::string("one"));
  map.emplace(2, std::string("two"));
  FlatHashMap<std::int64_t, std::string> moved = std::move(map);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.find(1)->second, "one");
  EXPECT_TRUE(map.empty());  // NOLINT(bugprone-use-after-move)
}

// Eight home slots at the top of the table, whatever its capacity: every
// probe run is long and wraps past slot 0.
struct WrapAroundHash {
  std::size_t operator()(std::int64_t key) const {
    return ~std::size_t{0} - static_cast<std::size_t>(key % 8);
  }
};

// Counts constructions and destructions so leaked or doubly destroyed
// values show up after erase's moves.
struct CountedValue {
  static inline std::int64_t constructed = 0;
  static inline std::int64_t destroyed = 0;

  explicit CountedValue(std::int64_t v = 0) : value(v) { ++constructed; }
  CountedValue(const CountedValue& other) : value(other.value) {
    ++constructed;
  }
  CountedValue(CountedValue&& other) noexcept : value(other.value) {
    ++constructed;
  }
  CountedValue& operator=(const CountedValue&) = default;
  CountedValue& operator=(CountedValue&&) noexcept = default;
  ~CountedValue() { ++destroyed; }

  std::int64_t value;
};

// A sliding window inserts and erases at the same rate. With backward-shift
// deletion the table keeps its capacity at constant size, even at the 3/4
// load bound, no step rebuilds it in place, and no entry becomes
// unreachable.
TEST(FlatHashMapTest, SteadyChurnKeepsCapacityAndKeys) {
  FlatHashMap<std::int64_t, CountedValue> map;
  constexpr std::int64_t kLive = 767;  // one insert ahead reaches 768 = 3/4
  for (std::int64_t key = 0; key < kLive; ++key) map.emplace(key, key);
  const std::size_t capacity = map.capacity();
  ASSERT_EQ(capacity, 1024u);
  std::int64_t next = kLive;
  const std::int64_t steps = 100 * static_cast<std::int64_t>(capacity);
  for (std::int64_t step = 0; step < steps; ++step, ++next) {
    const std::int64_t constructed_before = CountedValue::constructed;
    map.emplace(next, next);
    ASSERT_EQ(map.erase(next - kLive), 1u) << "step " << step;
    ASSERT_EQ(map.capacity(), capacity) << "step " << step;
    // A rehash would move every live entry; an erase moves only the rest
    // of its probe run.
    ASSERT_LT(CountedValue::constructed - constructed_before, kLive / 4)
        << "step " << step;
    if (step % static_cast<std::int64_t>(capacity) == 0) {
      for (std::int64_t key = next + 1 - kLive; key <= next; ++key) {
        const auto it = map.find(key);
        ASSERT_NE(it, map.end()) << "step " << step << " key " << key;
        ASSERT_EQ(it->second.value, key);
      }
    }
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kLive));
  for (std::int64_t key = next - kLive; key < next; ++key) {
    const auto it = map.find(key);
    ASSERT_NE(it, map.end()) << "key " << key;
    EXPECT_EQ(it->second.value, key);
  }
  EXPECT_FALSE(map.contains(next - kLive - 1));
}

TEST(FlatHashMapTest, WrappingRunsMatchUnorderedMap) {
  CountedValue::constructed = 0;
  CountedValue::destroyed = 0;
  {
    FlatHashMap<std::int64_t, CountedValue, WrapAroundHash> map;
    std::unordered_map<std::int64_t, std::int64_t> reference;
    Rng rng(11);
    const auto expect_same = [&](int round) {
      ASSERT_EQ(map.size(), reference.size()) << "round " << round;
      for (const auto& [key, value] : reference) {
        const auto it = map.find(key);
        ASSERT_NE(it, map.end()) << "round " << round << " key " << key;
        ASSERT_EQ(it->second.value, value) << "round " << round;
      }
      std::size_t seen = 0;
      for (const auto& [key, value] : map) {
        ASSERT_EQ(reference.count(key), 1u) << "round " << round;
        ++seen;
      }
      ASSERT_EQ(seen, reference.size()) << "round " << round;
    };
    constexpr int kRounds = 20000;
    for (int round = 0; round < kRounds; ++round) {
      // Grow for the first half, shrink for the second, so the table
      // passes through several capacities in both directions of load.
      const double insert_share = round < kRounds / 2 ? 0.65 : 0.35;
      const auto key = static_cast<std::int64_t>(rng.NextUint64(300));
      if (rng.NextDouble() < insert_share) {
        map[key] = CountedValue(round);
        reference[key] = round;
      } else {
        ASSERT_EQ(map.erase(key), reference.erase(key)) << "round " << round;
      }
      if (round % 97 == 0) expect_same(round);
    }
    expect_same(kRounds);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(CountedValue::constructed, CountedValue::destroyed);
    for (std::int64_t key = 0; key < 40; ++key) map.emplace(key, key);
    for (std::int64_t key = 0; key < 40; key += 3) map.erase(key);
  }
  EXPECT_EQ(CountedValue::constructed, CountedValue::destroyed);
}

TEST(FlatHashMapTest, PrefetchChangesNoLookup) {
  // Capacity 0: no table to touch, and the map stays empty.
  FlatHashMap<std::int64_t, int> empty;
  empty.Prefetch(7);
  EXPECT_EQ(empty.capacity(), 0u);
  EXPECT_FALSE(empty.contains(7));
  EXPECT_EQ(empty.find(7), empty.end());

  // After erases (backward shifts through wrapping runs): prefetching any
  // key, present or not, leaves size, capacity and every lookup as is.
  FlatHashMap<std::int64_t, int, WrapAroundHash> map;
  for (std::int64_t key = 0; key < 40; ++key) map.emplace(key, 10 * key);
  for (std::int64_t key = 0; key < 40; key += 3) map.erase(key);
  const std::size_t size = map.size();
  const std::size_t capacity = map.capacity();
  for (std::int64_t key = -5; key < 45; ++key) map.Prefetch(key);
  EXPECT_EQ(map.size(), size);
  EXPECT_EQ(map.capacity(), capacity);
  for (std::int64_t key = -5; key < 45; ++key) {
    const bool present = key >= 0 && key < 40 && key % 3 != 0;
    const auto it = map.find(key);
    ASSERT_EQ(it != map.end(), present) << "key " << key;
    if (present) {
      EXPECT_EQ(it->second, 10 * key);
    }
  }
  map.clear();
  map.Prefetch(1);  // cleared but still allocated
  EXPECT_FALSE(map.contains(1));
}

// ----------------------------------------------------------- SmallVector --

TEST(SmallVectorTest, StaysInlineUpToN) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVectorTest, EraseShiftsTail) {
  SmallVector<int, 2> v{1, 2, 3, 4, 5};
  v.erase(v.begin(), v.begin() + 2);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.front(), 3);
  v.erase(v.begin() + 1);
  EXPECT_EQ(v, (SmallVector<int, 2>{3, 5}));
}

TEST(SmallVectorTest, MoveStealsHeapKeepsInline) {
  SmallVector<std::string, 2> inline_v{"a", "b"};
  SmallVector<std::string, 2> from_inline = std::move(inline_v);
  EXPECT_EQ(from_inline.size(), 2u);
  EXPECT_EQ(from_inline[0], "a");

  SmallVector<std::string, 2> heap_v{"a", "b", "c", "d"};
  const std::string* data = heap_v.begin();
  SmallVector<std::string, 2> from_heap = std::move(heap_v);
  EXPECT_EQ(from_heap.begin(), data);  // buffer stolen, not copied
  EXPECT_EQ(from_heap.size(), 4u);
  EXPECT_TRUE(heap_v.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(SmallVectorTest, CopyAndClearReuse) {
  SmallVector<int, 2> v{1, 2, 3};
  SmallVector<int, 2> copy = v;
  EXPECT_EQ(copy, v);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(copy.size(), 3u);
  v.push_back(9);
  EXPECT_EQ(v[0], 9);
}

// ----------------------------------------------------------------- Arena --

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(64);
  auto* a = arena.AllocateArray<std::uint64_t>(4);
  auto* b = arena.AllocateArray<std::uint32_t>(3);
  auto* c = arena.AllocateArray<double>(8);  // spills into a second block
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(std::uint64_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::uint32_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % alignof(double), 0u);
  for (int i = 0; i < 4; ++i) a[i] = 11;
  for (int i = 0; i < 3; ++i) b[i] = 22;
  for (int i = 0; i < 8; ++i) c[i] = 3.5;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a[i], 11u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(b[i], 22u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(c[i], 3.5);
}

TEST(ArenaTest, ResetReusesRetainedBlocks) {
  Arena arena(128);
  void* first = arena.Allocate(100, 8);
  arena.Allocate(100, 8);  // forces a second block
  const std::size_t reserved = arena.bytes_reserved();
  arena.Reset();
  // Steady state: the same storage is handed out again, nothing new grows.
  EXPECT_EQ(arena.Allocate(100, 8), first);
  arena.Allocate(100, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedBlock) {
  Arena arena(32);
  auto* big = arena.AllocateArray<unsigned char>(1000);
  big[0] = 1;
  big[999] = 2;
  EXPECT_EQ(big[0], 1);
  EXPECT_EQ(big[999], 2);
  EXPECT_GE(arena.bytes_reserved(), 1000u);
}

TEST(ObjectPoolTest, DestroyedSlotsAreRecycled) {
  struct Tracked {
    explicit Tracked(int* counter) : counter(counter) { ++*counter; }
    ~Tracked() { --*counter; }
    int* counter;
    int payload[4] = {0, 0, 0, 0};
  };
  int live = 0;
  ObjectPool<Tracked> pool;
  Tracked* a = pool.Create(&live);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(pool.live(), 1u);
  pool.Destroy(a);
  EXPECT_EQ(live, 0);
  // The freed slot is reused for the next Create.
  Tracked* b = pool.Create(&live);
  EXPECT_EQ(static_cast<void*>(b), static_cast<void*>(a));
  Tracked* c = pool.Create(&live);
  EXPECT_EQ(live, 2);
  EXPECT_EQ(pool.live(), 2u);
  pool.Destroy(b);
  pool.Destroy(c);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(ObjectPoolTest, ManyObjectsWithNonTrivialState) {
  ObjectPool<std::vector<int>> pool;
  std::vector<std::vector<int>*> objects;
  for (int i = 0; i < 300; ++i) {
    objects.push_back(pool.Create(std::vector<int>(7, i)));
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(objects[static_cast<std::size_t>(i)]->size(), 7u);
    EXPECT_EQ((*objects[static_cast<std::size_t>(i)])[0], i);
  }
  for (int i = 0; i < 300; i += 2) {
    pool.Destroy(objects[static_cast<std::size_t>(i)]);
  }
  // Recycled slots interleave with fresh arena slots.
  for (int i = 0; i < 200; ++i) {
    auto* v = pool.Create(std::vector<int>(3, -i));
    ASSERT_EQ(v->size(), 3u);
    objects.push_back(v);
  }
  for (int i = 1; i < 300; i += 2) {
    pool.Destroy(objects[static_cast<std::size_t>(i)]);
  }
  for (std::size_t i = 300; i < objects.size(); ++i) {
    pool.Destroy(objects[i]);
  }
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace ksir
