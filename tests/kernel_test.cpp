// Contracts of the canonical reductions in kernels.h and of the stamped
// scatter-add that folds sparse topic vectors into a dense row. The
// reductions are pinned bitwise against a hand-written four-lane
// reference, (l0 + l2) + (l1 + l3): every score and cursor upper bound of
// the engine depends on that exact summation order.
#include "common/kernels/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/stamped_accumulator.h"

namespace ksir {
namespace kernels {
namespace {

bool BitEqual(double a, double b) {
  std::uint64_t ua;
  std::uint64_t ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Lane j sums the terms with index ≡ j (mod 4); the lanes combine as
// (l0 + l2) + (l1 + l3).
double ReferenceSum(const std::vector<double>& terms) {
  double l0 = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double l3 = 0.0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    switch (i % 4) {
      case 0: l0 += terms[i]; break;
      case 1: l1 += terms[i]; break;
      case 2: l2 += terms[i]; break;
      default: l3 += terms[i]; break;
    }
  }
  return (l0 + l2) + (l1 + l3);
}

std::vector<double> RandomDoubles(std::mt19937* rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = dist(*rng);
    if (std::abs(x) < 0.3) x = (x < 0.0) ? -0.0 : 0.0;  // exercise +-0.0
  }
  return v;
}

TEST(KernelTest, DenseDotMatchesFourLaneReference) {
  std::mt19937 rng(2718);
  for (std::size_t n = 0; n <= 9; ++n) {
    for (int round = 0; round < 16; ++round) {
      const std::vector<double> a = RandomDoubles(&rng, n);
      const std::vector<double> b = RandomDoubles(&rng, n);
      std::vector<double> products(n);
      for (std::size_t i = 0; i < n; ++i) products[i] = a[i] * b[i];
      const double got = DenseDot(a.data(), b.data(), n);
      EXPECT_TRUE(BitEqual(got, ReferenceSum(products)))
          << "n=" << n << " got=" << got;
    }
  }
}

TEST(KernelTest, SumSquaresMatchesFourLaneReferenceAtStrides1And2) {
  std::mt19937 rng(31337);
  for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
    for (std::size_t n = 0; n <= 9; ++n) {
      for (int round = 0; round < 16; ++round) {
        // Exactly the doubles the strided walk may read: for stride 2 this
        // is the value half of an (int32, double) entry array.
        const std::size_t len = n == 0 ? 0 : (n - 1) * stride + 1;
        const std::vector<double> v = RandomDoubles(&rng, len);
        std::vector<double> squares(n);
        for (std::size_t i = 0; i < n; ++i) {
          squares[i] = v[i * stride] * v[i * stride];
        }
        EXPECT_TRUE(BitEqual(SumSquares(v.data(), n, stride),
                             ReferenceSum(squares)))
            << "n=" << n << " stride=" << stride;
      }
    }
  }
}

TEST(KernelTest, ReductionsKeepTheCanonicalOrderAndSignedZeros) {
  // A sequential sum gives ((1e16 + 1) - 1e16) + 1 = 1; the four-lane
  // order gives (1e16 - 1e16) + (1 + 1) = 2.
  const std::vector<double> a = {1e16, 1.0, -1e16, 1.0};
  const std::vector<double> ones(4, 1.0);
  EXPECT_EQ(DenseDot(a.data(), ones.data(), 4), 2.0);

  // Lanes start at +0.0, so all-negative-zero terms sum to +0.0.
  const std::vector<double> neg_zero(5, -0.0);
  EXPECT_TRUE(BitEqual(DenseDot(neg_zero.data(), ones.data(), 4), 0.0));
  EXPECT_TRUE(BitEqual(SumSquares(neg_zero.data(), 5, 1), 0.0));
  EXPECT_TRUE(BitEqual(DenseDot(nullptr, nullptr, 0), 0.0));
  EXPECT_TRUE(BitEqual(SumSquares(nullptr, 0, 2), 0.0));
}

TEST(KernelTest, WeightedSumArgmaxWithTiesAndSentinels) {
  std::size_t argmax = 777;
  EXPECT_TRUE(BitEqual(WeightedSumArgmax(nullptr, nullptr, 0, &argmax), 0.0));
  EXPECT_EQ(argmax, 0u);  // n when n == 0

  // Equal maxima: the smallest index wins.
  const std::vector<double> tied = {0.5, 1.75, -1.0, 1.75, 1.75};
  WeightedSumArgmax(tied.data(), tied.data(), tied.size(), &argmax);
  EXPECT_EQ(argmax, 1u);

  // Exhausted cursor slots: sum 0.0, max at the -1.0 sentinel.
  const std::vector<double> sentinel_max(6, -1.0);
  const std::vector<double> zero_sum(6, 0.0);
  EXPECT_TRUE(BitEqual(WeightedSumArgmax(zero_sum.data(), sentinel_max.data(),
                                         6, &argmax),
                       0.0));
  EXPECT_EQ(argmax, 0u);

  std::mt19937 rng(4242);
  for (std::size_t n = 1; n <= 9; ++n) {
    for (int round = 0; round < 16; ++round) {
      std::vector<double> sums = RandomDoubles(&rng, n);
      std::vector<double> maxes = RandomDoubles(&rng, n);
      std::uniform_int_distribution<std::size_t> pick(0, 3);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t p = pick(rng);
        if (p == 0) maxes[i] = 1.75;  // forced tie value
        if (p == 1) {
          maxes[i] = -1.0;
          sums[i] = 0.0;
        }
      }
      std::size_t expect_arg = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (maxes[i] > maxes[expect_arg]) expect_arg = i;
      }
      const double got =
          WeightedSumArgmax(sums.data(), maxes.data(), n, &argmax);
      EXPECT_TRUE(BitEqual(got, ReferenceSum(sums))) << "n=" << n;
      EXPECT_EQ(argmax, expect_arg) << "n=" << n;
    }
  }
}

TEST(KernelTest, AddEntriesMatchesPerEntryAdd) {
  constexpr std::size_t kSlots = 16;
  std::mt19937 rng(555);
  std::uniform_int_distribution<std::int32_t> slot(0, kSlots - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  StampedAccumulator bulk;
  StampedAccumulator single;
  bulk.Resize(kSlots);
  single.Resize(kSlots);
  for (std::size_t n = 0; n <= 40; ++n) {
    // Earlier epochs leave stale stamps and values behind in both.
    bulk.Begin();
    single.Begin();
    // Few slots, many entries: repeated slots accumulate.
    std::vector<std::pair<std::int32_t, double>> entries(n);
    for (auto& e : entries) e = {slot(rng), val(rng)};
    bulk.AddEntries(entries.data(), entries.size());
    for (const auto& [index, value] : entries) {
      single.Add(static_cast<std::size_t>(index), value);
    }
    for (std::size_t s = 0; s < kSlots; ++s) {
      ASSERT_EQ(bulk.Touched(s), single.Touched(s)) << "n=" << n;
      if (single.Touched(s)) {
        ASSERT_TRUE(BitEqual(bulk.Get(s), single.Get(s))) << "n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace ksir
