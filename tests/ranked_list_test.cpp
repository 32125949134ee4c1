// Unit tests for the per-topic ranked lists, Algorithm 1 maintenance
// (including the Figure 5 golden state) and the traversal cursor. The t_e
// half of the paper's tuple lives once per element in RankedListIndex
// (TimeOf); the lists themselves store only the ordering keys.
#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernels/kernels.h"
#include "core/ranked_list.h"
#include "core/score_cache.h"
#include "core/traversal.h"
#include "paper_fixture.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::MakePaperEngineAtT8;

/// A RankedList plus the caller-side state every mutation carries: each
/// element's listed score and position handle (the roles the ScoreCache
/// plays for the maintenance pipeline).
class TrackedList {
 public:
  struct Listed {
    double score;
    RankedList::Handle handle;
  };

  void Insert(ElementId id, double score) {
    listed_[id] = Listed{score, list_.Insert(id, score)};
  }
  void Update(ElementId id, double score) {
    Listed& l = listed_.at(id);
    list_.UpdateHandle({id, l.score, score, &l.handle});
    l.score = score;
  }
  void Erase(ElementId id) {
    const Listed& l = listed_.at(id);
    list_.EraseHandle(id, l.score, l.handle);
    listed_.erase(id);
  }
  const RankedList& list() const { return list_; }
  const std::map<ElementId, Listed>& listed() const { return listed_; }

 private:
  RankedList list_;
  std::map<ElementId, Listed> listed_;
};

// ------------------------------------------------------------ RankedList --

TEST(RankedListTest, InsertKeepsDescendingOrder) {
  RankedList list;
  list.Insert(1, 0.3);
  list.Insert(2, 0.9);
  list.Insert(3, 0.5);
  std::vector<ElementId> order;
  for (const auto& key : list) order.push_back(key.id);
  EXPECT_EQ(order, (std::vector<ElementId>{2, 3, 1}));
}

TEST(RankedListTest, TiesBreakById) {
  RankedList list;
  list.Insert(7, 0.5);
  list.Insert(3, 0.5);
  std::vector<ElementId> order;
  for (const auto& key : list) order.push_back(key.id);
  EXPECT_EQ(order, (std::vector<ElementId>{3, 7}));
}

TEST(RankedListTest, UpdateRepositions) {
  TrackedList tracked;
  tracked.Insert(1, 0.3);
  tracked.Insert(2, 0.9);
  tracked.Update(1, 1.5);
  EXPECT_EQ(tracked.list().begin()->id, 1);
  EXPECT_DOUBLE_EQ(tracked.list().Get(1), 1.5);
}

TEST(RankedListTest, EraseRemoves) {
  TrackedList tracked;
  tracked.Insert(1, 0.3);
  tracked.Insert(2, 0.9);
  tracked.Erase(2);
  EXPECT_EQ(tracked.list().size(), 1u);
  EXPECT_FALSE(tracked.list().Contains(2));
  EXPECT_TRUE(tracked.list().Contains(1));
}

TEST(RankedListTest, EqualScoresDistinctElementsCoexist) {
  TrackedList tracked;
  tracked.Insert(1, 0.5);
  tracked.Insert(2, 0.5);
  tracked.Erase(1);
  EXPECT_TRUE(tracked.list().Contains(2));
  EXPECT_DOUBLE_EQ(tracked.list().Get(2), 0.5);
}

// ------------------------------------------------------- RankedListIndex --

TEST(RankedListIndexTest, InsertSpansTopics) {
  RankedListIndex index(3);
  index.Insert(1, {{0, 0.9}, {2, 0.1}}, 5);
  EXPECT_TRUE(index.Contains(1));
  EXPECT_TRUE(index.list(0).Contains(1));
  EXPECT_FALSE(index.list(1).Contains(1));
  EXPECT_TRUE(index.list(2).Contains(1));
  EXPECT_EQ(index.total_entries(), 2u);
  EXPECT_EQ(index.num_elements(), 1u);
  EXPECT_EQ(index.TimeOf(1), 5);
}

TEST(RankedListIndexTest, EraseClearsAllLists) {
  RankedListIndex index(3);
  RankedList::Handle handles[2];
  index.Insert(1, {{0, 0.9}, {1, 0.5}}, 5, handles);
  // An expiry drops the membership row, then each list half by its
  // carried (score, handle).
  const TopicId topics[] = {0, 1};
  index.EraseMembership(1, topics, 2);
  index.EraseListEntry(0, 1, 0.9, handles[0]);
  index.EraseListEntry(1, 1, 0.5, handles[1]);
  EXPECT_FALSE(index.Contains(1));
  EXPECT_EQ(index.total_entries(), 0u);
  EXPECT_TRUE(index.list(0).empty());
  EXPECT_TRUE(index.list(1).empty());
}

TEST(RankedListIndexTest, RepositionAcrossListsAndMoveTime) {
  RankedListIndex index(2);
  RankedList::Handle handles[2];
  index.Insert(1, {{0, 0.9}, {1, 0.1}}, 5, handles);
  index.Insert(2, {{0, 0.5}, {1, 0.5}}, 6);
  for (const bool back : {false, true}) {
    // Swing element 1 between the two lists' heads, then back.
    const double to0 = back ? 0.9 : 0.2;
    const double to1 = back ? 0.1 : 0.8;
    RankedList::HandleUpdate u0{1, back ? 0.2 : 0.9, to0, &handles[0]};
    RankedList::HandleUpdate u1{1, back ? 0.8 : 0.1, to1, &handles[1]};
    index.RepositionHandles(0, &u0, 1);
    index.RepositionHandles(1, &u1, 1);
    index.TouchTime(1, back ? 8 : 7);
    EXPECT_EQ(index.list(0).begin()->id, back ? 1 : 2);
    EXPECT_EQ(index.list(1).begin()->id, back ? 2 : 1);
    EXPECT_EQ(index.list(0).ProbeHandle(handles[0], 1, to0),
              RankedList::HandleState::kValid);
    EXPECT_EQ(index.list(1).ProbeHandle(handles[1], 1, to1),
              RankedList::HandleState::kValid);
    EXPECT_EQ(index.TimeOf(1), back ? 8 : 7);
    EXPECT_EQ(index.TimeOf(2), 6);
  }
}

TEST(RankedListIndexTest, TouchTimeUpdatesWithoutListWork) {
  RankedListIndex index(2);
  index.Insert(1, {{0, 0.9}}, 5);
  index.TouchTime(1, 9);
  EXPECT_EQ(index.TimeOf(1), 9);
  EXPECT_DOUBLE_EQ(index.list(0).Get(1), 0.9);
}

// --------------------------------------------- Figure 5 golden list state --

class Figure5Test : public ::testing::Test {
 protected:
  void SetUp() override { fixture_ = MakePaperEngineAtT8(); }
  ksir::testing::PaperEngine fixture_;
};

TEST_F(Figure5Test, RankedList1MatchesPaper) {
  // Figure 5 RL_1 (score, t_e); e1/e7 are a near-tie at 0.0565 vs 0.0563 —
  // exact arithmetic orders e1 first, and the figure's tuple *values*
  // <0.06,5>, <0.06,7> match (e1: t_e=5, e7: t_e=7); only the paper's row
  // labels are swapped. t_e is per element (identical across lists) and
  // read from the index.
  const RankedList& list = fixture_.engine->index().list(0);
  struct Row {
    ElementId id;
    double score;
    Timestamp te;
  };
  const std::vector<Row> expected = {
      {3, 0.65, 8}, {6, 0.48, 8}, {8, 0.17, 8}, {2, 0.10, 8},
      {1, 0.06, 5}, {7, 0.06, 7}, {5, 0.05, 5},
  };
  ASSERT_EQ(list.size(), expected.size());
  std::size_t i = 0;
  for (const auto& key : list) {
    EXPECT_EQ(key.id, expected[i].id) << "position " << i;
    EXPECT_NEAR(key.score, expected[i].score, 0.005) << "position " << i;
    EXPECT_EQ(fixture_.engine->index().TimeOf(key.id), expected[i].te)
        << "position " << i;
    ++i;
  }
}

TEST_F(Figure5Test, RankedList2MatchesPaper) {
  const RankedList& list = fixture_.engine->index().list(1);
  struct Row {
    ElementId id;
    double score;
    Timestamp te;
  };
  const std::vector<Row> expected = {
      {1, 0.56, 5}, {2, 0.48, 8}, {5, 0.27, 5}, {7, 0.18, 7},
      {8, 0.16, 8}, {6, 0.13, 8}, {3, 0.03, 8},
  };
  ASSERT_EQ(list.size(), expected.size());
  std::size_t i = 0;
  for (const auto& key : list) {
    EXPECT_EQ(key.id, expected[i].id) << "position " << i;
    EXPECT_NEAR(key.score, expected[i].score, 0.005) << "position " << i;
    EXPECT_EQ(fixture_.engine->index().TimeOf(key.id), expected[i].te)
        << "position " << i;
    ++i;
  }
}

TEST_F(Figure5Test, ExpiredElementAbsentFromLists) {
  EXPECT_FALSE(fixture_.engine->index().Contains(4));
  EXPECT_EQ(fixture_.engine->index().num_elements(), 7u);
}

TEST_F(Figure5Test, ScoresNonIncreasingInEveryList) {
  for (TopicId t = 0; t < 2; ++t) {
    const RankedList& list = fixture_.engine->index().list(t);
    double prev = std::numeric_limits<double>::infinity();
    for (const auto& key : list) {
      EXPECT_LE(key.score, prev);
      prev = key.score;
    }
  }
}

// ------------------------------------------------------ RankedListCursor --

TEST_F(Figure5Test, CursorPopsInWeightedScoreOrder) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  // Initial UB(x) = 0.5 * 0.647 + 0.5 * 0.560 = 0.604 (paper: 0.61).
  EXPECT_NEAR(cursor.UpperBound(), 0.604, 0.005);
  // Pop order: e3 (0.324), e1 (0.280), e2 (0.240), e6 (0.239), ...
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(3));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(1));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(2));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(6));
  EXPECT_EQ(cursor.num_retrieved(), 4u);
  // After popping the strong elements the bound collapses to ~0.22.
  EXPECT_NEAR(cursor.UpperBound(), 0.221, 0.005);
}

TEST_F(Figure5Test, CursorVisitsEachElementOnce) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  std::vector<ElementId> popped;
  while (auto id = cursor.PopNext()) popped.push_back(*id);
  std::vector<ElementId> sorted = popped;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<ElementId>{1, 2, 3, 5, 6, 7, 8}));
  EXPECT_TRUE(cursor.Exhausted());
  EXPECT_DOUBLE_EQ(cursor.UpperBound(), 0.0);
  EXPECT_EQ(cursor.PopNext(), std::nullopt);
}

TEST_F(Figure5Test, CursorUpperBoundMonotoneNonIncreasing) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  double prev = cursor.UpperBound();
  while (auto id = cursor.PopNext()) {
    const double ub = cursor.UpperBound();
    EXPECT_LE(ub, prev + 1e-12);
    prev = ub;
  }
}

TEST_F(Figure5Test, CursorUpperBoundDominatesUnpopped) {
  // Soundness: UB(x) >= delta(e, x) for every not-yet-popped element, both
  // rescored and as MTTS/MTTD read it (off the cached score halves).
  const SparseVector x = BalancedQueryVector();
  const ScoringContext& ctx = fixture_.engine->scoring();
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  std::vector<ElementId> remaining = {1, 2, 3, 5, 6, 7, 8};
  while (!remaining.empty()) {
    const double ub = cursor.UpperBound();
    for (ElementId id : remaining) {
      const ActiveWindow::ActiveView view =
          fixture_.engine->window().FindActive(id);
      ASSERT_NE(view.element, nullptr);
      EXPECT_GE(ub + 1e-12, ctx.ElementScore(*view.element, x));
      EXPECT_GE(ub + 1e-12,
                ScoreCache::SingletonScore(ScoreCache::OfActive(view), x,
                                           ctx.params().lambda,
                                           ctx.influence_factor()));
    }
    const auto popped = cursor.PopNext();
    ASSERT_TRUE(popped.has_value());
    std::erase(remaining, *popped);
  }
}

TEST_F(Figure5Test, SingleTopicQueryWalksOneList) {
  const SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  RankedListCursor cursor(&fixture_.engine->index(), &x);
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(3));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(6));
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(8));
}

TEST_F(Figure5Test, PopWhileAtLeastMatchesSinglePops) {
  const SparseVector x = BalancedQueryVector();
  RankedListCursor bulk(&fixture_.engine->index(), &x);
  RankedListCursor single(&fixture_.engine->index(), &x);
  // Threshold rounds mirroring MTTD's retrieve loop.
  for (const double tau : {0.3, 0.2, 0.1, 0.0}) {
    std::vector<ElementId> bulk_ids;
    bulk.PopWhileAtLeast(tau, &bulk_ids);
    std::vector<ElementId> single_ids;
    while (!single.Exhausted() && single.UpperBound() >= tau) {
      const auto popped = single.PopNext();
      ASSERT_TRUE(popped.has_value());
      single_ids.push_back(*popped);
    }
    EXPECT_EQ(bulk_ids, single_ids) << "tau=" << tau;
    EXPECT_DOUBLE_EQ(bulk.UpperBound(), single.UpperBound());
  }
  EXPECT_TRUE(bulk.Exhausted());

  // Capped, with bounds: blocks of at most two, each bound the
  // UpperBound() read just before the matching single pop.
  RankedListCursor capped(&fixture_.engine->index(), &x);
  RankedListCursor reference(&fixture_.engine->index(), &x);
  std::vector<ElementId> ids;
  std::vector<double> bounds;
  EXPECT_EQ(capped.PopWhileAtLeast(0.0, &ids, 0, &bounds), 0u);
  EXPECT_TRUE(ids.empty());
  EXPECT_TRUE(bounds.empty());
  EXPECT_EQ(capped.num_retrieved(), 0u);
  for (const double tau : {0.3, 0.2, 0.1, 0.0}) {
    while (true) {
      ids.clear();
      bounds.clear();
      const std::size_t popped = capped.PopWhileAtLeast(tau, &ids, 2, &bounds);
      ASSERT_EQ(popped, ids.size());
      ASSERT_EQ(bounds.size(), ids.size());
      ASSERT_LE(popped, 2u);
      for (std::size_t i = 0; i < popped; ++i) {
        EXPECT_EQ(bounds[i], reference.UpperBound()) << "tau=" << tau;
        EXPECT_EQ(std::optional<ElementId>(ids[i]), reference.PopNext())
            << "tau=" << tau;
      }
      if (popped < 2) break;
    }
    EXPECT_EQ(capped.UpperBound(), reference.UpperBound()) << "tau=" << tau;
  }
  EXPECT_TRUE(capped.Exhausted());
  EXPECT_TRUE(reference.Exhausted());
  EXPECT_EQ(capped.num_retrieved(), reference.num_retrieved());
}

TEST(CursorEdgeTest, EmptyIndexIsExhausted) {
  RankedListIndex index(2);
  const SparseVector x = SparseVector::FromEntries({{0, 0.7}, {1, 0.3}});
  RankedListCursor cursor(&index, &x);
  EXPECT_TRUE(cursor.Exhausted());
  EXPECT_DOUBLE_EQ(cursor.UpperBound(), 0.0);
  EXPECT_EQ(cursor.PopNext(), std::nullopt);
}

TEST(CursorEdgeTest, QueryTopicBeyondIndexIsIgnored) {
  RankedListIndex index(2);
  index.Insert(1, {{0, 0.5}}, 1);
  const SparseVector x = SparseVector::FromEntries({{0, 0.5}, {9, 0.5}});
  RankedListCursor cursor(&index, &x);
  EXPECT_EQ(cursor.PopNext(), std::optional<ElementId>(1));
  EXPECT_TRUE(cursor.Exhausted());
}

// The cursor before heads were advanced selectively: after every pop it
// re-advances EVERY list past visited tuples. The head values, the
// tie-break (first list in query order) and the upper-bound sum are the
// cursor's own, through the same kernel, so the pop sequences and bounds
// must agree exactly.
class ReadvanceAllCursor {
 public:
  ReadvanceAllCursor(const RankedListIndex& index, const SparseVector& x) {
    for (const auto& [topic, weight] : x.entries()) {
      if (weight <= 0.0) continue;
      if (static_cast<std::size_t>(topic) >= index.num_topics()) continue;
      Walk walk;
      walk.weight = weight;
      for (const RankedList::Key& key : index.list(topic)) {
        walk.keys.push_back(key);
      }
      walks_.push_back(std::move(walk));
    }
    head_ub_.resize(walks_.size());
    head_max_.resize(walks_.size());
    AdvanceAll();
  }

  double UpperBound() const {
    std::size_t argmax = 0;
    return walks_.empty() ? 0.0
                          : kernels::WeightedSumArgmax(
                                head_ub_.data(), head_max_.data(),
                                walks_.size(), &argmax);
  }

  std::optional<ElementId> PopNext() {
    if (walks_.empty()) return std::nullopt;
    std::size_t argmax = 0;
    kernels::WeightedSumArgmax(head_ub_.data(), head_max_.data(),
                               walks_.size(), &argmax);
    if (!(head_max_[argmax] > -1.0)) return std::nullopt;
    const ElementId id = walks_[argmax].keys[walks_[argmax].pos].id;
    visited_.insert(id);
    AdvanceAll();
    return id;
  }

  std::vector<ElementId> PopWhileAtLeast(double min_value) {
    std::vector<ElementId> out;
    while (!walks_.empty() && UpperBound() >= min_value) {
      const auto id = PopNext();
      if (!id.has_value()) break;
      out.push_back(*id);
    }
    return out;
  }

 private:
  struct Walk {
    double weight = 0.0;
    std::vector<RankedList::Key> keys;
    std::size_t pos = 0;
  };

  void AdvanceAll() {
    for (std::size_t i = 0; i < walks_.size(); ++i) {
      Walk& walk = walks_[i];
      while (walk.pos < walk.keys.size() &&
             visited_.contains(walk.keys[walk.pos].id)) {
        ++walk.pos;
      }
      const bool has_head = walk.pos < walk.keys.size();
      const double value =
          has_head ? walk.weight * walk.keys[walk.pos].score : 0.0;
      head_ub_[i] = value;
      head_max_[i] = has_head ? value : -1.0;
    }
  }

  std::vector<Walk> walks_;
  std::vector<double> head_ub_;
  std::vector<double> head_max_;
  std::set<ElementId> visited_;
};

/// A random index over z <= 6 topics: elements listed in up to three
/// topics, scores often drawn from a small grid (equal scores within and
/// across lists), some lists left empty; and a query whose weights repeat,
/// include zeros and may name a topic beyond the index.
struct RandomCursorCase {
  RankedListIndex index;
  SparseVector x;
};

RandomCursorCase MakeRandomCursorCase(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t z = 1 + uniform(6);
  // Elements use topics [0, used); topics [used, z) stay empty lists.
  const std::size_t used = z == 1 ? 1 : z - uniform(2);
  const bool grid = uniform(2) == 0;
  RandomCursorCase c{RankedListIndex(z), SparseVector()};
  const std::size_t n = uniform(160);
  for (std::size_t e = 0; e < n; ++e) {
    std::vector<std::pair<TopicId, double>> topic_scores;
    const std::size_t span = 1 + uniform(std::min<std::size_t>(used, 3));
    std::vector<TopicId> topics(used);
    for (std::size_t t = 0; t < used; ++t) {
      topics[t] = static_cast<TopicId>(t);
    }
    std::shuffle(topics.begin(), topics.end(), rng);
    topics.resize(span);
    std::sort(topics.begin(), topics.end());
    for (const TopicId topic : topics) {
      const double score = grid ? static_cast<double>(1 + uniform(5)) / 5.0
                                : unit(rng);
      topic_scores.emplace_back(topic, score);
    }
    c.index.Insert(static_cast<ElementId>(e), topic_scores,
                    static_cast<Timestamp>(e));
  }
  std::vector<std::pair<TopicId, double>> weights;
  for (std::size_t t = 0; t < z + 1; ++t) {
    if (t == z && uniform(3) != 0) break;  // sometimes beyond the index
    const std::size_t pick = uniform(4);
    const double weight = pick == 0   ? 0.0
                          : pick == 1 ? 0.5
                          : pick == 2 ? 0.25
                                      : unit(rng);
    weights.emplace_back(static_cast<TopicId>(t), weight);
  }
  c.x = SparseVector::FromEntries(weights);
  return c;
}

TEST(CursorDifferentialTest, PopsEqualReadvanceAllReference) {
  std::size_t cases_with_pops = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomCursorCase c = MakeRandomCursorCase(seed);

    // PopNext, one element at a time.
    RankedListCursor cursor(&c.index, &c.x);
    ReadvanceAllCursor reference(c.index, c.x);
    double previous_ub = std::numeric_limits<double>::infinity();
    std::size_t pops = 0;
    while (true) {
      const double ub = cursor.UpperBound();
      ASSERT_EQ(ub, reference.UpperBound()) << "pop " << pops;
      ASSERT_LE(ub, previous_ub) << "pop " << pops;
      previous_ub = ub;
      const auto got = cursor.PopNext();
      const auto want = reference.PopNext();
      ASSERT_EQ(got, want) << "pop " << pops;
      if (!got.has_value()) break;
      ++pops;
    }
    EXPECT_TRUE(cursor.Exhausted());
    EXPECT_EQ(cursor.UpperBound(), 0.0);
    EXPECT_EQ(cursor.num_retrieved(), pops);
    if (pops > 0) ++cases_with_pops;

    // PopWhileAtLeast, in MTTD-style descending threshold rounds.
    RankedListCursor bulk(&c.index, &c.x);
    ReadvanceAllCursor bulk_reference(c.index, c.x);
    double tau = bulk.UpperBound();
    previous_ub = tau;
    std::size_t bulk_pops = 0;
    for (int round = 0; round < 64 && !bulk.Exhausted(); ++round) {
      tau = round == 63 ? 0.0 : tau * 0.7;
      std::vector<ElementId> got;
      const std::size_t popped = bulk.PopWhileAtLeast(tau, &got);
      ASSERT_EQ(popped, got.size());
      ASSERT_EQ(got, bulk_reference.PopWhileAtLeast(tau)) << "round " << round;
      const double ub = bulk.UpperBound();
      ASSERT_EQ(ub, bulk_reference.UpperBound()) << "round " << round;
      ASSERT_LE(ub, previous_ub) << "round " << round;
      previous_ub = ub;
      bulk_pops += popped;
    }
    EXPECT_EQ(bulk_pops, pops);
    EXPECT_EQ(bulk.num_retrieved(), pops);

    // Capped PopWhileAtLeast with bounds, in MTTS-style blocks against a
    // threshold that falls and rises: caps of 0-4 (0 pops nothing) and
    // thresholds at, below and above the current upper bound.
    RankedListCursor capped(&c.index, &c.x);
    ReadvanceAllCursor capped_reference(c.index, c.x);
    std::vector<ElementId> ids;
    std::vector<double> bounds;
    std::size_t capped_pops = 0;
    for (int block = 0; block < 1000 && !capped.Exhausted(); ++block) {
      const std::size_t cap = static_cast<std::size_t>(block % 5);
      const double ub = capped.UpperBound();
      const double factors[] = {0.0, 0.5, 1.0, 1.01};
      const double min_value = ub * factors[(block / 5) % 4];
      ids.clear();
      bounds.clear();
      const std::size_t before = capped.num_retrieved();
      const std::size_t popped =
          capped.PopWhileAtLeast(min_value, &ids, cap, &bounds);
      std::vector<ElementId> want_ids;
      std::vector<double> want_bounds;
      while (want_ids.size() < cap &&
             capped_reference.UpperBound() >= min_value) {
        const double bound = capped_reference.UpperBound();
        const auto id = capped_reference.PopNext();
        if (!id.has_value()) break;
        want_ids.push_back(*id);
        want_bounds.push_back(bound);
      }
      ASSERT_EQ(popped, ids.size()) << "block " << block;
      ASSERT_EQ(ids, want_ids) << "block " << block;
      ASSERT_EQ(bounds, want_bounds) << "block " << block;
      ASSERT_EQ(capped.num_retrieved(), before + popped) << "block " << block;
      if (cap == 0) {
        ASSERT_EQ(popped, 0u) << "block " << block;
      }
      capped_pops += popped;
    }
    EXPECT_TRUE(capped.Exhausted());
    EXPECT_EQ(capped_pops, pops);
    EXPECT_EQ(capped.num_retrieved(), pops);
  }
  // The generator must actually exercise the cursor.
  EXPECT_GT(cases_with_pops, 200u);
}

// ------------------------------------------- Chunked storage under churn --

TEST(RankedListChurnTest, MatchesOrderedReferenceAcrossSplitsAndMerges) {
  // Drive the chunked backing store through thousands of inserts, updates
  // and erases (far beyond one chunk's capacity) and require iteration to
  // match an std::set reference at every checkpoint.
  TrackedList tracked;
  const RankedList& list = tracked.list();
  std::set<RankedList::Key> reference;
  std::map<ElementId, double> score_of;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);

  const auto verify = [&]() {
    ASSERT_EQ(list.size(), reference.size());
    auto ref_it = reference.begin();
    for (const auto& key : list) {
      ASSERT_NE(ref_it, reference.end());
      EXPECT_EQ(key.id, ref_it->id);
      EXPECT_DOUBLE_EQ(key.score, ref_it->score);
      ++ref_it;
    }
    EXPECT_EQ(ref_it, reference.end());
  };

  ElementId next_id = 0;
  for (int round = 0; round < 6000; ++round) {
    const double action = score_dist(rng);
    if (action < 0.5 || score_of.empty()) {
      const ElementId id = next_id++;
      const double score = score_dist(rng);
      tracked.Insert(id, score);
      reference.insert(RankedList::Key{score, id});
      score_of[id] = score;
    } else if (action < 0.8) {
      auto it = score_of.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng() % score_of.size()));
      const double score = score_dist(rng);
      reference.erase(RankedList::Key{it->second, it->first});
      reference.insert(RankedList::Key{score, it->first});
      tracked.Update(it->first, score);
      it->second = score;
    } else {
      auto it = score_of.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng() % score_of.size()));
      tracked.Erase(it->first);
      reference.erase(RankedList::Key{it->second, it->first});
      score_of.erase(it);
    }
    if (round % 500 == 499) verify();
  }
  verify();
  // Drain to empty through the erase/merge path.
  while (!score_of.empty()) {
    const auto it = score_of.begin();
    tracked.Erase(it->first);
    reference.erase(RankedList::Key{it->second, it->first});
    score_of.erase(it);
  }
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.begin(), list.end());
}

TEST(RankedListChurnTest, GetSurvivesRepositioning) {
  TrackedList tracked;
  const RankedList& list = tracked.list();
  for (ElementId id = 0; id < 300; ++id) {
    tracked.Insert(id, static_cast<double>(id % 7));
  }
  for (ElementId id = 0; id < 300; id += 3) {
    tracked.Update(id, static_cast<double>(id % 11) + 0.5);
  }
  for (ElementId id = 0; id < 300; ++id) {
    if (id % 3 == 0) {
      EXPECT_DOUBLE_EQ(list.Get(id), static_cast<double>(id % 11) + 0.5);
    } else {
      EXPECT_DOUBLE_EQ(list.Get(id), static_cast<double>(id % 7));
    }
  }
}

// ---------------------------------------------------- Handles & DrainTop --

TEST(RankedListHandleTest, InsertMintsResolvingHandle) {
  RankedList list;
  const auto h = list.Insert(7, 0.5);
  EXPECT_EQ(list.ProbeHandle(h, 7, 0.5), RankedList::HandleState::kValid);
  // A default handle and a wrong key both miss.
  EXPECT_EQ(list.ProbeHandle(RankedList::Handle{}, 7, 0.5),
            RankedList::HandleState::kStale);
  EXPECT_EQ(list.ProbeHandle(h, 7, 0.6), RankedList::HandleState::kStale);
}

TEST(RankedListHandleTest, RepositionsRefreshHandles) {
  RankedList list;
  RankedList::Handle h1 = list.Insert(1, 0.10);
  RankedList::Handle h2 = list.Insert(2, 0.20);
  RankedList::Handle h3 = list.Insert(3, 0.30);

  // Two moves within the only chunk plus a no-op score, which must still
  // leave a valid handle.
  list.UpdateHandle({1, 0.10, 0.25, &h1});
  list.UpdateHandle({2, 0.20, 0.05, &h2});
  list.UpdateHandle({3, 0.30, 0.30, &h3});

  EXPECT_EQ(list.ProbeHandle(h1, 1, 0.25), RankedList::HandleState::kValid);
  EXPECT_EQ(list.ProbeHandle(h2, 2, 0.05), RankedList::HandleState::kValid);
  EXPECT_EQ(list.ProbeHandle(h3, 3, 0.30), RankedList::HandleState::kValid);
  EXPECT_EQ(list.Get(1), 0.25);
  EXPECT_EQ(list.Get(2), 0.05);
  EXPECT_EQ(list.Get(3), 0.30);
}

TEST(RankedListHandleTest, StaleHandleFallsBackToCarriedKey) {
  // Force chunk splits so early handles go stale, then reposition through
  // them: the operation must still land exactly, located by the carried
  // listed key instead.
  RankedList list;
  std::vector<RankedList::Handle> handles(300);
  std::vector<double> scores(300);
  for (ElementId id = 0; id < 300; ++id) {
    scores[id] = static_cast<double>(id) / 300.0;
    handles[id] = list.Insert(id, scores[id]);
  }
  std::size_t stale = 0;
  for (ElementId id = 0; id < 300; ++id) {
    if (list.ProbeHandle(handles[id], id, scores[id]) ==
        RankedList::HandleState::kStale) {
      ++stale;
    }
    list.UpdateHandle({id, scores[id], scores[id] + 2.0, &handles[id]});
    // The refreshed handle must resolve.
    EXPECT_EQ(list.ProbeHandle(handles[id], id, scores[id] + 2.0),
              RankedList::HandleState::kValid);
  }
  EXPECT_GT(stale, 0u);  // splits actually invalidated some handles
  for (ElementId id = 0; id < 300; ++id) {
    EXPECT_DOUBLE_EQ(list.Get(id), scores[id] + 2.0);
  }
}

TEST(RankedListHandleTest, ChurnPropertyEveryLiveHandleResolvesOrFallsBack) {
  // Random churn across every mutation flavor (insert / handle update /
  // handle-less update / handle erase / handle-less erase / a run of handle
  // repositions, with splits and merges throughout). Handle-less ops pass
  // a cleared hint, so they resolve by the carried key alone — the
  // pipeline's carry_handles = false layer. Invariants after every step:
  //  - each live element's stored handle either resolves exactly or
  //    reports a miss AND the next operation through it lands correctly;
  //  - Get always matches the shadow model;
  //  - the full key sequence matches an std::set reference.
  struct Shadow {
    double score;
    RankedList::Handle handle;
  };
  RankedList list;
  std::map<ElementId, Shadow> shadow;
  std::set<RankedList::Key> reference;
  std::mt19937_64 rng(777);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);

  const auto pick = [&](std::mt19937_64& r) {
    auto it = shadow.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(r() % shadow.size()));
    return it;
  };

  ElementId next_id = 0;
  for (int round = 0; round < 4000; ++round) {
    const double action = score_dist(rng);
    if (action < 0.35 || shadow.size() < 4) {
      const ElementId id = next_id++;
      const double score = score_dist(rng);
      const auto handle = list.Insert(id, score);
      shadow[id] = Shadow{score, handle};
      reference.insert(RankedList::Key{score, id});
    } else if (action < 0.55) {
      auto it = pick(rng);
      Shadow& s = it->second;
      const double score = score_dist(rng);
      reference.erase(RankedList::Key{s.score, it->first});
      reference.insert(RankedList::Key{score, it->first});
      list.UpdateHandle({it->first, s.score, score, &s.handle});
      s.score = score;
      // A just-refreshed handle must resolve exactly.
      ASSERT_EQ(list.ProbeHandle(s.handle, it->first, s.score),
                RankedList::HandleState::kValid);
    } else if (action < 0.65) {
      // Handle-less update: the stored handle is NOT refreshed and may go
      // stale; later handle ops must fall back.
      auto it = pick(rng);
      Shadow& s = it->second;
      const double score = score_dist(rng);
      reference.erase(RankedList::Key{s.score, it->first});
      reference.insert(RankedList::Key{score, it->first});
      RankedList::Handle cleared;
      list.UpdateHandle({it->first, s.score, score, &cleared});
      s.score = score;
    } else if (action < 0.80) {
      // A run of handle repositions over a random subset, as the
      // maintainer applies one topic's run; 1 in 5 scores is a no-op.
      std::set<ElementId> used;
      const std::size_t run = 1 + rng() % 24;
      for (std::size_t i = 0; i < run && !shadow.empty(); ++i) {
        auto it = pick(rng);
        if (!used.insert(it->first).second) continue;
        Shadow& s = it->second;
        const double score = rng() % 5 == 0 ? s.score : score_dist(rng);
        reference.erase(RankedList::Key{s.score, it->first});
        reference.insert(RankedList::Key{score, it->first});
        list.UpdateHandle({it->first, s.score, score, &s.handle});
        s.score = score;
      }
    } else if (action < 0.90) {
      auto it = pick(rng);
      list.EraseHandle(it->first, it->second.score, it->second.handle);
      reference.erase(RankedList::Key{it->second.score, it->first});
      shadow.erase(it);
    } else {
      auto it = pick(rng);
      list.EraseHandle(it->first, it->second.score, RankedList::Handle{});
      reference.erase(RankedList::Key{it->second.score, it->first});
      shadow.erase(it);
    }

    if (round % 200 == 199) {
      ASSERT_EQ(list.size(), reference.size());
      auto ref_it = reference.begin();
      for (const auto& key : list) {
        ASSERT_EQ(key.id, ref_it->id);
        ASSERT_EQ(key.score, ref_it->score);
        ++ref_it;
      }
      for (const auto& [id, s] : shadow) {
        ASSERT_EQ(list.Get(id), s.score) << "id=" << id;
        // The stored handle is a hint: valid or stale, never wrong.
        const auto state = list.ProbeHandle(s.handle, id, s.score);
        ASSERT_TRUE(state == RankedList::HandleState::kValid ||
                    state == RankedList::HandleState::kStale);
      }
    }
  }
}

TEST(RankedListHandleTest, HandleLessUpdatesMatchHandleUpdatesBitwise) {
  // The carry_handles = false layer: the same per-element repositions
  // resolved by the carried key alone (cleared hints) must leave exactly
  // the key sequence the handle-carrying twin holds.
  RankedList by_handle;
  RankedList by_key;
  std::vector<RankedList::Handle> handles(2000);
  std::vector<double> scores(2000);
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);
  for (ElementId id = 0; id < 2000; ++id) {
    scores[id] = score_dist(rng);
    handles[id] = by_handle.Insert(id, scores[id]);
    by_key.Insert(id, scores[id]);
  }
  for (int round = 0; round < 30; ++round) {
    std::set<ElementId> used;
    const std::size_t batch = 2 + rng() % 300;
    for (std::size_t i = 0; i < batch; ++i) {
      const ElementId id = static_cast<ElementId>(rng() % 2000);
      if (!used.insert(id).second) continue;
      const double score = rng() % 4 == 0 ? 0.5 : score_dist(rng);
      by_handle.UpdateHandle({id, scores[id], score, &handles[id]});
      RankedList::Handle cleared;
      by_key.UpdateHandle({id, scores[id], score, &cleared});
      scores[id] = score;
    }
    for (ElementId id = static_cast<ElementId>(round); id < 2000; id += 97) {
      by_handle.EraseHandle(id, scores[id], handles[id]);
      by_key.EraseHandle(id, scores[id], RankedList::Handle{});
      const double score = score_dist(rng);
      handles[id] = by_handle.Insert(id, score);
      by_key.Insert(id, score);
      scores[id] = score;
    }
    ASSERT_EQ(by_handle.size(), by_key.size());
    auto key_it = by_key.begin();
    for (const auto& key : by_handle) {
      ASSERT_EQ(key.id, key_it->id);
      ASSERT_EQ(key.score, key_it->score);  // bitwise-identical doubles
      ++key_it;
    }
  }
}

TEST(RankedListDrainTest, DrainTopEqualsRepeatedSinglePops) {
  // DrainTop(n) must yield exactly the keys of n iterator increments, for
  // every block size, across chunk boundaries.
  RankedList list;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> score_dist(0.0, 1.0);
  for (ElementId id = 0; id < 500; ++id) {
    list.Insert(id, score_dist(rng));
  }
  for (const std::size_t block : {1u, 3u, 32u, 64u, 100u, 1000u}) {
    std::vector<RankedList::Key> drained;
    auto pos = list.begin();
    std::vector<RankedList::Key> buffer(block);
    while (true) {
      const std::size_t n = list.DrainTop(&pos, buffer.data(), block);
      if (n == 0) break;
      drained.insert(drained.end(), buffer.begin(),
                     buffer.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(pos, list.end());
    std::vector<RankedList::Key> singles;
    for (auto it = list.begin(); it != list.end(); ++it) {
      singles.push_back(*it);
    }
    ASSERT_EQ(drained.size(), singles.size()) << "block=" << block;
    for (std::size_t i = 0; i < singles.size(); ++i) {
      EXPECT_EQ(drained[i].id, singles[i].id) << "block=" << block;
      EXPECT_EQ(drained[i].score, singles[i].score);
    }
  }
  // Empty list: zero keys, iterator stays at end.
  RankedList empty;
  auto pos = empty.begin();
  RankedList::Key out;
  EXPECT_EQ(empty.DrainTop(&pos, &out, 1), 0u);
  EXPECT_EQ(pos, empty.end());
}

// ------------------------------------------------------------- NaN guard --

TEST(RankedListDeathTest, InsertRejectsNaNScore) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RankedList list;
  EXPECT_DEATH(list.Insert(1, nan), "isnan");
}

TEST(RankedListDeathTest, UpdateRejectsNaNScore) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RankedList list;
  RankedList::Handle handle = list.Insert(1, 0.5);
  EXPECT_DEATH(list.UpdateHandle({1, 0.5, nan, &handle}), "isnan");
}

// --------------------------------------------------- Refresh mode (paper) --

TEST(RankedListIndexTest, SplitInsertMatchesCombinedInsert) {
  // The parallel maintenance pipeline inserts fresh elements in two
  // halves: InsertMembership (serial) then one InsertListEntry per support
  // topic (topic-sharded). The result — membership, t_e, entry counts,
  // list keys AND minted handles — must be exactly what the combined
  // Insert produces.
  RankedListIndex combined(3);
  RankedListIndex split(3);
  const std::vector<std::pair<TopicId, double>> support = {
      {0, 0.9}, {2, 0.4}};
  std::vector<RankedList::Handle> combined_handles(support.size());
  combined.Insert(7, support, /*te=*/42, combined_handles.data());

  const TopicId topics[] = {0, 2};
  split.InsertMembership(7, topics, 2, /*te=*/42);
  std::vector<RankedList::Handle> split_handles;
  for (const auto& [topic, score] : support) {
    split_handles.push_back(split.InsertListEntry(topic, 7, score));
  }

  EXPECT_EQ(split.num_elements(), combined.num_elements());
  EXPECT_EQ(split.total_entries(), combined.total_entries());
  EXPECT_EQ(split.TimeOf(7), combined.TimeOf(7));
  for (std::size_t i = 0; i < support.size(); ++i) {
    EXPECT_EQ(split_handles[i], combined_handles[i]) << "entry " << i;
    const TopicId topic = support[i].first;
    ASSERT_EQ(split.list(topic).size(), combined.list(topic).size());
    EXPECT_EQ(split.list(topic).Get(7), combined.list(topic).Get(7));
    EXPECT_EQ(split.list(topic).ProbeHandle(split_handles[i], 7,
                                            support[i].second),
              RankedList::HandleState::kValid);
  }
  EXPECT_TRUE(split.list(1).empty());
}

TEST(RefreshModeTest, PaperModeKeepsStaleUpperBound) {
  // Build a stream where an element loses a referrer with no gain in the
  // same bucket: with kPaper the list score stays stale-high; with kExact
  // it drops to the true value.
  auto model = TopicModel::FromMatrix({{0.5, 0.5}});
  ASSERT_TRUE(model.ok());
  for (const RefreshMode mode : {RefreshMode::kExact, RefreshMode::kPaper}) {
    EngineConfig config;
    config.scoring.lambda = 0.5;
    config.scoring.eta = 2.0;
    config.window_length = 4;
    config.bucket_length = 1;
    config.refresh_mode = mode;
    KsirEngine engine(config, &*model);

    auto mk = [](ElementId id, Timestamp ts, std::vector<ElementId> refs) {
      SocialElement e;
      e.id = id;
      e.ts = ts;
      e.doc = Document::FromWordIds({0});
      e.refs = std::move(refs);
      e.topics = SparseVector::FromEntries({{0, 1.0}});
      return e;
    };
    ASSERT_TRUE(engine.AdvanceTo(1, {mk(1, 1, {})}).ok());
    ASSERT_TRUE(engine.AdvanceTo(2, {mk(2, 2, {1})}).ok());
    ASSERT_TRUE(engine.AdvanceTo(5, {mk(3, 5, {1})}).ok());
    // t=6: e2 (ts 2) leaves the window; e1 loses its referral, e3 remains.
    ASSERT_TRUE(engine.AdvanceTo(6, {}).ok());
    const double listed = engine.index().list(0).Get(1);
    const SocialElement* e1 = engine.window().Find(1);
    ASSERT_NE(e1, nullptr);
    const double exact = engine.scoring().TopicScore(0, *e1);
    if (mode == RefreshMode::kExact) {
      EXPECT_NEAR(listed, exact, 1e-12);
    } else {
      EXPECT_GT(listed, exact);  // stale but still a sound upper bound
    }
  }
}

}  // namespace
}  // namespace ksir
