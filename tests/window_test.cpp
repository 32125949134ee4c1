// Unit tests for the sliding active window (paper Section 3.1 semantics).
#include <gtest/gtest.h>

#include "window/active_window.h"

namespace ksir {
namespace {

SocialElement El(ElementId id, Timestamp ts, std::vector<ElementId> refs = {}) {
  SocialElement e;
  e.id = id;
  e.ts = ts;
  e.doc = Document::FromWordIds({static_cast<WordId>(id % 7)});
  e.refs = std::move(refs);
  e.topics = SparseVector::FromEntries({{0, 1.0}});
  return e;
}

std::vector<ElementId> Ids(const std::vector<ActiveWindow::Touched>& list) {
  std::vector<ElementId> ids;
  ids.reserve(list.size());
  for (const auto& touched : list) ids.push_back(touched.id);
  return ids;
}

TEST(ActiveWindowTest, InsertAndLookup) {
  ActiveWindow window(10);
  auto update = window.Advance(2, {El(1, 1), El(2, 2)});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(Ids(update->inserted), (std::vector<ElementId>{1, 2}));
  EXPECT_EQ(window.num_active(), 2u);
  EXPECT_EQ(window.num_in_window(), 2u);
  ASSERT_NE(window.Find(1), nullptr);
  EXPECT_EQ(window.Find(1)->ts, 1);
  EXPECT_EQ(window.Find(99), nullptr);
  EXPECT_TRUE(window.IsActive(2));
  EXPECT_TRUE(window.IsInWindow(2));
}

TEST(ActiveWindowTest, RejectsBackwardTimeAndStaleElements) {
  ActiveWindow window(10);
  ASSERT_TRUE(window.Advance(5, {El(1, 3)}).ok());
  EXPECT_FALSE(window.Advance(4, {}).ok());
  EXPECT_FALSE(window.Advance(10, {El(2, 5)}).ok());   // ts <= previous now
  EXPECT_FALSE(window.Advance(10, {El(3, 11)}).ok());  // ts > bucket end
}

TEST(ActiveWindowTest, RejectsUnsortedBucketAndDuplicates) {
  ActiveWindow window(10);
  EXPECT_FALSE(window.Advance(5, {El(1, 3), El(2, 2)}).ok());
  ActiveWindow window2(10);
  EXPECT_FALSE(window2.Advance(5, {El(1, 2), El(1, 3)}).ok());
}

TEST(ActiveWindowTest, ElementsExpireAfterWindowLength) {
  // Integer-time semantics: W_t = { e : e.ts in [t-T+1, t] }.
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(4, {El(2, 4)}).ok());
  EXPECT_TRUE(window.IsInWindow(1));  // 1 >= 4-4+1
  auto update = window.Advance(5, {});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(Ids(update->expired), (std::vector<ElementId>{1}));
  EXPECT_FALSE(window.IsActive(1));
  EXPECT_TRUE(window.IsActive(2));
}

TEST(ActiveWindowTest, ReferencedElementsStayActive) {
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(5, {El(2, 5, {1})}).ok());
  // e1 left W_5 (ts 1 < 5-4+1=2) but is referenced by in-window e2.
  EXPECT_TRUE(window.IsActive(1));
  EXPECT_FALSE(window.IsInWindow(1));
  EXPECT_EQ(window.num_active(), 2u);
  EXPECT_EQ(window.num_in_window(), 1u);
}

TEST(ActiveWindowTest, ReferencedElementDeactivatedWhenReferrerExpires) {
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(2, {El(2, 2, {1})}).ok());
  ASSERT_TRUE(window.Advance(6, {}).ok());
  // At t=6: cutoff 2; e2.ts = 2 <= 2 -> e2 left the window. e1 was only
  // referenced by e2, so both leave A_t (into the archive).
  EXPECT_FALSE(window.IsActive(2));
  EXPECT_FALSE(window.IsActive(1));
  EXPECT_EQ(window.num_active(), 0u);
  EXPECT_TRUE(window.IsArchived(1));
  EXPECT_TRUE(window.IsArchived(2));
}

TEST(ActiveWindowTest, LateReferenceResurrectsArchivedElement) {
  // Mirrors Table 1: e2 is inactive at t=6 yet e7's reference at t=7 must
  // pull it back into A_t.
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(2, {El(2, 2)}).ok());
  ASSERT_TRUE(window.Advance(6, {}).ok());
  ASSERT_FALSE(window.IsActive(2));
  auto update = window.Advance(7, {El(7, 7, {2})});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(Ids(update->resurrected), (std::vector<ElementId>{2}));
  EXPECT_EQ(update->dangling_refs, 0);
  EXPECT_TRUE(window.IsActive(2));
  EXPECT_FALSE(window.IsInWindow(2));
  ASSERT_EQ(window.ReferrersOf(2).size(), 1u);
  EXPECT_EQ(window.ReferrersOf(2).front().id, 7);
}

TEST(ActiveWindowTest, ArchiveGarbageCollectionMakesOldRefsDangling) {
  ActiveWindow window(4, /*archive_retention=*/3);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(5, {}).ok());  // e1 deactivated at t=5
  EXPECT_TRUE(window.IsArchived(1));
  ASSERT_TRUE(window.Advance(8, {}).ok());  // 5 + 3 <= 8 -> GC'd
  EXPECT_FALSE(window.IsArchived(1));
  auto update = window.Advance(9, {El(2, 9, {1})});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->dangling_refs, 1);
  EXPECT_TRUE(update->resurrected.empty());
}

TEST(ActiveWindowTest, ResurrectedElementCanDeactivateAgain) {
  ActiveWindow window(4, /*archive_retention=*/100);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(5, {}).ok());
  ASSERT_FALSE(window.IsActive(1));
  ASSERT_TRUE(window.Advance(6, {El(2, 6, {1})}).ok());
  ASSERT_TRUE(window.IsActive(1));
  // e2 leaves the window at t=10; e1 deactivates a second time.
  auto update = window.Advance(10, {});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(Ids(update->expired), (std::vector<ElementId>{1, 2}));
  EXPECT_TRUE(window.IsArchived(1));
}

void ExpectSameView(const ActiveWindow::ActiveView& a,
                    const ActiveWindow::ActiveView& b, ElementId id) {
  EXPECT_EQ(a.element, b.element) << "id " << id;
  EXPECT_EQ(a.referrers, b.referrers) << "id " << id;
  EXPECT_EQ(a.user_slot, b.user_slot) << "id " << id;
}

TEST(ActiveWindowTest, FindActiveBatchEqualsPerIdFindActive) {
  ActiveWindow window(4, /*archive_retention=*/3);
  ASSERT_TRUE(window.Advance(1, {El(1, 1), El(2, 1)}).ok());
  ASSERT_TRUE(window.Advance(5, {El(3, 5)}).ok());  // e1, e2 archived at 5
  // e4 resurrects e2; then e1 is garbage-collected (5 + 3 <= 8).
  ASSERT_TRUE(window.Advance(8, {El(4, 8, {2})}).ok());
  // e3 (ts 5) leaves W_9 unreferenced and is archived. The consumer slot of
  // the new e5 must come through the batch too.
  int row = 0;
  auto update = window.Advance(9, {El(5, 9, {4})});
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update->inserted.size(), 1u);
  *update->inserted[0].user_slot = &row;
  ASSERT_FALSE(window.IsArchived(1));
  ASSERT_TRUE(window.IsActive(2) && !window.IsInWindow(2));
  ASSERT_TRUE(window.IsArchived(3));
  ASSERT_EQ(window.FindActive(5).user_slot, &row);
  ASSERT_NE(window.FindActive(2).element, nullptr);
  ASSERT_EQ(window.FindActive(3).element, nullptr);  // archived: no view

  // Active (with a slot, in window, resurrected and referenced only),
  // archived, garbage-collected, unknown, and repeated ids.
  std::vector<ElementId> ids = {5, 4, 2, 3, 1, 99, -1, 5, 2, 3, 1};
  // Past one internal block, so block boundaries are covered as well.
  for (ElementId id = 100; id < 140; ++id) ids.push_back(id % 3 == 0 ? 4 : id);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{11},
                              ids.size()}) {
    std::vector<ActiveWindow::ActiveView> out(n + 1);
    const ActiveWindow::ActiveView sentinel{nullptr, nullptr, &row};
    out[n] = sentinel;
    window.FindActiveBatch(ids.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      ExpectSameView(out[i], window.FindActive(ids[i]), ids[i]);
    }
    ExpectSameView(out[n], sentinel, -2);  // nothing written past n
  }
}

TEST(ActiveWindowTest, ReReferenceKeepsElementAlive) {
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(3, {El(2, 3, {1})}).ok());
  ASSERT_TRUE(window.Advance(6, {El(3, 6, {1})}).ok());
  // e2's reference to e1 expires at t=7 (e2 leaves W), but e3 re-referenced
  // e1 at t=6, so e1 stays active until e3 leaves.
  ASSERT_TRUE(window.Advance(7, {}).ok());
  EXPECT_FALSE(window.IsActive(2));
  EXPECT_TRUE(window.IsActive(1));
  const auto& referrers = window.ReferrersOf(1);
  ASSERT_EQ(referrers.size(), 1u);
  EXPECT_EQ(referrers.front().id, 3);
  // At t=10, W = [7, 10]: e3 (ts 6) leaves, taking e1's last referral along.
  ASSERT_TRUE(window.Advance(10, {}).ok());
  EXPECT_FALSE(window.IsActive(3));
  EXPECT_FALSE(window.IsActive(1));
}

TEST(ActiveWindowTest, ReferrerSetsTrackWindow) {
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(2, {El(2, 2, {1})}).ok());
  ASSERT_TRUE(window.Advance(4, {El(3, 4, {1})}).ok());
  {
    const auto& referrers = window.ReferrersOf(1);
    ASSERT_EQ(referrers.size(), 2u);
    EXPECT_EQ(referrers[0], (Referrer{2, 2}));
    EXPECT_EQ(referrers[1], (Referrer{3, 4}));
  }
  auto update = window.Advance(6, {});
  ASSERT_TRUE(update.ok());
  // e2 (ts 2) left the window; its referral of e1 no longer counts.
  const auto& referrers = window.ReferrersOf(1);
  ASSERT_EQ(referrers.size(), 1u);
  EXPECT_EQ(referrers[0].id, 3);
  EXPECT_EQ(Ids(update->lost_referrer), (std::vector<ElementId>{1}));
}

TEST(ActiveWindowTest, LastReferredAtTracksMostRecentReferral) {
  ActiveWindow window(10);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  EXPECT_EQ(window.LastReferredAt(1), 1);  // own ts when never referred
  ASSERT_TRUE(window.Advance(3, {El(2, 3, {1})}).ok());
  EXPECT_EQ(window.LastReferredAt(1), 3);
  ASSERT_TRUE(window.Advance(7, {El(3, 7, {1})}).ok());
  EXPECT_EQ(window.LastReferredAt(1), 7);
}

TEST(ActiveWindowTest, DuplicateReferenceTargetsCollapse) {
  // Eq. 4 is defined over the *set* e.ref: a malformed element listing the
  // same target twice must not double-count the influence edge.
  ActiveWindow window(10);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(2, {El(2, 2, {1, 1, 1})}).ok());
  EXPECT_EQ(window.ReferrersOf(1).size(), 1u);
  const SocialElement* e2 = window.Find(2);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->refs, (std::vector<ElementId>{1}));
}

TEST(ActiveWindowTest, SelfReferenceIsDropped) {
  ActiveWindow window(10);
  auto update = window.Advance(1, {El(1, 1, {1})});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->dangling_refs, 0);
  EXPECT_TRUE(window.ReferrersOf(1).empty());
  EXPECT_TRUE(window.Find(1)->refs.empty());
}

TEST(ActiveWindowTest, DanglingReferencesCounted) {
  ActiveWindow window(4);
  auto update = window.Advance(1, {El(1, 1, {42})});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->dangling_refs, 1);
  EXPECT_TRUE(window.IsActive(1));
}

TEST(ActiveWindowTest, SameBucketReferenceResolves) {
  ActiveWindow window(4);
  auto update = window.Advance(3, {El(1, 1), El(2, 2, {1}), El(3, 3, {1, 2})});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->dangling_refs, 0);
  EXPECT_EQ(window.ReferrersOf(1).size(), 2u);
  EXPECT_EQ(window.ReferrersOf(2).size(), 1u);
  // Inserted elements are reported only as insertions.
  EXPECT_TRUE(update->gained_referrer.empty());
}

TEST(ActiveWindowTest, InsertionProcessedBeforeExpiry) {
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(2, {El(1, 2)}).ok());
  // At t=6, e1 (ts 2 <= 2) leaves the window, but the same bucket carries a
  // reference to it, so it must survive as a referenced element.
  auto update = window.Advance(6, {El(2, 6, {1})});
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(update->expired.empty());
  EXPECT_TRUE(window.IsActive(1));
  EXPECT_FALSE(window.IsInWindow(1));
}

TEST(ActiveWindowTest, GainedReferrerReported) {
  ActiveWindow window(10);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  auto update = window.Advance(2, {El(2, 2, {1})});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(Ids(update->gained_referrer), (std::vector<ElementId>{1}));
}

TEST(ActiveWindowTest, ExpiredChainReportsAllDiscards) {
  ActiveWindow window(3);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(2, {El(2, 2, {1})}).ok());
  ASSERT_TRUE(window.Advance(3, {El(3, 3, {2})}).ok());
  // t=6: cutoff 3; all of e1, e2, e3 exit the window; the whole chain dies.
  auto update = window.Advance(6, {});
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(Ids(update->expired), (std::vector<ElementId>{1, 2, 3}));
  EXPECT_EQ(window.num_active(), 0u);
}

TEST(ActiveWindowTest, ForEachActiveAndActiveIds) {
  ActiveWindow window(10);
  ASSERT_TRUE(window.Advance(3, {El(1, 1), El(2, 2), El(3, 3)}).ok());
  std::size_t count = 0;
  window.ForEachActive([&](const SocialElement& e) {
    ++count;
    EXPECT_TRUE(e.id >= 1 && e.id <= 3);
  });
  EXPECT_EQ(count, 3u);
  auto ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<ElementId>{1, 2, 3}));
}

TEST(ActiveWindowTest, SameCallInsertAndExpireReportedInNeitherList) {
  // A far time jump can expire a bucket's own elements (ts <= now - T at
  // the bucket's end). Such an element was never visible between Advance
  // calls, so it must be reported in NEITHER inserted nor expired — the
  // report lists stay disjoint for the index maintainer.
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  auto update = window.Advance(100, {El(2, 95)});
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(update->inserted.empty());
  EXPECT_EQ(Ids(update->expired), std::vector<ElementId>{1});  // e1 still expires
  EXPECT_FALSE(window.IsActive(2));
  EXPECT_TRUE(window.IsArchived(2));
}

TEST(ActiveWindowTest, EmptyBucketAdvancesTime) {
  ActiveWindow window(5);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(3, {}).ok());
  EXPECT_EQ(window.now(), 3);
  EXPECT_TRUE(window.IsActive(1));
}

TEST(ActiveWindowTest, PaperActiveSetAtT8) {
  // Table 1: at t=8 with T=4, A_8 contains everything except e4.
  ActiveWindow window(4);
  ASSERT_TRUE(window.Advance(1, {El(1, 1)}).ok());
  ASSERT_TRUE(window.Advance(2, {El(2, 2)}).ok());
  ASSERT_TRUE(window.Advance(3, {El(3, 3)}).ok());
  ASSERT_TRUE(window.Advance(4, {El(4, 4, {3})}).ok());
  ASSERT_TRUE(window.Advance(5, {El(5, 5, {1})}).ok());
  ASSERT_TRUE(window.Advance(6, {El(6, 6, {3})}).ok());
  ASSERT_TRUE(window.Advance(7, {El(7, 7, {2})}).ok());
  ASSERT_TRUE(window.Advance(8, {El(8, 8, {2, 3, 6})}).ok());
  EXPECT_EQ(window.num_active(), 7u);
  EXPECT_FALSE(window.IsActive(4));
  for (ElementId id : {1, 2, 3, 5, 6, 7, 8}) {
    EXPECT_TRUE(window.IsActive(id)) << "e" << id;
  }
  // I_8(e3) = {e6, e8}: e4's referral expired with e4.
  const auto& r3 = window.ReferrersOf(3);
  ASSERT_EQ(r3.size(), 2u);
  EXPECT_EQ(r3[0].id, 6);
  EXPECT_EQ(r3[1].id, 8);
}

}  // namespace
}  // namespace ksir
