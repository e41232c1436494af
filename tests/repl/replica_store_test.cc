#include "repl/replica_store.h"

#include <gtest/gtest.h>

namespace dynvote {
namespace {

ReplicaStore MustMake(SiteSet placement) {
  auto store = ReplicaStore::Make(placement);
  EXPECT_TRUE(store.ok());
  return store.MoveValue();
}

TEST(ReplicaStateTest, ToString) {
  ReplicaState s{8, 8, SiteSet{0, 1, 2}};
  EXPECT_EQ(s.ToString(), "o=8 v=8 P={0, 1, 2}");
}

TEST(ReplicaStoreTest, RejectsEmptyPlacement) {
  EXPECT_TRUE(ReplicaStore::Make(SiteSet()).status().IsInvalidArgument());
}

TEST(ReplicaStoreTest, InitialStateMatchesPaper) {
  // "the initial operation numbers and version numbers are 1 and the
  // partition vectors are {A, B, C} for all three copies."
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  for (SiteId s : SiteSet{0, 1, 2}) {
    EXPECT_EQ(store.state(s).op_number, 1);
    EXPECT_EQ(store.state(s).version, 1);
    EXPECT_EQ(store.state(s).partition_set, (SiteSet{0, 1, 2}));
  }
}

TEST(ReplicaStoreTest, SparsePlacement) {
  ReplicaStore store = MustMake(SiteSet{2, 5});
  EXPECT_EQ(store.num_copies(), 2);
  EXPECT_EQ(store.placement(), (SiteSet{2, 5}));
  EXPECT_EQ(store.state(5).op_number, 1);
}

TEST(ReplicaStoreTest, CopiesAmongFiltersNonCopies) {
  ReplicaStore store = MustMake(SiteSet{1, 3});
  EXPECT_EQ(store.CopiesAmong(SiteSet{0, 1, 2, 3, 4}), (SiteSet{1, 3}));
  EXPECT_EQ(store.CopiesAmong(SiteSet{0, 2}), SiteSet());
}

TEST(ReplicaStoreTest, MaxQueries) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  store.mutable_state(0)->op_number = 5;
  store.mutable_state(0)->version = 3;
  store.mutable_state(1)->op_number = 7;
  store.mutable_state(1)->version = 2;

  EXPECT_EQ(store.MaxOp(SiteSet{0, 1, 2}), 7);
  EXPECT_EQ(store.MaxVersion(SiteSet{0, 1, 2}), 3);
  EXPECT_EQ(store.MaxVersionSites(SiteSet{0, 1, 2}), SiteSet{0});

  // Restricted to a subset, the maxima are over that subset only.
  EXPECT_EQ(store.MaxOp(SiteSet{0, 2}), 5);
  EXPECT_EQ(store.MaxVersionSites(SiteSet{1, 2}), SiteSet{1});
  EXPECT_EQ(store.MaxVersion(SiteSet{1, 2}), 2);
}

// The initial state is one ensemble everywhere: every copy ties on the
// maximal (o, v), which the uniform block records.
TEST(ReplicaStoreTest, FreshStoreIsUniformOverThePlacement) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  EXPECT_TRUE(store.UniformOver(SiteSet{0, 1, 2}));
  EXPECT_TRUE(store.UniformOver(SiteSet{1}));
  for (SiteId s : SiteSet{0, 1, 2}) {
    EXPECT_EQ(store.state(s).op_number, store.MaxOp(SiteSet{0, 1, 2}));
  }
}

TEST(ReplicaStoreTest, UniformOverTheEmptySetIsVacuous) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  (void)store.mutable_state(0);
  EXPECT_TRUE(store.UniformOver(SiteSet()));
}

TEST(ReplicaStoreTest, CommitWithPEqualToItsCopiesLeavesThatBlockUniform) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  // Site 5 holds no copy, so the block is {0, 2}: P = X of Algorithm 1.
  store.Commit(SiteSet{0, 2, 5}, 4, 2, SiteSet{0, 2});
  EXPECT_TRUE(store.UniformOver(SiteSet{0, 2}));
  EXPECT_TRUE(store.UniformOver(SiteSet{2}));
  EXPECT_FALSE(store.UniformOver(SiteSet{0, 1}));
  EXPECT_FALSE(store.UniformOver(SiteSet{0, 1, 2}));
}

TEST(ReplicaStoreTest, CommitWithAnyOtherPartitionSetLeavesNoBlock) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  store.Commit(SiteSet{0, 1}, 2, 2, SiteSet{0});
  EXPECT_FALSE(store.UniformOver(SiteSet{0}));
  EXPECT_FALSE(store.UniformOver(SiteSet{0, 1}));
  store.Commit(SiteSet{0, 1}, 3, 3, SiteSet{0, 1});
  EXPECT_TRUE(store.UniformOver(SiteSet{0, 1}));
  // P naming a non-copy is not the participating block either.
  store.Commit(SiteSet{0, 1}, 4, 4, SiteSet{0, 1, 5});
  EXPECT_FALSE(store.UniformOver(SiteSet{0, 1}));
}

TEST(ReplicaStoreTest, ResetRestoresTheUniformBlock) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  store.Commit(SiteSet{0, 1}, 2, 2, SiteSet{0});
  ASSERT_FALSE(store.UniformOver(SiteSet{0, 1, 2}));
  store.Reset();
  EXPECT_TRUE(store.UniformOver(SiteSet{0, 1, 2}));
}

TEST(ReplicaStoreTest, MutableStateHandoutClearsTheBlock) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  // Conservative, like the epoch: a handout counts as a write even when
  // the caller writes nothing.
  (void)store.mutable_state(1);
  EXPECT_FALSE(store.UniformOver(SiteSet{0}));
  EXPECT_FALSE(store.UniformOver(SiteSet{0, 1, 2}));
}

TEST(ReplicaStoreTest, CopyAssignCarriesTheBlock) {
  ReplicaStore a = MustMake(SiteSet{0, 1, 2});
  a.Commit(SiteSet{0, 1}, 2, 2, SiteSet{0, 1});
  ReplicaStore b = MustMake(SiteSet{0, 1, 2});
  b = a;
  EXPECT_TRUE(b.UniformOver(SiteSet{0, 1}));
  EXPECT_FALSE(b.UniformOver(SiteSet{0, 1, 2}));
  // The copies are independent: clearing one leaves the other.
  (void)b.mutable_state(0);
  EXPECT_FALSE(b.UniformOver(SiteSet{0, 1}));
  EXPECT_TRUE(a.UniformOver(SiteSet{0, 1}));
  a = b;
  EXPECT_FALSE(a.UniformOver(SiteSet{0, 1}));
}

TEST(ReplicaStoreTest, CommitInstallsEnsembleAtParticipants) {
  ReplicaStore store = MustMake(SiteSet{0, 1, 2});
  store.Commit(SiteSet{0, 2}, 9, 4, SiteSet{0, 2});
  EXPECT_EQ(store.state(0).op_number, 9);
  EXPECT_EQ(store.state(0).version, 4);
  EXPECT_EQ(store.state(0).partition_set, (SiteSet{0, 2}));
  EXPECT_EQ(store.state(2).op_number, 9);
  // Non-participant untouched.
  EXPECT_EQ(store.state(1).op_number, 1);
  EXPECT_EQ(store.state(1).partition_set, (SiteSet{0, 1, 2}));
}

TEST(ReplicaStoreTest, CommitIgnoresNonCopies) {
  ReplicaStore store = MustMake(SiteSet{0, 1});
  store.Commit(SiteSet{0, 1, 5}, 2, 2, SiteSet{0, 1});
  EXPECT_EQ(store.state(0).op_number, 2);
  EXPECT_EQ(store.state(1).op_number, 2);
}

TEST(ReplicaStoreTest, ResetRestoresInitialState) {
  ReplicaStore store = MustMake(SiteSet{0, 1});
  store.Commit(SiteSet{0, 1}, 10, 10, SiteSet{0});
  store.Reset();
  EXPECT_EQ(store.state(0).op_number, 1);
  EXPECT_EQ(store.state(1).partition_set, (SiteSet{0, 1}));
}

}  // namespace
}  // namespace dynvote
