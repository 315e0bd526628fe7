#include "transport/backlog.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace jbs::net {
namespace {

TEST(BacklogTableTest, KeepsEachConnectionsLastSample) {
  BacklogTable table;
  const ConnId a = table.Open();
  const ConnId b = table.Open();
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Get(a), 0u);
  table.Set(a, 100);
  table.Set(b, 7);
  table.Set(a, 60);
  EXPECT_EQ(table.Get(a), 60u);
  EXPECT_EQ(table.Get(b), 7u);
  table.Set(b, 0);
  EXPECT_EQ(table.Get(b), 0u);
  table.Set(a, ~uint64_t{0});  // saturates instead of spilling into the tag
  EXPECT_EQ(table.Get(a), (uint64_t{1} << 40) - 1);
  EXPECT_EQ(table.Get(0), 0u);  // never an id
}

TEST(BacklogTableTest, ARetiredIdReadsZeroAndCannotTouchItsSlotsNextOwner) {
  BacklogTable table;
  const ConnId old_id = table.Open();
  table.Set(old_id, 500);
  table.Close(old_id);
  EXPECT_EQ(table.Get(old_id), 0u);
  // The freed slot goes to the next connection under a new id.
  const ConnId new_id = table.Open();
  EXPECT_NE(new_id, old_id);
  EXPECT_EQ(new_id % BacklogTable::kMaxConnections,
            old_id % BacklogTable::kMaxConnections);
  EXPECT_EQ(table.Get(new_id), 0u);
  // A late sample for the old id, e.g. from a send that raced its
  // connection's close, leaves the new owner's slot alone.
  table.Set(new_id, 3);
  table.Set(old_id, 9);
  table.Close(old_id);
  EXPECT_EQ(table.Get(old_id), 0u);
  EXPECT_EQ(table.Get(new_id), 3u);
  table.CloseAll();
  EXPECT_EQ(table.Get(new_id), 0u);
  table.Close(new_id);  // after CloseAll: nothing left to retire
  EXPECT_NE(table.Open(), 0u);
}

TEST(BacklogTableTest, RefusesPastTheSlotLimitUntilOneCloses) {
  BacklogTable table;
  std::set<ConnId> ids;
  for (size_t i = 0; i < BacklogTable::kMaxConnections; ++i) {
    const ConnId id = table.Open();
    ASSERT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), BacklogTable::kMaxConnections);
  EXPECT_EQ(table.Open(), 0u);
  table.Close(*ids.begin());
  EXPECT_NE(table.Open(), 0u);
}

TEST(BacklogTableTest, ConcurrentSamplesAndClosesNeverResurrectASlot) {
  // One thread samples while another closes and reopens the slot: a
  // sample for the closed id must never land in the new owner's slot.
  BacklogTable table;
  for (int round = 0; round < 200; ++round) {
    const ConnId old_id = table.Open();
    std::thread sampler([&] {
      for (int i = 0; i < 200; ++i) table.Set(old_id, 1000 + i);
    });
    table.Close(old_id);
    const ConnId new_id = table.Open();
    sampler.join();
    EXPECT_EQ(table.Get(old_id), 0u);
    EXPECT_EQ(table.Get(new_id), 0u);
    table.Close(new_id);
  }
}

}  // namespace
}  // namespace jbs::net
