#include "obs/counters.h"

#include <gtest/gtest.h>

namespace smi::obs {
namespace {

// --- FifoCounters --------------------------------------------------------

TEST(FifoCounters, SpansAccountCommittedState) {
  FifoCounters f;
  // Committed-empty from cycle 0. First push committed at cycle 4 with
  // occupancy 1 (of 2): the state set at cycle 4 is observed from cycle 5.
  f.OnPush(4);
  f.OnCommit(4, 1, 2);
  EXPECT_EQ(f.pushes, 1u);
  // Fills at cycle 6 (occupancy 2 of 2) — full from cycle 7.
  f.OnPush(6);
  f.OnCommit(6, 2, 2);
  // Drains at cycle 9: pops at 9, empty from cycle 10.
  f.OnPop(9);
  f.OnPop(9);
  f.OnCommit(9, 0, 2);
  f.Finalize(12);
  EXPECT_EQ(f.pushes, 2u);
  EXPECT_EQ(f.pops, 2u);
  EXPECT_EQ(f.high_water, 2u);
  // Empty over [0, 5) and [10, 12): 5 + 2 cycles.
  EXPECT_EQ(f.empty_cycles, 7u);
  // Full over [7, 10): 3 cycles.
  EXPECT_EQ(f.full_stall_cycles, 3u);
}

TEST(FifoCounters, HighWaterTracksMaxOccupancy) {
  FifoCounters f;
  f.OnCommit(1, 3, 8);
  f.OnCommit(2, 7, 8);
  f.OnCommit(3, 2, 8);
  f.Finalize(4);
  EXPECT_EQ(f.high_water, 7u);
}

TEST(FifoCounters, JournaledUpdatesTrimLikeSynchronousStop) {
  // Running the same commit sequence but stopping at cycle 8 must equal
  // journaling past 8 and trimming — the parallel overshoot contract.
  FifoCounters reference;
  reference.OnPush(4);
  reference.OnCommit(4, 1, 1);  // full from cycle 5
  reference.Finalize(8);

  FifoCounters overshoot;
  sim::Journal journal;
  {
    const sim::Journal::Scope scope(journal);
    overshoot.OnPush(4);
    overshoot.OnCommit(4, 1, 1);
    overshoot.OnPop(9);  // past the merged finish cycle
    overshoot.OnCommit(9, 0, 1);
    overshoot.Finalize(12);
  }
  journal.TrimAtOrAfter(8);
  EXPECT_EQ(overshoot.pushes, reference.pushes);
  EXPECT_EQ(overshoot.pops, reference.pops);
  EXPECT_EQ(overshoot.full_stall_cycles, reference.full_stall_cycles);
  EXPECT_EQ(overshoot.empty_cycles, reference.empty_cycles);
}

// --- CkCounters ----------------------------------------------------------

TEST(CkCounters, PollWatermarkCountsEveryCycleOnce) {
  CkCounters ck;
  ck.CountPollsTo(5);   // polls over [0, 5)
  ck.CountPollsTo(5);   // idempotent at the same watermark
  ck.CountPollsTo(12);  // [5, 12)
  EXPECT_EQ(ck.polls, 12u);
  ck.Finalize(20);  // trailing idle gap [12, 20)
  EXPECT_EQ(ck.polls, 20u);
}

TEST(CkCounters, FinalizeIsGatedOnEverPolling) {
  // An arbiter with no inputs never polls; Finalize must not invent polls.
  CkCounters idle;
  idle.Finalize(100);
  EXPECT_EQ(idle.polls, 0u);
}

TEST(CkCounters, ForwardIgnoresUnknownOps) {
  CkCounters ck;
  ck.OnForward(0, 1);
  ck.OnForward(2, 2);
  ck.OnForward(2, 3);
  ck.OnForward(-1, 4);  // unknown wire ops: not counted, no crash
  ck.OnForward(3, 5);
  EXPECT_EQ(ck.forwarded_by_op[0], 1u);
  EXPECT_EQ(ck.forwarded_by_op[1], 0u);
  EXPECT_EQ(ck.forwarded_by_op[2], 2u);
}

// --- LinkCounters --------------------------------------------------------

TEST(LinkCounters, TxStallSpansCarryAcrossGaps) {
  LinkCounters link;
  link.OnTxCycle(3, true);    // stalled from cycle 3
  link.OnTxCycle(10, false);  // next step at 10: stall held over [3, 10)
  link.OnTxCycle(15, true);
  link.Finalize(18);  // trailing stall [15, 18)
  EXPECT_EQ(link.credit_stall_cycles, 10u);
}

TEST(LinkCounters, DeliveriesRecordAndTrim) {
  LinkCounters link;
  link.trace = true;
  link.OnDeliver(2);
  link.OnDeliver(5);
  link.OnDeliver(9);
  EXPECT_EQ(link.busy_cycles, 3u);
  link.TrimTraceAtOrAfter(5);
  ASSERT_EQ(link.deliveries.size(), 1u);
  EXPECT_EQ(link.deliveries[0], 2u);
}

TEST(LinkCounters, TracingDisabledKeepsNoTimeline) {
  LinkCounters link;
  link.OnDeliver(2);
  EXPECT_EQ(link.busy_cycles, 1u);
  EXPECT_TRUE(link.deliveries.empty());
}

// --- KernelProbe ---------------------------------------------------------

TEST(KernelProbe, ConsecutiveResumesCoalesce) {
  KernelProbe k;
  k.trace = true;
  k.OnResume(3);
  k.OnResume(4);
  k.OnResume(5);
  k.OnResume(9);  // gap: new interval
  k.Finalize(20);
  EXPECT_EQ(k.resumes, 4u);
  ASSERT_EQ(k.intervals.size(), 2u);
  EXPECT_EQ(k.intervals[0], std::make_pair(Cycle{3}, Cycle{6}));
  EXPECT_EQ(k.intervals[1], std::make_pair(Cycle{9}, Cycle{10}));
}

TEST(KernelProbe, TrimClipsClosedAndOpenIntervals) {
  KernelProbe k;
  k.trace = true;
  k.OnResume(1);
  k.OnResume(2);
  k.OnResume(6);
  k.OnResume(7);
  k.OnResume(8);  // open interval [6, 9)
  k.TrimTraceAtOrAfter(7);
  ASSERT_EQ(k.intervals.size(), 1u);
  k.Finalize(9);
  ASSERT_EQ(k.intervals.size(), 2u);
  EXPECT_EQ(k.intervals[0], std::make_pair(Cycle{1}, Cycle{3}));
  EXPECT_EQ(k.intervals[1], std::make_pair(Cycle{6}, Cycle{7}));
}

TEST(KernelProbe, TrimDropsFullyOvershotOpenInterval) {
  KernelProbe k;
  k.trace = true;
  k.OnResume(10);
  k.OnResume(11);  // open interval [10, 12), entirely past the cut
  k.TrimTraceAtOrAfter(8);
  k.Finalize(20);
  EXPECT_TRUE(k.intervals.empty());
}

TEST(KernelProbe, DoneCycleRestoresOnTrim) {
  KernelProbe k;
  sim::Journal journal;
  {
    const sim::Journal::Scope scope(journal);
    k.OnDone(14);  // finished at cycle 14 (stored as 15)
  }
  EXPECT_EQ(k.done_cycle_p1, 15u);
  journal.TrimAtOrAfter(10);  // the finish was in the overshot region
  EXPECT_EQ(k.done_cycle_p1, 0u);
}

}  // namespace
}  // namespace smi::obs
