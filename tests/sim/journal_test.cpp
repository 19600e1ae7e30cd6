#include "sim/journal.h"

#include <gtest/gtest.h>

namespace smi::sim {
namespace {

TEST(Journal, InactiveLogsNothing) {
  // With no journal installed (sequential schedulers, barrier-time work)
  // the revocable-update helpers only update.
  ASSERT_EQ(Journal::current(), nullptr);
  Journal j;
  std::uint64_t counter = 5;
  CountAt(counter, 10);
  CountSpan(counter, 0, 10);
  SetAt(counter, 10, 5);
  j.TrimAtOrAfter(0);  // nothing logged, so nothing undone
  EXPECT_EQ(counter, 5u);
}

TEST(Journal, TrimUndoesAddsAtOrAfterCycle) {
  Journal j;
  std::uint64_t counter = 0;
  {
    const Journal::Scope scope(j);
    for (Cycle c = 0; c < 10; ++c) CountAt(counter, c);
  }
  j.TrimAtOrAfter(7);  // cycles 7, 8, 9 undone
  EXPECT_EQ(counter, 7u);
}

TEST(Journal, TrimClipsSpansAtCycle) {
  Journal j;
  std::uint64_t counter = 0;
  counter += 10;
  j.Span(&counter, 0, 10);  // [0, 10)
  counter += 5;
  j.Span(&counter, 12, 17);  // [12, 17)
  j.TrimAtOrAfter(14);
  // First span untouched (ends at 10 <= 14); second loses [14, 17).
  EXPECT_EQ(counter, 12u);

  std::uint64_t whole = 8;
  whole += 4;
  j.Span(&whole, 20, 24);
  j.TrimAtOrAfter(20);  // entire span at or after the cut
  EXPECT_EQ(whole, 8u);
}

TEST(Journal, TrimRestoresOldestSurvivingValue) {
  // Two successive overwrites past the cut must restore the value from
  // before the *first* of them — newest-first replay guarantees it.
  Journal j;
  std::uint64_t watermark = 3;
  j.Restore(&watermark, 5, watermark);
  watermark = 7;
  j.Restore(&watermark, 6, watermark);
  watermark = 9;
  j.TrimAtOrAfter(5);
  EXPECT_EQ(watermark, 3u);
}

TEST(Journal, TrimBeforeEverythingUndoesAll) {
  Journal j;
  std::uint64_t counter = 0;
  ++counter;
  j.Add(&counter, 0, 1);
  counter += 6;
  j.Span(&counter, 1, 7);
  j.TrimAtOrAfter(0);
  EXPECT_EQ(counter, 0u);
}

TEST(Journal, DeactivatingClearsEntries) {
  // The engine clears every partition's journal at each epoch barrier.
  Journal j;
  std::uint64_t counter = 1;
  j.Add(&counter, 3, 1);
  j.Clear();  // drops the log
  j.TrimAtOrAfter(0);
  EXPECT_EQ(counter, 1u);  // the pre-clear entry is gone
}

TEST(Journal, TrimDropsTheLog) {
  Journal j;
  std::uint64_t counter = 1;
  j.Add(&counter, 3, 1);
  j.TrimAtOrAfter(10);  // cycle 3 < 10: update survives...
  EXPECT_EQ(counter, 1u);
  j.TrimAtOrAfter(0);  // ...and the log is empty, so nothing to undo now
  EXPECT_EQ(counter, 1u);
}

TEST(Journal, AddsToOneCounterAtOneCycleCoalesce) {
  Journal j;
  std::uint64_t resumes = 0;
  std::uint64_t other = 0;
  {
    const Journal::Scope scope(j);
    CountAt(resumes, 4);
    CountAt(resumes, 4);
    CountAt(resumes, 5);
    CountAt(resumes, 5);
    CountAt(other, 5);
    CountAt(resumes, 5);
  }
  EXPECT_EQ(resumes, 5u);
  j.TrimAtOrAfter(5);
  EXPECT_EQ(resumes, 2u);
  EXPECT_EQ(other, 0u);
}

TEST(Journal, ScopeInstallsForItsLifetime) {
  Journal j;
  EXPECT_EQ(Journal::current(), nullptr);
  {
    const Journal::Scope scope(j);
    EXPECT_EQ(Journal::current(), &j);
  }
  EXPECT_EQ(Journal::current(), nullptr);
}

TEST(Journal, SetAtIsRevocable) {
  Journal j;
  std::uint64_t dead_cycle = kNeverCycle;
  {
    const Journal::Scope scope(j);
    SetAt(dead_cycle, 40, 40);
  }
  EXPECT_EQ(dead_cycle, 40u);
  j.TrimAtOrAfter(40);
  EXPECT_EQ(dead_cycle, kNeverCycle);
}

}  // namespace
}  // namespace smi::sim
