#ifndef SMI_SIM_JOURNAL_H
#define SMI_SIM_JOURNAL_H

/// \file journal.h
/// Undo log for the parallel scheduler's final-epoch overshoot.
///
/// Partitions of the parallel scheduler run each epoch to its end, so the
/// final epoch carries them past the merged completion cycle. Every update
/// that must read as if the run had stopped there — kernel resumes, link
/// deliveries, reliability counters, a link's death cycle, every telemetry
/// counter — is a *revocable update*: it goes through `CountAt`,
/// `CountSpan` or `SetAt`, which also log it with its cycle stamp into the
/// calling thread's current journal. The engine owns one journal per
/// parallel partition and installs it (`Journal::Scope`) while the
/// partition's worker runs an epoch; it clears the journals at every
/// barrier and replays them backwards at the merged completion cycle. With
/// no journal installed (sequential schedulers, barrier-time global events)
/// the helpers are the plain update plus one thread-local load.
///
/// A counter may only be updated by the thread that owns its entity, so the
/// journal holding an update is always the one of the partition that made
/// it.

#include <cstdint>
#include <vector>

#include "sim/clock.h"

namespace smi::sim {

class Journal {
 public:
  /// The journal installed on this thread, or null.
  static Journal* current() { return current_; }

  /// Installs `journal` as this thread's current journal for its lifetime;
  /// the thread has none afterwards.
  class Scope {
   public:
    explicit Scope(Journal& journal) { current_ = &journal; }
    ~Scope() { current_ = nullptr; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  void Clear() { entries_.clear(); }

  /// `counter += delta` happened at `cycle`. Consecutive adds to one
  /// counter at one cycle share an entry (a partition's kernel resumes).
  void Add(std::uint64_t* counter, Cycle cycle, std::uint64_t delta) {
    if (!entries_.empty()) {
      Entry& last = entries_.back();
      if (last.kind == Kind::kAdd && last.counter == counter &&
          last.a == cycle) {
        last.b += delta;
        return;
      }
    }
    entries_.push_back(Entry{Kind::kAdd, counter, cycle, delta});
  }
  /// `counter` accumulated one unit per cycle over [from, to).
  void Span(std::uint64_t* counter, Cycle from, Cycle to) {
    entries_.push_back(Entry{Kind::kSpan, counter, from, to});
  }
  /// `counter` was overwritten at `cycle`; `old_value` restores it.
  void Restore(std::uint64_t* counter, Cycle cycle, std::uint64_t old_value) {
    entries_.push_back(Entry{Kind::kRestore, counter, cycle, old_value});
  }

  /// Undo every logged update attributable to cycles >= `cycle`, newest
  /// first (so Restore entries land on the oldest surviving value), then
  /// drop the log.
  void TrimAtOrAfter(Cycle cycle) {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      switch (it->kind) {
        case Kind::kAdd:
          if (it->a >= cycle) *it->counter -= it->b;
          break;
        case Kind::kSpan:
          if (it->b > cycle) {
            *it->counter -= it->b - (it->a > cycle ? it->a : cycle);
          }
          break;
        case Kind::kRestore:
          if (it->a >= cycle) *it->counter = it->b;
          break;
      }
    }
    entries_.clear();
  }

 private:
  enum class Kind : std::uint8_t { kAdd, kSpan, kRestore };
  struct Entry {
    Kind kind;
    std::uint64_t* counter;
    Cycle a;          ///< kAdd/kRestore: cycle stamp; kSpan: interval start
    std::uint64_t b;  ///< kAdd: delta; kSpan: interval end; kRestore: old value
  };
  static inline thread_local Journal* current_ = nullptr;
  std::vector<Entry> entries_;
};

/// Revocable `counter += n` at cycle `now`.
inline void CountAt(std::uint64_t& counter, Cycle now, std::uint64_t n = 1) {
  counter += n;
  if (Journal* j = Journal::current()) j->Add(&counter, now, n);
}

/// Revocable one-per-cycle accumulation over [from, to); no-op if empty.
inline void CountSpan(std::uint64_t& counter, Cycle from, Cycle to) {
  if (to <= from) return;
  counter += to - from;
  if (Journal* j = Journal::current()) j->Span(&counter, from, to);
}

/// Revocable `value = next` at cycle `now`.
inline void SetAt(std::uint64_t& value, Cycle now, std::uint64_t next) {
  if (Journal* j = Journal::current()) j->Restore(&value, now, value);
  value = next;
}

}  // namespace smi::sim

#endif  // SMI_SIM_JOURNAL_H
