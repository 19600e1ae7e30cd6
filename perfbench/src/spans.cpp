#include "spans.h"

namespace perfbench {

namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

Spans::Scope::~Scope() {
  if (owner_ != nullptr) owner_->Close(index_);
}

Spans::Scope Spans::Open(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int parent = open_.empty() ? -1 : open_.back();
  records_.push_back(Record{name, job_, parent, Clock::now(), {}});
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void Spans::Close(int index) {
  records_[static_cast<std::size_t>(index)].end = Clock::now();
  // Scopes are stack objects, so spans close innermost first.
  open_.pop_back();
}

std::map<std::string, double> Spans::SelfSeconds(int job) const {
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    if (r.job != job) continue;
    self[r.name] += Seconds(r.end - r.start);
    if (r.parent >= 0) {
      self[records_[static_cast<std::size_t>(r.parent)].name] -=
          Seconds(r.end - r.start);
    }
  }
  return self;
}

smi::json::Value Spans::ChromeTrace() const {
  smi::json::Array events;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    smi::json::Object ev;
    ev["name"] = std::string(r.name);
    ev["ph"] = std::string("X");
    ev["pid"] = 0;
    ev["tid"] = r.job;
    ev["ts"] = Seconds(r.start - origin_) * 1e6;
    ev["dur"] = Seconds(r.end - r.start) * 1e6;
    smi::json::Object args;
    args["id"] = static_cast<std::int64_t>(i);
    args["parent"] = r.parent;
    ev["args"] = smi::json::Value(std::move(args));
    events.push_back(smi::json::Value(std::move(ev)));
  }
  smi::json::Object doc;
  doc["traceEvents"] = smi::json::Value(std::move(events));
  doc["displayTimeUnit"] = std::string("ms");
  return smi::json::Value(std::move(doc));
}

}  // namespace perfbench
