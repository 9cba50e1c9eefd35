#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <map>

namespace acoustic::obs {

std::uint64_t Profiler::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Profiler::record(SpanRecord rec) {
  std::lock_guard lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(rec));
}

std::size_t Profiler::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::uint64_t Profiler::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::vector<SpanRecord> Profiler::snapshot() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<SpanRecord> Profiler::take() {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> out;
  out.swap(spans_);
  dropped_ = 0;
  return out;
}

Span::Span(Profiler* profiler, std::string_view name,
           std::string_view category, std::uint32_t track, std::uint32_t seq) {
  if (profiler == nullptr) {
    return;
  }
  Open& open = open_.emplace();
  open.profiler = profiler;
  open.rec.name = name;
  open.rec.category = category;
  open.rec.track = track;
  open.rec.seq = seq;
  open.rec.start_ns = Profiler::now_ns();
}

void Span::counter(std::string_view key, std::uint64_t value) {
  if (open_) {
    open_->rec.counters.emplace_back(key, value);
  }
}

void Span::kind(std::string_view kind) {
  if (open_) {
    open_->rec.kind = kind;
  }
}

void Span::attach(PerfCounterGroup* group) {
  if (open_ && group != nullptr) {
    open_->perf = group;
    open_->perf_begin = group->sample();
  }
}

void Span::close() {
  if (!open_) {
    return;
  }
  SpanRecord& rec = open_->rec;
  rec.dur_ns = Profiler::now_ns() - rec.start_ns;
  if (open_->perf != nullptr) {
    const PerfSample end = open_->perf->sample();
    const PerfSample& begin = open_->perf_begin;
    for (unsigned i = 0; i < kPerfEventCount; ++i) {
      const auto event = static_cast<PerfEvent>(i);
      if (end.has(event) && begin.has(event) && end[event] >= begin[event]) {
        rec.counters.emplace_back(perf_event_name(event),
                                  end[event] - begin[event]);
      }
    }
  }
  open_->profiler->record(std::move(rec));
  open_.reset();
}

std::uint64_t ProfileRow::counter(const std::string& key) const {
  for (const auto& [name, value] : counters) {
    if (name == key) {
      return value;
    }
  }
  return 0;
}

std::vector<ProfileRow> aggregate_profile(
    const std::vector<SpanRecord>& spans, const std::string& category) {
  // Keyed by (seq, name): the map's order is the row order.
  std::map<std::pair<std::uint32_t, std::string>, ProfileRow> by_node;
  for (const SpanRecord& span : spans) {
    if (span.category != category) {
      continue;
    }
    auto [it, inserted] = by_node.try_emplace({span.seq, span.name});
    ProfileRow& row = it->second;
    if (inserted) {
      row.name = span.name;
      row.kind = span.kind;
    }
    ++row.calls;
    row.wall_ms += static_cast<double>(span.dur_ns) * 1e-6;
    for (const auto& [key, value] : span.counters) {
      auto slot = std::find_if(
          row.counters.begin(), row.counters.end(),
          [&](const auto& kv) { return kv.first == key; });
      if (slot == row.counters.end()) {
        row.counters.emplace_back(key, value);
      } else {
        slot->second += value;
      }
    }
  }
  std::vector<ProfileRow> rows;
  rows.reserve(by_node.size());
  for (auto& [key, row] : by_node) {
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace acoustic::obs
