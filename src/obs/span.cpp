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

Span::Span(Profiler* profiler, std::string name, std::string category,
           std::uint32_t track, std::uint32_t seq)
    : profiler_(profiler) {
  if (profiler_ == nullptr) {
    return;
  }
  rec_.name = std::move(name);
  rec_.category = std::move(category);
  rec_.track = track;
  rec_.seq = seq;
  rec_.start_ns = Profiler::now_ns();
}

void Span::counter(std::string key, std::uint64_t value) {
  if (profiler_ == nullptr) {
    return;
  }
  rec_.counters.emplace_back(std::move(key), value);
}

void Span::kind(std::string kind) {
  if (profiler_ == nullptr) {
    return;
  }
  rec_.kind = std::move(kind);
}

void Span::attach(PerfCounterGroup* group) {
  if (profiler_ == nullptr || group == nullptr) {
    return;
  }
  perf_ = group;
  perf_begin_ = group->sample();
}

void Span::close() {
  if (profiler_ == nullptr) {
    return;
  }
  rec_.dur_ns = Profiler::now_ns() - rec_.start_ns;
  if (perf_ != nullptr) {
    const PerfSample end = perf_->sample();
    for (unsigned i = 0; i < kPerfEventCount; ++i) {
      const auto event = static_cast<PerfEvent>(i);
      if (end.has(event) && perf_begin_.has(event) &&
          end[event] >= perf_begin_[event]) {
        rec_.counters.emplace_back(perf_event_name(event),
                                   end[event] - perf_begin_[event]);
      }
    }
    perf_ = nullptr;
  }
  profiler_->record(std::move(rec_));
  profiler_ = nullptr;
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
