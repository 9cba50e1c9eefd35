#include "obs/metrics.hpp"

#include <set>
#include <vector>

#include "obs/json.hpp"

namespace acoustic::obs {

std::string prometheus_sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      c = '_';
    }
  }
  if (out.empty()) {
    return "_";
  }
  if (out.front() >= '0' && out.front() <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string prometheus_escape_help(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prometheus_escape_label(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void Registry::describe(const std::string& name, std::string help) {
  std::lock_guard lock(mutex_);
  descriptions_[name] = std::move(help);
}

void Registry::add(const std::string& name, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  counters_[name] += delta;
}

std::uint64_t Registry::counter(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Registry::set(const std::string& name, double value) {
  std::lock_guard lock(mutex_);
  gauges_[name] = value;
}

double Registry::gauge(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

std::map<std::string, double> Registry::gauges() const {
  std::lock_guard lock(mutex_);
  return gauges_;
}

std::string Registry::to_json(int indent) const {
  std::lock_guard lock(mutex_);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string p1 = pad + "  ";
  const std::string p2 = pad + "    ";

  std::string out = "{\n";
  const auto append_section = [&](const char* key, const auto& metrics) {
    out += p1;
    out += '"';
    out += key;
    out += "\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      out += first ? "\n" : ",\n";
      out += p2 + "\"" + json_escape(name) + "\": " + json_number(value);
      first = false;
    }
    out += metrics.empty() ? std::string("}") : "\n" + p1 + "}";
  };
  append_section("counters", counters_);
  out += ",\n";
  append_section("gauges", gauges_);
  out += "\n" + pad + "}";
  return out;
}

std::string Registry::to_prometheus() const {
  std::lock_guard lock(mutex_);

  // Group registry names by sanitized family name (sorted maps in, sorted
  // groups out — the exposition is deterministic). Within a group the
  // members are told apart by a name label; a gauge family name the
  // counters already claimed gets a kind suffix — the format forbids two
  // # TYPE lines for one metric name.
  std::set<std::string> claimed;
  const auto claim = [&claimed](std::string family, const char* suffix) {
    if (claimed.count(family) != 0) {
      family += suffix;
    }
    while (claimed.count(family) != 0) {
      family += '_';
    }
    claimed.insert(family);
    return family;
  };
  std::string out;
  const auto help = [this, &out](const std::string& family,
                                const std::vector<std::string>& members) {
    for (const std::string& member : members) {
      const auto it = descriptions_.find(member);
      if (it != descriptions_.end() && !it->second.empty()) {
        out += "# HELP ";
        out += family;
        out += ' ';
        out += prometheus_escape_help(it->second);
        out += '\n';
        return;
      }
    }
  };
  const auto group_by_family = [](const auto& metrics) {
    std::map<std::string, std::vector<std::string>> groups;
    for (const auto& [name, value] : metrics) {
      groups[prometheus_sanitize(name)].push_back(name);
    }
    return groups;
  };

  // Sequential appends rather than chained operator+: gcc 12's -Wrestrict
  // false-fires on concatenated string temporaries (PR 105329) under -O2.
  const auto append_sample = [&out](const std::string& family,
                                    bool labelled, const std::string& member,
                                    const std::string& value) {
    out += family;
    if (labelled) {
      out += "{name=\"";
      out += prometheus_escape_label(member);
      out += "\"}";
    }
    out += ' ';
    out += value;
    out += '\n';
  };

  const auto append_families = [&](const auto& metrics, const char* type,
                                    const char* suffix) {
    for (const auto& [san, members] : group_by_family(metrics)) {
      const std::string family = claim(san, suffix);
      help(family, members);
      out += "# TYPE ";
      out += family;
      out += ' ';
      out += type;
      out += '\n';
      for (const std::string& member : members) {
        append_sample(family, members.size() > 1, member,
                      json_number(metrics.at(member)));
      }
    }
  };
  append_families(counters_, "counter", "_counter");
  append_families(gauges_, "gauge", "_gauge");
  return out;
}

}  // namespace acoustic::obs
