#include "core/diagnostics.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace acoustic::core {

std::string severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote:    return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError:   return "error";
  }
  return "unknown";
}

namespace {

std::string default_anchor(const Diagnostic& d) {
  if (!d.path.empty()) {
    return d.path;
  }
  if (d.index != kNoIndex) {
    // Two appends, not operator+: gcc 12's -Wrestrict false-fires on
    // concatenated string temporaries under -O2 (PR 105329).
    std::string anchor("#");
    anchor += std::to_string(d.index);
    return anchor;
  }
  return "<global>";
}

}  // namespace

std::string Diagnostic::to_string() const {
  std::ostringstream out;
  out << default_anchor(*this) << ": " << severity_name(severity) << " ["
      << rule << "] " << message;
  return out.str();
}

void Report::add(std::string rule, Severity severity, std::size_t index,
                 std::string message) {
  diags_.push_back(Diagnostic{std::move(rule), severity, index, std::string{},
                              std::move(message)});
}

void Report::add(std::string rule, Severity severity, std::string path,
                 std::string message) {
  diags_.push_back(Diagnostic{std::move(rule), severity, kNoIndex,
                              std::move(path), std::move(message)});
}

void Report::merge(const Report& other, std::string_view path_prefix) {
  diags_.reserve(diags_.size() + other.diags_.size());
  for (const Diagnostic& d : other.diags_) {
    Diagnostic copy = d;
    if (!path_prefix.empty()) {
      copy.path = copy.path.empty()
                      ? std::string(path_prefix)
                      : std::string(path_prefix) + "/" + copy.path;
    }
    diags_.push_back(std::move(copy));
  }
}

std::size_t Report::error_count() const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kError) {
      ++n;
    }
  }
  return n;
}

std::size_t Report::warning_count() const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kWarning) {
      ++n;
    }
  }
  return n;
}

std::size_t Report::note_count() const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kNote) {
      ++n;
    }
  }
  return n;
}

bool Report::has_rule(std::string_view rule) const noexcept {
  for (const Diagnostic& d : diags_) {
    if (d.rule == rule) {
      return true;
    }
  }
  return false;
}

std::size_t Report::count_rule(std::string_view rule) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.rule == rule) {
      ++n;
    }
  }
  return n;
}

std::string Report::to_string(const AnchorFormatter& anchor) const {
  std::ostringstream out;
  for (const Diagnostic& d : diags_) {
    out << (anchor ? anchor(d) : default_anchor(d)) << ": "
        << severity_name(d.severity) << " [" << d.rule << "] " << d.message
        << '\n';
  }
  out << error_count() << " error(s), " << warning_count() << " warning(s)";
  if (const std::size_t notes = note_count(); notes > 0) {
    out << ", " << notes << " note(s)";
  }
  out << '\n';
  return out.str();
}

std::string to_json(const Report& report) {
  std::ostringstream out;
  out << "{\n  \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"rule\": " << obs::json_quote(d.rule)
        << ", \"severity\": " << obs::json_quote(severity_name(d.severity))
        << ", \"index\": "
        << (d.index == kNoIndex
                ? std::string("null")
                : obs::json_number(static_cast<std::uint64_t>(d.index)))
        << ", \"path\": "
        << (d.path.empty() ? std::string("null") : obs::json_quote(d.path))
        << ", \"message\": " << obs::json_quote(d.message) << "}";
  }
  if (!first) {
    out << "\n  ";
  }
  out << "],\n";
  out << "  \"errors\": "
      << obs::json_number(static_cast<std::uint64_t>(report.error_count()))
      << ",\n";
  out << "  \"warnings\": "
      << obs::json_number(static_cast<std::uint64_t>(report.warning_count()))
      << ",\n";
  out << "  \"notes\": "
      << obs::json_number(static_cast<std::uint64_t>(report.note_count()))
      << "\n";
  out << "}";
  return out.str();
}

}  // namespace acoustic::core
