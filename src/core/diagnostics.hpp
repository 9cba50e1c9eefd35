// Shared structured-diagnostics engine.
//
// Every static analyzer in the repo (the ISA program linter in
// src/isa/analysis, the network-level checker in src/analysis) reports its
// findings through this one vocabulary: a Diagnostic pins one finding to
// one source anchor — either a numeric index (an instruction in a program)
// or a hierarchical path ("ResNet-18/conv3_ds") — with a stable kebab-case
// rule ID, a severity, and a human-readable message. A Report aggregates
// one analyzer run and renders it as compiler-style text or as JSON (via
// core::to_json, the same emission helpers every other exporter uses), so
// ISA lint and network check stay format-compatible by construction.
//
// This header lives in its own low-level library (acoustic_diag) below
// acoustic_isa / acoustic_sim in the link order, so any analyzer can use it
// without creating a dependency cycle with acoustic_core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace acoustic::core {

enum class Severity : std::uint8_t {
  kNote,     ///< informational (e.g. a recommendation) — never gates
  kWarning,  ///< suspicious but executable (lint finding)
  kError,    ///< structurally broken; running it would be meaningless
};

[[nodiscard]] std::string severity_name(Severity severity);

/// Index value for findings that concern the whole artifact rather than a
/// single indexed element (e.g. instruction-memory overflow, a bad SC
/// configuration).
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

struct Diagnostic {
  std::string rule;  ///< stable rule ID, e.g. "loop-balance", "or-saturation"
  Severity severity = Severity::kWarning;
  /// Numeric anchor (instruction / layer index) or kNoIndex.
  std::size_t index = kNoIndex;
  /// Hierarchical anchor, e.g. "ResNet-18/conv3_ds" ("" = none). When both
  /// anchors are set, renderers prefer the path.
  std::string path;
  std::string message;

  /// One line: "<anchor>: <severity> [<rule>] <message>". The anchor is the
  /// path when set, else "#<index>", else "<global>".
  [[nodiscard]] std::string to_string() const;
};

/// Renders the anchor prefix of a diagnostic; analyzers override this to
/// decorate anchors with domain knowledge (the ISA linter appends the
/// instruction mnemonic: "#12 MAC").
using AnchorFormatter = std::function<std::string(const Diagnostic&)>;

/// The findings of one analyzer run over one artifact.
class Report {
 public:
  /// Index-anchored finding (pass kNoIndex for whole-artifact findings).
  void add(std::string rule, Severity severity, std::size_t index,
           std::string message);

  /// Path-anchored finding.
  void add(std::string rule, Severity severity, std::string path,
           std::string message);

  /// Appends all findings of @p other, prefixing each with @p path_prefix
  /// (joined with '/' when the finding already carries a path). Used to
  /// aggregate per-model reports into one zoo-wide report.
  void merge(const Report& other, std::string_view path_prefix = {});

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diags_;
  }
  [[nodiscard]] std::size_t error_count() const noexcept;
  [[nodiscard]] std::size_t warning_count() const noexcept;
  [[nodiscard]] std::size_t note_count() const noexcept;

  /// No findings at all (the bar codegen-emitted programs are held to).
  [[nodiscard]] bool clean() const noexcept { return diags_.empty(); }
  /// No error-severity findings (warnings allowed).
  [[nodiscard]] bool ok() const noexcept { return error_count() == 0; }
  /// Gate predicate: errors always fail; with @p werror warnings fail too.
  /// Notes never gate — they are recommendations, and default SC configs
  /// legitimately produce them (e.g. stream-resolution subsampling).
  [[nodiscard]] bool fails(bool werror) const noexcept {
    return error_count() > 0 || (werror && warning_count() > 0);
  }

  /// True if any finding carries @p rule.
  [[nodiscard]] bool has_rule(std::string_view rule) const noexcept;
  /// Number of findings carrying @p rule.
  [[nodiscard]] std::size_t count_rule(std::string_view rule) const noexcept;

  /// Compiler-style rendering, one finding per line plus a summary line
  /// ("N error(s), M warning(s)"; notes are appended only when present).
  /// @p anchor (optional) overrides the default anchor rendering.
  [[nodiscard]] std::string to_string(
      const AnchorFormatter& anchor = nullptr) const;

 private:
  std::vector<Diagnostic> diags_;
};

/// Serializes a report as a pretty-printed JSON object — the one wire
/// format shared by `acoustic lint --json` and `acoustic check --json`:
///   {"diagnostics": [{"rule": ..., "severity": ..., "index": ...|null,
///     "path": ...|null, "message": ...}, ...],
///    "errors": N, "warnings": N, "notes": N}
[[nodiscard]] std::string to_json(const Report& report);

}  // namespace acoustic::core
