// Minimal JSON emission helpers shared by every telemetry exporter.
//
// obs sits below core (which links the simulators), so the low-level
// escaping / number formatting lives here and every emitter, from the CLI
// documents to the bench.v1 writer, calls it directly: exactly one
// implementation of "how this repo prints JSON": stable key order,
// shortest round-tripping doubles, no NaN/Inf (they degrade to null, which
// every strict parser accepts).
#pragma once

#include <cstdint>
#include <string>

namespace acoustic::obs {

/// Escapes @p text for inclusion inside a JSON string literal (quotes,
/// backslashes and control characters).
[[nodiscard]] std::string json_escape(const std::string& text);

/// json_escape plus surrounding quotes: a complete JSON string literal.
[[nodiscard]] std::string json_quote(const std::string& text);

/// Shortest decimal representation that round-trips @p value exactly
/// ("null" for NaN / Inf — JSON has neither).
[[nodiscard]] std::string json_number(double value);

[[nodiscard]] std::string json_number(std::uint64_t value);

}  // namespace acoustic::obs
