// JSON serialization of tunable job specs.
//
// Lets workloads live in files: benchmark harnesses and deployments can load
// custom job definitions instead of compiling them in, and the QoS agent's
// "communicate all the possible application execution paths" message
// (Section 3.1) has a concrete wire format.
//
// Schema (durations and deadlines in paper time units, doubles):
//
//   {
//     "name": "fig4-tunable",
//     "qualityComposition": "multiplicative" | "minimum",   // optional
//     "chains": [
//       {
//         "name": "shape1",
//         "bindings": {"g": 16},          // optional; control parameters
//         "tasks": [
//           {
//             "name": "wide",
//             "processors": 16,
//             "duration": 25.0,
//             "deadline": 200.0,          // optional; absent = none
//             "quality": 1.0,             // optional; default 1.0
//             "maxConcurrency": 16        // optional; present = malleable
//           }, ...
//         ]
//       }, ...
//     ]
//   }
#pragma once

#include <optional>
#include <string>

#include "common/json.h"
#include "taskmodel/chain.h"

namespace tprm::task {

/// Serialises a spec to the schema above (stable, pretty-printed: the
/// canonical form of JsonValue::dump()).
[[nodiscard]] std::string toJson(const TunableJobSpec& spec);

/// Writes a spec as the next value of `writer` (for embedding in larger
/// documents, e.g. negotiation-service frames).
void writeJobSpec(JsonWriter& writer, const TunableJobSpec& spec);

/// Deserialisation outcome: a spec or a descriptive error.
struct SpecParseResult {
  std::optional<TunableJobSpec> spec;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return spec.has_value(); }
};

/// Parses a spec from JSON text.  Malformed documents, missing required
/// fields, wrong types, numbers outside the range of their field, and
/// structurally invalid specs (per task::validate) are reported as errors,
/// never aborts.  Unknown keys are ignored; of repeated keys the last wins.
[[nodiscard]] SpecParseResult jobSpecFromJson(const std::string& text);

/// Reads a spec from the next value of `reader` (the wire protocol embeds
/// specs inside request frames).  A JSON syntax error stays in the reader
/// for the caller to report, and takes precedence: the result is only
/// meaningful while !reader.failed().
[[nodiscard]] SpecParseResult readJobSpec(JsonReader& reader);

}  // namespace tprm::task
