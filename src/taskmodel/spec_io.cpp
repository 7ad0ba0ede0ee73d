#include "taskmodel/spec_io.h"

#include <array>
#include <cmath>
#include <string_view>
#include <utility>

namespace tprm::task {

void writeJobSpec(JsonWriter& writer, const TunableJobSpec& spec) {
  writer.beginObject();
  writer.key("chains").beginArray();
  for (const auto& chain : spec.chains) {
    writer.beginObject();
    if (!chain.bindings.empty()) {
      writer.key("bindings").beginObject();
      for (const auto& [param, value] : chain.bindings) {
        writer.key(param).integer(value);
      }
      writer.endObject();
    }
    writer.key("name").string(chain.name);
    writer.key("tasks").beginArray();
    for (const auto& t : chain.tasks) {
      writer.beginObject();
      if (t.relativeDeadline < kTimeInfinity) {
        writer.key("deadline").number(unitsFromTicks(t.relativeDeadline));
      }
      writer.key("duration").number(unitsFromTicks(t.request.duration));
      if (t.malleable) {
        writer.key("maxConcurrency").integer(t.malleable->maxConcurrency);
      }
      writer.key("name").string(t.name);
      writer.key("processors").integer(t.request.processors);
      if (t.quality != 1.0) {
        writer.key("quality").number(t.quality);
      }
      writer.endObject();
    }
    writer.endArray();
    writer.endObject();
  }
  writer.endArray();
  writer.key("name").string(spec.name);
  writer.key("qualityComposition");
  writer.string(spec.qualityComposition == QualityComposition::Minimum
                    ? "minimum"
                    : "multiplicative");
  writer.endObject();
}

std::string toJson(const TunableJobSpec& spec) {
  std::string out;
  JsonWriter writer(out);
  writeJobSpec(writer, spec);
  return out;
}

namespace {

// The readers below capture an object's members while reading it, then run
// their checks in a fixed order, so the first error reported does not
// depend on the member order in the document.  Each returns its first
// error ("" when none).  Location strings are built only for an error.

/// Chains reserved up front (the quality ladders of the scenario streams
/// offer up to three), and tasks for a spec's first chain.
constexpr std::size_t kChainsHint = 4;
constexpr std::size_t kTasksHint = 2;

std::string chainWhere(std::size_t c) {
  return "chains[" + std::to_string(c) + "]";
}

std::string taskWhere(std::size_t c, std::size_t k) {
  return chainWhere(c) + ".tasks[" + std::to_string(k) + "]";
}

/// Reads a "name" member straight into `name` when it is a string; records
/// whether it was present and a string.  A repeated key overwrites both.
struct NameField {
  bool present = false;
  bool isString = false;

  void read(JsonReader& reader, std::string* name) {
    present = true;
    isString = reader.nextIs(JsonReader::Kind::String);
    if (isString) {
      reader.readString(name);
    } else {
      reader.skipValue();
    }
  }
};

std::string readTask(JsonReader& reader, std::size_t c, std::size_t k,
                     TaskSpec* task) {
  if (!reader.nextIs(JsonReader::Kind::Object)) {
    if (!reader.skipValue()) return {};
    return taskWhere(c, k) + " must be an object";
  }
  static constexpr std::array<std::string_view, 5> kNames = {
      "processors", "duration", "deadline", "quality", "maxConcurrency"};
  std::array<JsonField, kNames.size()> f;
  auto& [processors, duration, deadline, quality, maxConcurrency] = f;
  NameField name;
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) {
    if (key == "name") {
      name.read(reader, &task->name);
    } else {
      readMember(reader, key, kNames, f);
    }
  }
  if (reader.failed()) return {};

  const auto at = [&](const char* what) { return taskWhere(c, k) + what; };
  if (name.present && !name.isString) return at(".name must be a string");
  if (!processors.isNumber()) return at(".processors must be a number");
  if (!castFits<int>(processors.number)) {
    return at(".processors is out of range");
  }
  task->request.processors = static_cast<int>(processors.number);
  if (!duration.isNumber()) return at(".duration must be a number");
  if (duration.number <= 0.0) return at(".duration must be positive");
  if (!unitsFitTicks(duration.number)) return at(".duration is out of range");
  task->request.duration = ticksFromUnits(duration.number);
  if (deadline.present) {
    if (!deadline.isNumber()) return at(".deadline must be a number");
    if (!unitsFitTicks(deadline.number)) {
      return at(".deadline is out of range");
    }
    task->relativeDeadline = ticksFromUnits(deadline.number);
  }
  if (quality.present) {
    if (!quality.isNumber()) return at(".quality must be a number");
    task->quality = quality.number;
  }
  if (maxConcurrency.present) {
    if (!maxConcurrency.isNumber()) {
      return at(".maxConcurrency must be a number");
    }
    if (!castFits<int>(maxConcurrency.number)) {
      return at(".maxConcurrency is out of range");
    }
    std::int64_t work = 0;
    if (__builtin_mul_overflow(std::int64_t{task->request.processors},
                               task->request.duration, &work)) {
      return at(": processors x duration is out of range");
    }
    task->malleable =
        MalleableSpec{work, static_cast<int>(maxConcurrency.number)};
  }
  return {};
}

/// Reads a chain's "bindings" object into `bindings`; `bad` collects the
/// parameters that fail, each with the tail of its message.  Both are
/// maps, so a repeated parameter keeps only its last value and the error
/// reported is that of the first bad parameter in key order.
void readBindings(JsonReader& reader,
                  std::map<std::string, std::int64_t>* bindings,
                  std::map<std::string, const char*>* bad) {
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) {
    std::string param(key);
    JsonField bound;
    bound.read(reader);
    const char* problem = nullptr;
    if (!bound.isNumber() || bound.number != std::floor(bound.number)) {
      problem = " must be an integer";
    } else if (!castFits<std::int64_t>(bound.number)) {
      problem = " is out of range";
    }
    if (problem != nullptr) {
      bindings->erase(param);
      (*bad)[std::move(param)] = problem;
      continue;
    }
    // The writer emits parameters in key order, so the end is the hint.
    if (!bad->empty()) bad->erase(param);
    bindings->insert_or_assign(bindings->end(), std::move(param),
                               static_cast<std::int64_t>(bound.number));
  }
}

std::string readChain(JsonReader& reader, std::size_t c,
                      std::size_t tasksHint, Chain* chain) {
  if (!reader.nextIs(JsonReader::Kind::Object)) {
    if (!reader.skipValue()) return {};
    return chainWhere(c) + " must be an object";
  }
  NameField name;
  bool bindingsPresent = false;
  bool bindingsIsObject = false;
  std::map<std::string, const char*> badBindings;
  bool tasksIsArray = false;
  std::string tasksError;
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) {
    if (key == "name") {
      name.read(reader, &chain->name);
    } else if (key == "bindings") {
      bindingsPresent = true;
      chain->bindings.clear();
      badBindings.clear();
      bindingsIsObject = reader.nextIs(JsonReader::Kind::Object);
      if (bindingsIsObject) {
        readBindings(reader, &chain->bindings, &badBindings);
      } else {
        reader.skipValue();
      }
    } else if (key == "tasks") {
      chain->tasks.clear();
      chain->tasks.reserve(tasksHint);
      tasksError.clear();
      tasksIsArray = reader.nextIs(JsonReader::Kind::Array);
      if (!tasksIsArray) {
        reader.skipValue();
        continue;
      }
      reader.beginArray();
      for (std::size_t k = 0; reader.nextElement(); ++k) {
        if (!tasksError.empty()) {
          reader.skipValue();
          continue;
        }
        tasksError = readTask(reader, c, k, &chain->tasks.emplace_back());
      }
    } else {
      reader.skipValue();
    }
  }
  if (reader.failed()) return {};

  if (name.present && !name.isString) {
    return chainWhere(c) + ".name must be a string";
  }
  if (bindingsPresent) {
    if (!bindingsIsObject) return chainWhere(c) + ".bindings must be an object";
    if (!badBindings.empty()) {
      const auto& [param, problem] = *badBindings.begin();
      return chainWhere(c) + ".bindings." + param + problem;
    }
  }
  if (!tasksIsArray) return chainWhere(c) + ".tasks must be an array";
  return tasksError;
}

SpecParseResult specError(std::string what) {
  SpecParseResult result;
  result.error = std::move(what);
  return result;
}

}  // namespace

SpecParseResult readJobSpec(JsonReader& reader) {
  if (!reader.nextIs(JsonReader::Kind::Object)) {
    if (!reader.skipValue()) return {};
    return specError("top level must be an object");
  }
  TunableJobSpec spec;
  NameField name;
  JsonField composition;
  bool chainsIsArray = false;
  std::string chainsError;
  reader.beginObject();
  std::string_view key;
  while (reader.nextMember(&key)) {
    if (key == "name") {
      name.read(reader, &spec.name);
    } else if (key == "qualityComposition") {
      composition.read(reader);
    } else if (key == "chains") {
      spec.chains.clear();
      spec.chains.reserve(kChainsHint);
      chainsError.clear();
      chainsIsArray = reader.nextIs(JsonReader::Kind::Array);
      if (!chainsIsArray) {
        reader.skipValue();
        continue;
      }
      reader.beginArray();
      for (std::size_t c = 0; reader.nextElement(); ++c) {
        if (!chainsError.empty()) {
          reader.skipValue();
          continue;
        }
        // A job's chains are mostly alternative shapes of one pipeline:
        // the previous chain's length sizes the next one's tasks.
        const std::size_t tasksHint = spec.chains.empty()
                                          ? kTasksHint
                                          : spec.chains.back().tasks.size();
        chainsError =
            readChain(reader, c, tasksHint, &spec.chains.emplace_back());
      }
    } else {
      reader.skipValue();
    }
  }
  if (reader.failed()) return {};

  if (name.present && !name.isString) {
    return specError("'name' must be a string");
  }
  if (composition.present) {
    if (!composition.isString()) {
      return specError("'qualityComposition' must be a string");
    }
    if (composition.text == "minimum") {
      spec.qualityComposition = QualityComposition::Minimum;
    } else if (composition.text == "multiplicative") {
      spec.qualityComposition = QualityComposition::Multiplicative;
    } else {
      return specError("unknown qualityComposition '" + composition.text + "'");
    }
  }
  if (!chainsIsArray) return specError("'chains' must be an array");
  if (!chainsError.empty()) return specError(std::move(chainsError));

  const auto errors = validate(spec);
  if (!errors.empty()) return specError("invalid spec: " + errors.front());
  SpecParseResult result;
  result.spec = std::move(spec);
  return result;
}

SpecParseResult jobSpecFromJson(const std::string& text) {
  JsonReader reader(text);
  auto result = readJobSpec(reader);
  if (!reader.finish()) {
    return specError("JSON error at byte " + std::to_string(reader.errorOffset()) +
                ": " + reader.error());
  }
  return result;
}

}  // namespace tprm::task
