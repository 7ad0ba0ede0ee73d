#include "taskmodel/spec_io.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "workload/fig4.h"

namespace tprm::task {
namespace {

TEST(SpecIo, RoundTripsFig4Jobs) {
  for (const auto shape : {workload::Fig4Shape::Shape1,
                           workload::Fig4Shape::Shape2,
                           workload::Fig4Shape::Tunable}) {
    const auto original =
        workload::makeFig4Job(workload::Fig4Params{}, shape);
    const auto text = toJson(original);
    const auto parsed = jobSpecFromJson(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(*parsed.spec, original) << toString(shape);
  }
}

TEST(SpecIo, RoundTripsMalleableAndQuality) {
  workload::Fig4Params params;
  params.malleable = true;
  auto original = workload::makeFig4Job(params, workload::Fig4Shape::Tunable);
  original.chains[0].tasks[0].quality = 0.75;
  original.qualityComposition = QualityComposition::Minimum;
  const auto parsed = jobSpecFromJson(toJson(original));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(*parsed.spec, original);
}

TEST(SpecIo, FullWireRoundTripCoversEveryField) {
  // Exercises every field the negotiation-service wire protocol carries:
  // spec/chain names, quality composition, per-chain control-parameter
  // bindings, and per-task shape, deadline, quality, and malleability.
  TunableJobSpec original;
  original.name = "wire-spec";
  original.qualityComposition = QualityComposition::Minimum;

  Chain fine;
  fine.name = "fine";
  fine.bindings = {{"g", 16}, {"mode", 2}, {"offset", -3}};
  fine.tasks.push_back(
      TaskSpec::rigid("sample", 4, ticksFromUnits(12.5), ticksFromUnits(40.0),
                      0.875));
  fine.tasks.push_back(TaskSpec::malleableTask(
      "mark", 8, ticksFromUnits(20.0), 16, ticksFromUnits(90.0), 0.95));
  fine.tasks.push_back(TaskSpec::rigid("emit", 1, ticksFromUnits(1.0),
                                       ticksFromUnits(100.0)));

  Chain coarse;
  coarse.name = "coarse";
  coarse.bindings = {{"g", 4}, {"mode", 1}};
  coarse.tasks.push_back(TaskSpec::rigid("sample", 2, ticksFromUnits(5.0),
                                         ticksFromUnits(40.0), 0.5));
  // No deadline on the last task: must survive as kTimeInfinity... which
  // would violate the non-decreasing rule if a finite one followed, so it is
  // the final task.
  coarse.tasks.push_back(
      TaskSpec::rigid("emit", 1, ticksFromUnits(1.0), kTimeInfinity, 0.8));

  original.chains = {fine, coarse};
  ASSERT_TRUE(validate(original).empty());

  const auto text = toJson(original);
  const auto parsed = jobSpecFromJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(*parsed.spec, original);
  // Bindings are carried per chain, exactly.
  EXPECT_EQ(parsed.spec->chains[0].bindings, fine.bindings);
  EXPECT_EQ(parsed.spec->chains[1].bindings, coarse.bindings);
  // And a second trip is a fixed point (stable wire format).
  EXPECT_EQ(toJson(*parsed.spec), text);
}

TEST(SpecIo, BindingsMustBeIntegerValued) {
  const std::string text = R"({
    "chains": [{"bindings": {"g": 1.5},
                "tasks": [{"processors": 1, "duration": 5}]}]
  })";
  const auto parsed = jobSpecFromJson(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("bindings"), std::string::npos);
}

TEST(SpecIo, ParsesHandWrittenSpec) {
  const std::string text = R"({
    "name": "demo",
    "chains": [
      {"name": "a",
       "tasks": [
         {"name": "t1", "processors": 4, "duration": 10.5, "deadline": 50},
         {"name": "t2", "processors": 2, "duration": 20,
          "deadline": 100, "quality": 0.9, "maxConcurrency": 8}
       ]}
    ]
  })";
  const auto parsed = jobSpecFromJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto& spec = *parsed.spec;
  EXPECT_EQ(spec.name, "demo");
  ASSERT_EQ(spec.chains.size(), 1u);
  const auto& tasks = spec.chains[0].tasks;
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].request, (ResourceRequest{4, ticksFromUnits(10.5)}));
  EXPECT_EQ(tasks[0].relativeDeadline, ticksFromUnits(50.0));
  EXPECT_FALSE(tasks[0].malleable.has_value());
  ASSERT_TRUE(tasks[1].malleable.has_value());
  EXPECT_EQ(tasks[1].malleable->maxConcurrency, 8);
  EXPECT_DOUBLE_EQ(tasks[1].quality, 0.9);
}

TEST(SpecIo, MissingDeadlineMeansInfinity) {
  const std::string text = R"({
    "chains": [{"tasks": [{"processors": 1, "duration": 5}]}]
  })";
  const auto parsed = jobSpecFromJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.spec->chains[0].tasks[0].relativeDeadline, kTimeInfinity);
}

TEST(SpecIo, ErrorsAreDescriptive) {
  EXPECT_NE(jobSpecFromJson("not json").error.find("JSON error"),
            std::string::npos);
  EXPECT_NE(jobSpecFromJson("[1]").error.find("object"), std::string::npos);
  EXPECT_NE(jobSpecFromJson("{}").error.find("chains"), std::string::npos);
  EXPECT_NE(jobSpecFromJson(R"({"chains": [{"tasks": [{}]}]})")
                .error.find("processors"),
            std::string::npos);
  EXPECT_NE(jobSpecFromJson(
                R"({"chains": [{"tasks":
                   [{"processors": 1, "duration": -5}]}]})")
                .error.find("positive"),
            std::string::npos);
  EXPECT_NE(jobSpecFromJson(R"({"qualityComposition": "median",
                                "chains": []})")
                .error.find("qualityComposition"),
            std::string::npos);
  // Numbers outside a field's range name the field; times beyond the tick
  // range used to abort the reader.
  for (const auto& [task, field] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"processors": 1e10, "duration": 5})",
            "chains[0].tasks[0].processors is out of range"},
           {R"({"processors": 1, "duration": 1e13})",
            "chains[0].tasks[0].duration is out of range"},
           {R"({"processors": 1, "duration": 5, "deadline": -1e13})",
            "chains[0].tasks[0].deadline is out of range"},
           {R"({"processors": 1, "duration": 5, "maxConcurrency": 1e10})",
            "chains[0].tasks[0].maxConcurrency is out of range"}}) {
    EXPECT_EQ(jobSpecFromJson(R"({"chains": [{"tasks": [)" + task + "]}]}")
                  .error,
              field);
  }
  EXPECT_EQ(jobSpecFromJson(R"({"chains": [{"bindings": {"g": 1e19},
                                "tasks": [{"processors": 1, "duration": 5}]}]})")
                .error,
            "chains[0].bindings.g is out of range");
}

TEST(SpecIo, StructurallyInvalidSpecsRejected) {
  // Decreasing deadline along the chain: caught by task::validate.
  const std::string text = R"({
    "chains": [{"tasks": [
      {"processors": 1, "duration": 5, "deadline": 100},
      {"processors": 1, "duration": 5, "deadline": 50}
    ]}]
  })";
  const auto parsed = jobSpecFromJson(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("invalid spec"), std::string::npos);
}

TEST(SpecIo, SchedulesIdenticallyAfterRoundTrip) {
  // The serialized spec drives the arbitrator to the same decisions.
  const auto original = workload::makeFig4Job(workload::Fig4Params{},
                                              workload::Fig4Shape::Tunable);
  const auto parsed = jobSpecFromJson(toJson(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(original.chains[0].tasks[0].request.duration,
            parsed.spec->chains[0].tasks[0].request.duration);
  EXPECT_EQ(original.chains[1].tasks[1].relativeDeadline,
            parsed.spec->chains[1].tasks[1].relativeDeadline);
}

}  // namespace
}  // namespace tprm::task
