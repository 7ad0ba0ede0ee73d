// Self-tests of the benchmark's metric arithmetic (perfbench/src/metrics.h).
//
//   python3 perfbench/run.py --selftest
#include "metrics.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

using tprm::sched::TaskPlacement;

TaskPlacement placement(tprm::Time begin, tprm::Time end, int processors) {
  TaskPlacement p;
  p.interval = {begin, end};
  p.processors = processors;
  return p;
}

std::vector<double> oneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnShuffledSamples) {
  std::vector<double> v = oneTo(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.50), 500.0);
  EXPECT_EQ(percentile(v, 0.99), 990.0);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(samplesBeyond(1000, 0.50), 500u);
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyondIt) {
  // 999 samples leave only 9 beyond the 99th percentile.
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  EXPECT_THROW((void)percentile(oneTo(999), 0.99), std::invalid_argument);
  EXPECT_NO_THROW((void)percentile(oneTo(1000), 0.99));
  EXPECT_EQ(percentile(oneTo(21), 0.50), 11.0);
  EXPECT_THROW((void)percentile({}, 0.50), std::invalid_argument);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Mean, OfValuesAndEmpty) {
  EXPECT_EQ(mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_THROW((void)mean({}), std::invalid_argument);
}

TEST(ErrorRatio, FailedOverAttempted) {
  EXPECT_EQ(errorRatio(0, 0), 0.0);
  EXPECT_EQ(errorRatio(0, 500), 0.0);
  EXPECT_DOUBLE_EQ(errorRatio(3, 1200), 0.0025);
  EXPECT_THROW((void)errorRatio(2, 1), std::invalid_argument);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheSpan) {
  EXPECT_EQ(selfTime({0, 100}, {}), 100);
  EXPECT_EQ(selfTime({0, 100}, {{10, 30}}), 80);
  // Overlapping children count once.
  EXPECT_EQ(selfTime({0, 100}, {{10, 30}, {20, 50}}), 60);
  // Unsorted, nested, and partly outside the span.
  EXPECT_EQ(selfTime({0, 100}, {{90, 130}, {-20, 5}, {40, 60}, {45, 50}}),
            100 - 10 - 20 - 5);
  // A child entirely outside the span covers nothing.
  EXPECT_EQ(selfTime({0, 100}, {{200, 300}}), 100);
}

TEST(JobBook, AdmitRatioAndMeanQualityFollowFinalQualities) {
  JobBook book;
  for (int i = 0; i < 4; ++i) book.offer(0);
  book.admit(0, 1.0, {placement(0, 10, 2)});
  book.admit(1, 0.8, {placement(0, 10, 2)});
  book.move(0, 0.6, {placement(0, 20, 1)});  // demoted after admission
  EXPECT_EQ(book.offered(), 4u);
  EXPECT_EQ(book.admitted(), 2u);
  EXPECT_DOUBLE_EQ(book.admitRatio(), 0.5);
  EXPECT_DOUBLE_EQ(book.meanQuality(), 0.7);
}

TEST(JobBook, UtilizationUsesPlacementsAfterReshapesAndCancels) {
  JobBook book;
  book.offer(0);
  book.offer(0);
  book.offer(5);
  // Job 0: two tasks; cancelled at clock 10 after its first task began, so
  // the second (beginning at 10) is returned and the first stays.
  book.admit(0, 1.0, {placement(0, 10, 4), placement(10, 20, 2)});
  // Job 1: reshaped from 4 wide to 2 wide for twice as long.
  book.admit(1, 1.0, {placement(0, 10, 4)});
  book.move(1, 0.5, {placement(0, 20, 2)});
  // Job 2: cancelled before it began; nothing of it stays.
  book.admit(2, 1.0, {placement(15, 40, 1)});
  book.cancel(2, 10);
  book.cancel(0, 10);
  EXPECT_EQ(book.grantedArea(), 40 + 40);
  // Span [0, 20) on 8 processors.
  EXPECT_DOUBLE_EQ(book.utilization(8), 80.0 / (8.0 * 20.0));
}

TEST(JobBook, MovesAndCancelsCommuteForACancelledJob) {
  // The client may see a job's reshape push after its cancel's answer; a
  // cancelled job never moves again, so the order must not matter.
  JobBook first, second;
  for (JobBook* book : {&first, &second}) {
    book->offer(0);
    book->admit(7, 1.0, {placement(20, 30, 4)});
  }
  first.move(7, 0.5, {placement(5, 25, 2)});
  first.cancel(7, 10);
  second.cancel(7, 10);
  second.move(7, 0.5, {placement(5, 25, 2)});
  EXPECT_EQ(first.grantedArea(), 40);
  EXPECT_EQ(second.grantedArea(), first.grantedArea());
  EXPECT_EQ(second.utilization(4), first.utilization(4));
}

TEST(JobBook, NothingOfferedMeansZeroRatios) {
  const JobBook book;
  EXPECT_EQ(book.admitRatio(), 0.0);
  EXPECT_EQ(book.meanQuality(), 0.0);
  EXPECT_EQ(book.utilization(8), 0.0);
}

}  // namespace
}  // namespace perfbench
