// Tests of the benchmark harness on synthetic inputs: pacing and lateness accounting,
// latency from due time, the percentile rule, rate error, and span self times.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "harness.h"

namespace pipebench {
namespace {

// Clock that moves only when told to (or when a wait needs it to).
class ManualClock final : public PaceClock {
 public:
  std::int64_t NowNs() override { return now_; }
  void WaitUntil(std::int64_t due_ns) override {
    if (due_ns > now_) {
      now_ = due_ns;
      ++sleeps_;
    }
  }
  void Advance(std::int64_t ns) { now_ += ns; }
  int Sleeps() const { return sleeps_; }

 private:
  std::int64_t now_ = 1'000'000'000;
  int sleeps_ = 0;
};

// One single-visit record per entry time.
class EntryStream final : public qnet::TraceStream {
 public:
  explicit EntryStream(std::vector<double> entries) : entries_(std::move(entries)) {}
  bool Next(qnet::TaskRecord& out) override {
    if (next_ == entries_.size()) {
      return false;
    }
    out.Clear();
    out.entry_time = entries_[next_++];
    out.visits.push_back({0, 1, out.entry_time, out.entry_time + 0.1});
    return true;
  }
  int NumQueues() const override { return 2; }

 private:
  std::vector<double> entries_;
  std::size_t next_ = 0;
};

constexpr std::int64_t kSecond = 1'000'000'000;

TEST(PacedStream, StalledConsumerMakesLaterRecordsLateWithoutSleeping) {
  ManualClock clock;
  EntryStream inner({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  PacedStream paced(inner, /*speedup=*/1.0, clock);
  qnet::TaskRecord record;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(paced.Next(record));  // records 0..3 on time
  }
  EXPECT_EQ(clock.Sleeps(), 3);
  clock.Advance(5 * kSecond + kSecond / 2);  // the consumer stalls until t = 8.5 s
  const int sleeps_before = clock.Sleeps();
  const std::int64_t stalled_until = clock.NowNs();
  for (int i = 4; i <= 8; ++i) {
    ASSERT_TRUE(paced.Next(record));
    EXPECT_EQ(record.entry_time, i);
  }
  // Behind schedule: handed over at once, the clock never waited.
  EXPECT_EQ(clock.Sleeps(), sleeps_before);
  EXPECT_EQ(clock.NowNs(), stalled_until);
  ASSERT_TRUE(paced.Next(record));  // record 9 is due at 9 s: on time again
  EXPECT_EQ(clock.Sleeps(), sleeps_before + 1);
  EXPECT_FALSE(paced.Next(record));

  const std::vector<std::int64_t>& late = paced.LatenessNs();
  ASSERT_EQ(late.size(), 10u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(late[i], 0);
  }
  for (int i = 4; i <= 8; ++i) {
    EXPECT_EQ(late[i], (8 - i) * kSecond + kSecond / 2) << "record " << i;
  }
  EXPECT_EQ(late[9], 0);
}

TEST(PacedStream, SpeedupScalesDueTimes) {
  ManualClock clock;
  EntryStream inner({10.0, 12.0, 16.0});
  PacedStream paced(inner, /*speedup=*/4.0, clock);
  qnet::TaskRecord record;
  const std::int64_t start = clock.NowNs();
  ASSERT_TRUE(paced.Next(record));
  ASSERT_TRUE(paced.Next(record));
  EXPECT_EQ(clock.NowNs() - start, kSecond / 2);  // 2 event seconds at 4x
  ASSERT_TRUE(paced.Next(record));
  EXPECT_EQ(clock.NowNs() - start, 3 * kSecond / 2);
}

TEST(WindowLatency, MeasuredFromDueTimeNotCallTime) {
  ManualClock clock;
  EntryStream inner({0, 1, 2, 3, 4, 5});
  PacedStream paced(inner, 1.0, clock);
  WindowLatencyRecorder recorder(paced, clock);
  qnet::TaskRecord record;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(paced.Next(record));
  }
  clock.Advance(3 * kSecond);  // stall: now 5 s after start, record 3 was due at 3 s
  ASSERT_TRUE(paced.Next(record));  // entry 3 closes the window [0, 3)
  qnet::WindowEstimate window;
  window.t0 = 0.0;
  window.t1 = 3.0;
  recorder.OnWindow(window);  // delivered right after the late hand-over
  ASSERT_EQ(recorder.LatenciesMs().size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.LatenciesMs()[0], 2000.0);

  // The final window closes at end of stream; its latency runs from that moment.
  ASSERT_TRUE(paced.Next(record));
  ASSERT_TRUE(paced.Next(record));
  EXPECT_FALSE(paced.Next(record));
  clock.Advance(kSecond / 4);
  window.t0 = 3.0;
  window.t1 = 6.0;
  recorder.OnWindow(window);
  ASSERT_EQ(recorder.LatenciesMs().size(), 2u);
  EXPECT_DOUBLE_EQ(recorder.LatenciesMs()[1], 250.0);

  // A merged-tail re-fit replaces a delivered window: not a new sample.
  window.merged_tail_tasks = 2;
  recorder.OnWindow(window);
  EXPECT_EQ(recorder.LatenciesMs().size(), 2u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);
  }
  EXPECT_EQ(Percentile(values, 0.5), 50.0);
  EXPECT_EQ(Percentile(values, 0.9), 90.0);
  EXPECT_EQ(Percentile(values, 1.0), 100.0);
  EXPECT_EQ(Percentile({7.0}, 0.9), 7.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(SupportsPercentile(100, 0.9));
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_FALSE(SupportsPercentile(99, 0.9));
  EXPECT_EQ(SamplesBeyond(200, 0.9), 20u);
  EXPECT_FALSE(SupportsPercentile(200, 0.99));  // only 2 beyond
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
}

qnet::WindowEstimate Estimate(double t0, double t1, std::vector<double> rates) {
  qnet::WindowEstimate e;
  e.t0 = t0;
  e.t1 = t1;
  e.rates = std::move(rates);
  return e;
}

TEST(RateRelError, MedianOverWindowsAndServiceQueuesInsideStationarySegments) {
  const std::vector<qnet::WindowEstimate> estimates = {
      Estimate(0, 10, {99.0, 11.0, 9.0}),   // errors 0.1, 0.1 (lambda ignored)
      Estimate(10, 20, {99.0, 12.0, 10.0}),  // errors 0.2, 0.0
      Estimate(20, 30, {99.0, 50.0, 50.0}),  // straddles a change at 25: skipped
  };
  const TrueRateFn truth = [](int, double t0, double t1) {
    return t0 < 25.0 && 25.0 < t1 ? std::numeric_limits<double>::quiet_NaN() : 10.0;
  };
  // Sorted errors {0, 0.1, 0.1, 0.2}: the nearest-rank median is 0.1.
  EXPECT_NEAR(RateRelError(estimates, truth), 0.1, 1e-12);

  const TrueRateFn per_queue = [](int q, double, double) { return q == 1 ? 10.0 : 5.0; };
  // Queue 1 errors 0.1, 0.2, 4.0; queue 2 (truth 5) errors 0.8, 1.0, 9.0. Sorted
  // {0.1, 0.2, 0.8, 1.0, 4.0, 9.0}: rank 3 -> 0.8.
  EXPECT_NEAR(RateRelError(estimates, per_queue), 0.8, 1e-12);

  const TrueRateFn none = [](int, double, double) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_TRUE(std::isnan(RateRelError(estimates, none)));
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  ManualClock clock;
  SpanLog log(clock);
  const int root = log.Begin(0, -1);
  clock.Advance(10);
  const int child = log.Begin(1, 0);
  clock.Advance(5);
  const int grandchild = log.Begin(2, 0);
  clock.Advance(15);
  log.End(grandchild);
  log.End(child);
  clock.Advance(10);
  const int sibling = log.Begin(1, 1);
  clock.Advance(10);
  log.End(sibling);
  clock.Advance(50);
  log.End(root);

  EXPECT_EQ(log.Spans()[grandchild].parent, child);
  EXPECT_EQ(log.Spans()[sibling].parent, root);
  const SpanLog::SelfTotals t = log.Totals(3);
  EXPECT_EQ(t.self_ns[0], 70.0);  // 100 - (20 + 10)
  EXPECT_EQ(t.self_ns[1], 15.0);  // (20 - 15) + 10
  EXPECT_EQ(t.self_ns[2], 15.0);
  EXPECT_EQ(t.count[1], 2u);
  EXPECT_EQ(log.DurationsUs(1), (std::vector<double>{0.02, 0.01}));
}

}  // namespace
}  // namespace pipebench
