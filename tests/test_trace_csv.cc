// CSV round-trip tests for event logs, observations, and series output.

#include "qnet/trace/csv.h"

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "qnet/model/builders.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "qnet/trace/table.h"

namespace qnet {
namespace {

TEST(Csv, EventLogRoundTripsExactly) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(3);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 40), rng);
  std::stringstream buffer;
  WriteEventLog(buffer, log);
  const EventLog restored = ReadEventLog(buffer, net.NumQueues());
  ASSERT_EQ(restored.NumEvents(), log.NumEvents());
  ASSERT_EQ(restored.NumTasks(), log.NumTasks());
  for (int k = 0; k < log.NumTasks(); ++k) {
    const auto& original = log.TaskEvents(k);
    const auto& copy = restored.TaskEvents(k);
    ASSERT_EQ(original.size(), copy.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_DOUBLE_EQ(restored.Arrival(copy[i]), log.Arrival(original[i]));
      EXPECT_DOUBLE_EQ(restored.Departure(copy[i]), log.Departure(original[i]));
      EXPECT_EQ(restored.At(copy[i]).queue, log.At(original[i]).queue);
      EXPECT_EQ(restored.At(copy[i]).state, log.At(original[i]).state);
    }
  }
  std::string why;
  EXPECT_TRUE(restored.IsFeasible(1e-9, &why)) << why;
}

TEST(Csv, ObservationRoundTrips) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0});
  Rng rng(5);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 30), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(log, rng);
  std::stringstream buffer;
  WriteObservation(buffer, obs);
  const Observation restored = ReadObservation(buffer, log);
  EXPECT_EQ(restored.arrival_observed, obs.arrival_observed);
  EXPECT_EQ(restored.departure_observed, obs.departure_observed);
}

TEST(Csv, QueuesHeaderMakesNumQueuesSelfDescribing) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(11);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 20), rng);
  std::stringstream buffer;
  WriteEventLog(buffer, log);
  EXPECT_EQ(buffer.str().rfind("# queues=3\n", 0), 0u);

  // No out-of-band num_queues needed any more.
  const EventLog restored = ReadEventLog(buffer);
  EXPECT_EQ(restored.NumQueues(), log.NumQueues());
  EXPECT_EQ(restored.NumEvents(), log.NumEvents());

  // An explicit count is still accepted but must agree with the header.
  std::stringstream again(buffer.str());
  EXPECT_EQ(ReadEventLog(again, net.NumQueues()).NumQueues(), net.NumQueues());
  std::stringstream mismatched(buffer.str());
  EXPECT_THROW(ReadEventLog(mismatched, net.NumQueues() + 2), Error);
}

TEST(Csv, HeaderlessFilesStillReadWithExplicitNumQueues) {
  const QueueingNetwork net = MakeSingleQueueNetwork(1.0, 2.0);
  Rng rng(13);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 8), rng);
  std::stringstream buffer;
  WriteEventLog(buffer, log);
  // Strip the '# queues=N' line to simulate a pre-header legacy file.
  const std::string text = buffer.str();
  const std::string headerless = text.substr(text.find('\n') + 1);

  std::stringstream legacy(headerless);
  const EventLog restored = ReadEventLog(legacy, net.NumQueues());
  EXPECT_EQ(restored.NumEvents(), log.NumEvents());

  // Without the header the self-describing overload cannot work.
  std::stringstream legacy2(headerless);
  EXPECT_THROW(ReadEventLog(legacy2), Error);
}

TEST(Csv, RejectsCorruptStreams) {
  std::stringstream empty;
  EXPECT_THROW(ReadEventLog(empty, 2), Error);
  std::stringstream bad_header("nonsense\n1,2,3\n");
  EXPECT_THROW(ReadEventLog(bad_header, 2), Error);
  // Malformed '# queues=' values raise Error too, not a raw std::stoi exception.
  std::stringstream non_numeric("# queues=abc\ntask,state,queue,arrival,departure,initial\n");
  EXPECT_THROW(ReadEventLog(non_numeric), Error);
  std::stringstream empty_value("# queues=\ntask,state,queue,arrival,departure,initial\n");
  EXPECT_THROW(ReadEventLog(empty_value), Error);
  std::stringstream zero("# queues=0\ntask,state,queue,arrival,departure,initial\n");
  EXPECT_THROW(ReadEventLog(zero), Error);
  std::stringstream truncated("# queues=3\n");
  EXPECT_THROW(ReadEventLog(truncated), Error);
  // A trailing comma (lost initial flag) must not be absorbed as an empty flag field.
  std::stringstream trailing_comma(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n0,-1,0,0,1.5,\n");
  EXPECT_THROW(ReadEventLog(trailing_comma), Error);
  // Corrupt numeric fields raise Error, not std::invalid_argument.
  std::stringstream junk_number(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n0,-1,0,0,oops,1\n");
  EXPECT_THROW(ReadEventLog(junk_number), Error);
}

TEST(Csv, RejectsPhysicallyImpossibleLogsWithTheFeasibilityReason) {
  // Well-formed rows, impossible physics: task 1 would leave the FIFO queue before task 0
  // (service starts at 5, when task 0 departs, but task 1 departs at 3).
  std::stringstream overtaking(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n"
      "0,-1,0,0,1,1\n0,0,1,1,5,0\n1,-1,0,0,2,1\n1,0,1,2,3,0\n");
  try {
    ReadEventLog(overtaking);
    FAIL() << "an infeasible log was accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("infeasible event log: negative service time"),
              std::string::npos)
        << error.what();
  }
  // Task continuity: a visit must arrive when its predecessor departs.
  std::stringstream broken_continuity(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n"
      "0,-1,0,0,1.5,1\n0,0,1,1.7,2.0,0\n");
  EXPECT_THROW(ReadEventLog(broken_continuity), Error);
}

TEST(Csv, ByteMutationsNeverCrashAndNeverYieldAnInfeasibleLog) {
  // Seeded mutation corpus over a valid log: every single-byte mutation either raises
  // qnet::Error or parses to a feasible log. Any other exception fails the test.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(29);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 24), rng);
  std::ostringstream written;
  WriteEventLog(written, log);
  const std::string valid = written.str();
  static constexpr char kAlphabet[] = "0123456789.,-+eE\n #";
  constexpr int kMutations = 20000;
  int accepted = 0;
  int rejected = 0;
  int infeasible_accepted = 0;
  std::string mutated;
  for (int i = 0; i < kMutations; ++i) {
    mutated = valid;
    const std::uint64_t at = rng.NextU64() % mutated.size();
    const std::uint64_t pick = rng.NextU64();
    // Mostly CSV-shaped bytes (digits, separators, exponents), sometimes any byte.
    mutated[at] = pick % 4 == 0 ? static_cast<char>(pick >> 8)
                                : kAlphabet[(pick >> 8) % (sizeof(kAlphabet) - 1)];
    std::istringstream is(mutated);
    try {
      const EventLog parsed = ReadEventLog(is);
      ++accepted;
      infeasible_accepted += parsed.IsFeasible() ? 0 : 1;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(infeasible_accepted, 0) << "of " << accepted << " accepted mutations";
  EXPECT_EQ(accepted + rejected, kMutations);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Csv, ObservationRejectsMalformedFlags) {
  const QueueingNetwork net = MakeSingleQueueNetwork(1.0, 2.0);
  Rng rng(7);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 3), rng);
  std::stringstream trailing("event,arrival_observed,departure_observed\n0,1,\n");
  EXPECT_THROW(ReadObservation(trailing, log), Error);
  std::stringstream junk("event,arrival_observed,departure_observed\n0,yes,1\n");
  EXPECT_THROW(ReadObservation(junk, log), Error);
}

TEST(Csv, SeriesWriterFormatsRows) {
  std::stringstream buffer;
  WriteSeries(buffer, {"x", "y"}, {{1.0, 2.0}, {3.0, 4.5}});
  const std::string text = buffer.str();
  EXPECT_NE(text.find("x,y"), std::string::npos);
  EXPECT_NE(text.find("3,4.5"), std::string::npos);
  EXPECT_THROW(WriteSeries(buffer, {"x"}, {{1.0, 2.0}}), Error);
}

TEST(Csv, FileRoundTrip) {
  const QueueingNetwork net = MakeSingleQueueNetwork(1.0, 2.0);
  Rng rng(7);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 10), rng);
  const std::string path = ::testing::TempDir() + "/qnet_log.csv";
  WriteEventLogFile(path, log);
  const EventLog restored = ReadEventLogFile(path, net.NumQueues());
  EXPECT_EQ(restored.NumEvents(), log.NumEvents());
  EXPECT_THROW(ReadEventLogFile("/nonexistent/dir/file.csv", 2), Error);
}

TEST(Table, AlignsAndFormats) {
  TablePrinter table({"name", "value"});
  table.AddRow(std::vector<std::string>{"alpha", "1.0"});
  table.AddRow(std::vector<double>{2.0, 3.14159}, 2);
  std::stringstream buffer;
  table.Print(buffer);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
  const std::vector<std::string> too_many = {"too", "many", "cells"};
  EXPECT_THROW(table.AddRow(too_many), Error);
  EXPECT_EQ(FormatDouble(1.23456, 3), "1.235");
}

}  // namespace
}  // namespace qnet
