// Crash-recovery tests for the session WAL: a SessionManager destroyed with
// live sessions (destruction == kill -9 as far as the journal is concerned;
// cancel_all writes no terminal records by design) must be reconstructible
// by a fresh manager over the same state dir, and the recovered sessions
// must finish byte-identical to never-interrupted runs — for every paper
// algorithm, at several crash points.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "service/session_manager.hpp"
#include "service/session_wal.hpp"
#include "tests/common/scratch_dir.hpp"
#include "tests/service/service_test_util.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

using service_test::synth_eval;

SessionLimits limits_with(const std::string& state_dir) {
  SessionLimits limits;
  limits.state_dir = state_dir;
  return limits;
}

OpenParams tiny_open(const std::string& algorithm, std::size_t budget,
                     std::uint64_t seed) {
  OpenParams params;
  params.algorithm = algorithm;
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

struct Driven {
  tuner::TuneResult result;
  std::uint64_t next_seq = 1;
};

/// Run a session's ask/tell loop against the synthetic objective, starting
/// at tell seq `next_seq`, for at most `max_tells` tells (SIZE_MAX = to
/// completion). Returns the result when the search terminated.
Driven drive(SessionManager& manager, const std::string& id,
             const tuner::ParamSpace& space, std::uint64_t salt,
             std::uint64_t next_seq, std::size_t max_tells,
             bool fetch_result = true) {
  Driven out;
  out.next_seq = next_seq;
  std::size_t tells = 0;
  while (tells < max_tells) {
    const std::optional<tuner::Configuration> config = manager.ask(id);
    if (!config) break;
    manager.tell(id, synth_eval(space, *config, salt), out.next_seq++);
    ++tells;
  }
  if (fetch_result && tells < max_tells) out.result = manager.result(id).result;
  return out;
}

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.best_config == b.best_config && a.found_valid == b.found_valid &&
         a.evaluations_used == b.evaluations_used &&
         std::memcmp(&a.best_value, &b.best_value, sizeof(double)) == 0;
}

// The tentpole acceptance check: for every paper algorithm, crash after k
// tells, recover in a fresh manager, finish — byte-identical to an
// uninterrupted run with the same seeds.
TEST(CrashRecovery, EveryPaperAlgorithmSurvivesAMidSessionCrash) {
  const std::size_t budget = 24;
  const std::uint64_t salt = 2022;
  for (const std::string& algorithm : tuner::paper_algorithms()) {
    const OpenParams params = tiny_open(algorithm, budget, 77);
    const tuner::ParamSpace space = params.make_space();

    // Uninterrupted baseline (durability off: proves recovery adds nothing).
    tuner::TuneResult baseline;
    {
      SessionManager manager;
      const std::string id = manager.open(params);
      baseline = drive(manager, id, space, salt, 1, SIZE_MAX).result;
      manager.close(id);
    }

    for (const std::size_t crash_after : {std::size_t{0}, std::size_t{7}}) {
      const test_util::ScratchDir scratch("repro_wal");
      const std::string dir = scratch.path();
      std::string id;
      {
        SessionManager manager(limits_with(dir));
        id = manager.open(params);
        (void)drive(manager, id, space, salt, 1, crash_after,
                    /*fetch_result=*/false);
        // Manager destroyed with the session live: the crash. No close
        // record is written; the journal holds open + crash_after tells.
      }
      SessionManager recovered(limits_with(dir));
      const MetricsSnapshot stats = recovered.recover();
      ASSERT_EQ(stats[Metric::kSessionsRecovered], 1u)
          << algorithm << " crash_after=" << crash_after;
      EXPECT_EQ(stats[Metric::kTellsReplayed], crash_after);
      EXPECT_EQ(stats[Metric::kSessionsFailed], 0u);
      EXPECT_EQ(recovered.live(), 1u);

      const tuner::TuneResult resumed =
          drive(recovered, id, space, salt, crash_after + 1, SIZE_MAX).result;
      EXPECT_TRUE(same_result(baseline, resumed))
          << algorithm << " diverged after recovery at tell " << crash_after;
      recovered.close(id);
    }
  }
}

TEST(CrashRecovery, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  // Crash, recover, make progress, crash again, recover again: the journal
  // accretes across incarnations and the final result still matches.
  const OpenParams params = tiny_open("rs", 20, 5);
  const tuner::ParamSpace space = params.make_space();
  const std::uint64_t salt = 11;

  tuner::TuneResult baseline;
  {
    SessionManager manager;
    const std::string id = manager.open(params);
    baseline = drive(manager, id, space, salt, 1, SIZE_MAX).result;
  }

  const test_util::ScratchDir scratch("repro_wal");
  const std::string dir = scratch.path();
  std::string id;
  std::uint64_t seq = 1;
  {
    SessionManager manager(limits_with(dir));
    id = manager.open(params);
    seq = drive(manager, id, space, salt, seq, 5, false).next_seq;
  }
  {
    SessionManager manager(limits_with(dir));
    ASSERT_EQ(manager.recover()[Metric::kTellsReplayed], 5u);
    seq = drive(manager, id, space, salt, seq, 6, false).next_seq;
  }
  SessionManager manager(limits_with(dir));
  ASSERT_EQ(manager.recover()[Metric::kTellsReplayed], 11u);
  const tuner::TuneResult resumed =
      drive(manager, id, space, salt, seq, SIZE_MAX).result;
  EXPECT_TRUE(same_result(baseline, resumed));
}

TEST(CrashRecovery, TornTailIsDroppedAndTheSessionStillRecovers) {
  const OpenParams params = tiny_open("rs", 16, 3);
  const tuner::ParamSpace space = params.make_space();
  const test_util::ScratchDir scratch("repro_wal");
  const std::string dir = scratch.path();
  std::string id;
  {
    SessionManager manager(limits_with(dir));
    id = manager.open(params);
    (void)drive(manager, id, space, 9, 1, 6, false);
  }
  // Simulate a kill mid-append: an unterminated partial record at the tail.
  {
    std::ofstream out(wal_path(dir, id), std::ios::app);
    out << "{\"wal\":\"tell\",\"seq\":7,\"con";  // no newline
  }
  SessionManager recovered(limits_with(dir));
  const MetricsSnapshot stats = recovered.recover();
  EXPECT_EQ(stats[Metric::kSessionsRecovered], 1u);
  EXPECT_EQ(stats[Metric::kTornTails], 1u);
  // The torn record is gone; the next applied tell is seq 7 again.
  EXPECT_EQ(stats[Metric::kTellsReplayed], 6u);
  const tuner::TuneResult resumed = drive(recovered, id, space, 9, 7, SIZE_MAX).result;
  EXPECT_TRUE(resumed.evaluations_used > 0);
}

TEST(CrashRecovery, MalformedInteriorRecordLosesOnlyThatSession) {
  const test_util::ScratchDir scratch("repro_wal");
  const std::string dir = scratch.path();
  std::string broken_id;
  std::string healthy_id;
  const OpenParams params = tiny_open("rs", 12, 1);
  const tuner::ParamSpace space = params.make_space();
  {
    SessionManager manager(limits_with(dir));
    broken_id = manager.open(params);
    healthy_id = manager.open(params);
    (void)drive(manager, broken_id, space, 1, 1, 3, false);
    (void)drive(manager, healthy_id, space, 2, 1, 3, false);
  }
  // Corrupt an *interior* record of one journal (flip its line to garbage
  // while keeping the newline): unrecoverable by the torn-tail rule.
  {
    std::ifstream in(wal_path(dir, broken_id));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t first_newline = text.find('\n');
    ASSERT_NE(first_newline, std::string::npos);
    text[first_newline + 1] = '#';
    std::ofstream out(wal_path(dir, broken_id), std::ios::trunc);
    out << text;
  }
  SessionManager recovered(limits_with(dir));
  const MetricsSnapshot stats = recovered.recover();
  EXPECT_EQ(stats[Metric::kSessionsFailed], 1u);
  EXPECT_EQ(stats[Metric::kSessionsRecovered], 1u);
  EXPECT_EQ(recovered.live(), 1u);
  // The healthy session is usable; the broken id reads as never-existed.
  EXPECT_NO_THROW((void)recovered.ask(healthy_id));
  EXPECT_THROW((void)recovered.ask(broken_id), ProtocolError);
}

TEST(CrashRecovery, CloseRecordWithoutUnlinkIsDiscardedOnRecovery) {
  // A crash landing between append_close() and unlink() leaves a journal
  // with a clean terminal record; recovery finishes the unlink.
  const test_util::ScratchDir scratch("repro_wal");
  const std::string dir = scratch.path();
  const OpenParams params = tiny_open("rs", 8, 2);
  const std::string path = wal_path(dir, "s1");
  {
    auto wal = SessionWal::create(path, "s1", "", params);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->append_close());
  }
  SessionManager recovered(limits_with(dir));
  const MetricsSnapshot stats = recovered.recover();
  EXPECT_EQ(stats[Metric::kClosedDiscarded], 1u);
  EXPECT_EQ(stats[Metric::kSessionsRecovered], 0u);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // journal deleted
}

TEST(CrashRecovery, EvictionRecordBecomesATombstoneAcrossRestart) {
  const test_util::ScratchDir scratch("repro_wal");
  const std::string dir = scratch.path();
  const OpenParams params = tiny_open("rs", 8, 2);
  const std::string path = wal_path(dir, "s1");
  {
    auto wal = SessionWal::create(path, "s1", "", params);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->append_evicted());
  }
  SessionManager recovered(limits_with(dir));
  const MetricsSnapshot stats = recovered.recover();
  EXPECT_EQ(stats[Metric::kEvictedTombstones], 1u);
  EXPECT_EQ(recovered.live(), 0u);
  // Distinguishable from never-existed even after the restart.
  try {
    (void)recovered.ask("s1");
    FAIL() << "expected session_evicted";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kSessionEvicted);
  }
  try {
    (void)recovered.ask("s999");
    FAIL() << "expected unknown_session";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kUnknownSession);
  }
}

TEST(CrashRecovery, DuplicateTellSeqIsAcknowledgedNotReapplied) {
  const OpenParams params = tiny_open("rs", 10, 4);
  const tuner::ParamSpace space = params.make_space();
  const test_util::ScratchDir scratch("repro_wal");
  SessionManager manager(limits_with(scratch.path()));
  const std::string id = manager.open(params);

  const std::optional<tuner::Configuration> config = manager.ask(id);
  ASSERT_TRUE(config.has_value());
  const tuner::Evaluation eval = synth_eval(space, *config, 6);
  const SessionManager::TellAck first = manager.tell(id, eval, 1);
  EXPECT_FALSE(first.duplicate);
  // The retry after a lost ack: same seq, acknowledged without re-applying.
  const SessionManager::TellAck replay = manager.tell(id, eval, 1);
  EXPECT_TRUE(replay.duplicate);
  EXPECT_EQ(manager.metrics()[Metric::kDuplicateTells], 1u);
  // A gap is a client bug, not a retry.
  try {
    (void)manager.tell(id, eval, 5);
    FAIL() << "expected bad_request";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  }
  manager.close(id);
}

TEST(CrashRecovery, OpenTokenDedupesAgainstRecoveredSessions) {
  // A client that opened with a token, lost the response, and found the
  // daemon restarted must get its recovered session back — not a twin.
  const OpenParams params = tiny_open("rs", 10, 8);
  const test_util::ScratchDir scratch("repro_wal");
  const std::string dir = scratch.path();
  std::string id;
  {
    SessionManager manager(limits_with(dir));
    id = manager.open(params, "campaign#1/rs/8");
  }
  SessionManager recovered(limits_with(dir));
  ASSERT_EQ(recovered.recover()[Metric::kSessionsRecovered], 1u);
  EXPECT_EQ(recovered.open(params, "campaign#1/rs/8"), id);
  EXPECT_EQ(recovered.live(), 1u);
}

}  // namespace
}  // namespace repro::service
