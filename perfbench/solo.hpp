// Solo runs and the correctness check against them.
//
// drive_solo() runs every job of a workload outside the scheduler through
// the same public calls a scheduler lane makes: Mlcd::prepare, then
// SearchSession::next and ProbeDriver::step until the session finishes,
// then PreparedJob::finish. With span logs it is the traced run; without,
// it is the untraced twin the tracing overhead is measured against and
// the reference the scheduled runs are checked against. The determinism
// contract makes each scheduled job's trace equal its solo trace, so the
// solo spans attribute the scheduled run's lane-busy time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mlcd/mlcd.hpp"
#include "service/batch_report.hpp"
#include "service/workload.hpp"
#include "spans.hpp"

namespace perfbench {

/// What the correctness check compares for one job: the report's
/// service::digest_run_report, which covers the selected deployment, the
/// accounting and the whole probe trace but not the replay bookkeeping a
/// crash re-staging or a resume legitimately sets, and one digest per
/// trace step for the prefix check of an SLO-capped job.
struct JobPrint {
  bool ok = false;
  std::string error;  ///< set when !ok
  std::uint64_t report = 0;
  std::vector<std::uint64_t> steps;
};

JobPrint fingerprint(const mlcd::system::RunReport& report);

struct SoloRun {
  std::vector<JobPrint> jobs;  ///< workload order
  double wall_seconds = 0.0;
};

/// Drives every job solo on `threads` threads, each taking the next
/// unclaimed job. `logs`, when non-null, must hold `threads` logs and
/// receives the spans. A non-empty `journal_dir` gives each job its own
/// run journal there, so every probe is an fsync'd write as in a durable
/// batch (the directory must exist and hold no journals of these jobs).
SoloRun drive_solo(const mlcd::system::Mlcd& mlcd,
                   const mlcd::service::Workload& workload, int threads,
                   std::vector<SpanLog>* logs, const std::string& journal_dir);

/// Empty when the scheduled outcome matches the solo print: same trace
/// and selection, or, for a job the scheduler cut short at its SLO, a
/// trace that is a prefix of the solo trace. Otherwise the mismatch.
std::string compare(const mlcd::service::JobOutcome& got, const JobPrint& want);

}  // namespace perfbench
