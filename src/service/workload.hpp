// Workload: the unit of admission for the multi-tenant search service.
//
// A workload is a JSON file naming a fleet of deployment-search jobs —
// one per training job a tenant wants placed — each carrying the same
// knobs `mlcd deploy` accepts (model, scenario bounds, search method,
// seed, chaos knobs, journal path). The scheduler (scheduler.hpp) runs
// the fleet concurrently; parsing and validation live here so the CLI,
// the examples, and the tests share one format.
//
// Format (see docs/service.md and examples/workloads/):
//
//   {
//     "schema_version": 1,
//     "jobs": [
//       {
//         "name": "acme-resnet",          // required, unique
//         "tenant": "acme",               // quota bucket; default: name
//         "model": "resnet",              // required
//         "platform": "tensorflow",
//         "method": "heterbo",
//         "seed": 7,
//         "deadline_hours": 24.0,         // optional scenario bounds
//         "budget_dollars": 400.0,
//         "max_nodes": 50,
//         "use_spot": false,
//         "threads": 1,                   // echoed in the report; no effect
//         "gp_refit_every": 1,
//         "journal": "acme-resnet.mlcdj", // optional durable journal
//         "journal_on_error": "degrade",  // "abort" (default) or
//                                         //   "degrade" (docs/crash-safety.md)
//         "fidelity_rungs": "0.5:1,0.25:2", // optional multi-fidelity
//         "fidelity_max_bias": 0.25,      //   ladder (docs/multi-fidelity.md)
//         "fidelity_max_noise": 0.06,
//         "slo_deadline_hours": 12.0,     // optional service SLOs
//         "slo_budget_dollars": 80.0,
//         "slo_max_probes": 30
//       }
//     ],
//     "scheduler": "sharded",             // optional; the only mode
//                                         //   ("probe" is an alias;
//                                         //   "central" and "job" were
//                                         //   removed and are refused)
//     "chaos": {                          // optional fault injection
//       "seed": 7,                        // (docs/chaos.md)
//       "lane_crash_rate": 0.05,
//       "revocation_rate": 0.05,
//       "probe_loss_rate": 0.02,
//       "stall_rate": 0.02
//     }
//   }
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mlcd/mlcd.hpp"
#include "service/chaos.hpp"

namespace mlcd::service {

/// Per-tenant service-level objectives, enforced by the scheduler at
/// probe boundaries in *simulated* units (the session's own profiling
/// clock and billing meter), so a breach fires at the same step at any
/// thread count. A job over its SLO is not aborted: its session is
/// finalized early through the safe-mode path — best-known deployment
/// from the trace so far — and the outcome is typed `slo_exceeded`.
/// Distinct from JobRequest::requirements (deadline_hours /
/// budget_dollars), which shape the *search scenario* the tenant asked
/// to solve; SLOs bound what the service lets the search spend.
struct SloPolicy {
  double deadline_hours = 0.0;   ///< cap on spent profiling hours; 0 = off
  double budget_dollars = 0.0;   ///< cap on spent profiling dollars; 0 = off
  int max_probes = 0;            ///< cap on executed probes; 0 = off

  bool enabled() const noexcept {
    return deadline_hours > 0.0 || budget_dollars > 0.0 || max_probes > 0;
  }
};

/// One named job of a workload: a tenant label (the quota bucket) plus
/// the full deploy request and the tenant's service-level objectives.
struct JobSpec {
  std::string name;
  std::string tenant;
  system::JobRequest request;
  SloPolicy slo;
};

/// A fleet of jobs admitted and scheduled together, plus the fault
/// environment the batch runs under (defaults to fault-free).
struct Workload {
  static constexpr int kJsonSchemaVersion = 1;

  std::vector<JobSpec> jobs;
  ChaosOptions chaos;
};

/// Parses a workload document. Throws std::invalid_argument on
/// malformed JSON, an unsupported schema_version, missing required
/// fields, duplicate or empty job names, or out-of-range numbers.
/// (Unknown models/methods are *not* rejected here — the scheduler
/// surfaces those as per-job JobErrors, matching `mlcd deploy`.)
Workload parse_workload(std::string_view json);

/// Reads and parses a workload file; throws std::runtime_error when the
/// file cannot be read.
Workload load_workload(const std::string& path);

}  // namespace mlcd::service
