#include "service/batch_report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/json.hpp"

namespace mlcd::service {

std::string_view slo_breach_name(SloBreach breach) noexcept {
  switch (breach) {
    case SloBreach::kNone:
      return "none";
    case SloBreach::kDeadline:
      return "deadline";
    case SloBreach::kBudget:
      return "budget";
    case SloBreach::kProbes:
      return "probes";
  }
  return "unknown";
}

int BatchReport::succeeded() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.ok ? 1 : 0;
  return count;
}

int BatchReport::total_cache_hits() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.cache_hits;
  return count;
}

int BatchReport::total_session_parks() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.session_parks;
  return count;
}

int BatchReport::total_lane_crashes() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.lane_crashes;
  return count;
}

int BatchReport::total_revocations() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.grant_revocations;
  return count;
}

int BatchReport::total_probe_losses() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.probe_losses;
  return count;
}

int BatchReport::total_scheduler_stalls() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.scheduler_stalls;
  return count;
}

int BatchReport::total_low_fidelity_probes() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.low_fidelity_probes;
  return count;
}

int BatchReport::total_full_fidelity_probes() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) count += job.stats.full_fidelity_probes;
  return count;
}

int BatchReport::resumed_jobs() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) {
    count += job.stats.resumed_from_journal ? 1 : 0;
  }
  return count;
}

int BatchReport::replayed_reports() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) {
    count += job.stats.replayed_from_journal ? 1 : 0;
  }
  return count;
}

int BatchReport::slo_exceeded_count() const noexcept {
  int count = 0;
  for (const JobOutcome& job : jobs) {
    count += job.slo != SloBreach::kNone ? 1 : 0;
  }
  return count;
}

double BatchReport::total_lane_busy_seconds() const noexcept {
  double total = 0.0;
  for (const JobOutcome& job : jobs) total += job.stats.lane_busy_seconds;
  return total;
}

double BatchReport::lane_idle_fraction() const noexcept {
  const int lanes =
      std::min(threads, static_cast<int>(jobs.size()));
  const double lane_time = static_cast<double>(lanes) * makespan_seconds;
  if (lane_time <= 0.0) return 0.0;
  const double idle = 1.0 - total_lane_busy_seconds() / lane_time;
  return std::clamp(idle, 0.0, 1.0);
}

std::string BatchReport::render() const {
  std::ostringstream out;
  out << "=== MLCD batch report ===\n";
  out << "jobs: " << jobs.size() << " (" << succeeded() << " succeeded), "
      << "scheduler threads: " << threads
      << " (probe granularity, sharded dispatch)";
  if (capacity_nodes > 0) out << ", capacity: " << capacity_nodes << " nodes";
  if (tenant_max_jobs > 0) {
    out << ", tenant quota: " << tenant_max_jobs << " concurrent";
  }
  out << "\n";
  out << std::fixed << std::setprecision(2);
  out << "makespan: " << makespan_seconds << " s, peak capacity in use: "
      << peak_capacity_nodes << " nodes, peak tenant concurrency: "
      << peak_tenant_jobs << "\n";
  out << "lanes: " << std::setprecision(1)
      << 100.0 * (1.0 - lane_idle_fraction()) << "% busy ("
      << std::setprecision(2) << total_lane_busy_seconds()
      << " s occupied, " << total_session_parks() << " session parks, "
      << lane_steals << " steals)\n";
  out << "probe cache: " << cache.size << " records, " << cache.hits << "/"
      << cache.lookups << " hits\n";
  if (total_low_fidelity_probes() > 0) {
    out << "fidelity: " << total_low_fidelity_probes()
        << " reduced-rung probes, " << total_full_fidelity_probes()
        << " full-fidelity probes\n";
  }
  if (resumed_jobs() + replayed_reports() > 0) {
    out << "resume: " << replayed_reports()
        << " reports replayed from journals, " << resumed_jobs()
        << " in-flight jobs resumed\n";
  }
  if (batch_journal_degraded) {
    out << "WARNING: batch log write failed ("
        << batch_journal_degrade_reason
        << "); results are complete but this batch is no longer "
           "kill-resumable\n";
  }
  if (chaos.enabled()) {
    out << "chaos (seed " << chaos.seed << "): "
        << total_lane_crashes() << " lane crashes, "
        << total_revocations() << " revocations, "
        << total_probe_losses() << " probe losses, "
        << total_scheduler_stalls() << " stalls absorbed; "
        << slo_exceeded_count() << " jobs over SLO\n";
  }
  for (const JobOutcome& job : jobs) {
    out << "--- " << job.name << " (tenant " << job.tenant << ")";
    if (!job.ok) {
      out << " FAILED [" << job.error_code << "]: " << job.error_message
          << "\n";
      continue;
    }
    if (job.slo != SloBreach::kNone) {
      out << " [" << kSloExceeded << ": " << slo_breach_name(job.slo)
          << "]";
    }
    out << "\n";
    out << "    " << job.report.result.method << " -> "
        << job.report.result.best_description << "\n";
    out << "    queue wait " << job.stats.queue_wait_seconds << " s, ran "
        << job.stats.run_seconds << " s; cache hits "
        << job.stats.cache_hits << " (reused $" << job.stats.reused_probe_cost
        << "), published " << job.stats.cache_publishes
        << "; capacity stalls " << job.stats.capacity_stalls << " ("
        << job.stats.capacity_stall_seconds << " s), parks "
        << job.stats.session_parks << ", lane busy "
        << job.stats.lane_busy_seconds << " s\n";
    if (job.stats.lane_crashes + job.stats.grant_revocations +
            job.stats.probe_losses + job.stats.scheduler_stalls >
        0) {
      out << "    chaos absorbed: " << job.stats.lane_crashes
          << " lane crashes, " << job.stats.grant_revocations
          << " revocations (" << job.stats.chaos_backoff_hours
          << " h backoff), " << job.stats.probe_losses
          << " probe losses, " << job.stats.scheduler_stalls
          << " stalls\n";
    }
  }
  return out.str();
}

std::string BatchReport::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(kJsonSchemaVersion);
  json.key("scheduler").begin_object();
  json.key("threads").value(threads);
  // Schema-6 constants: one scheduler remains, and v2/v6 readers still
  // find the keys.
  json.key("mode").value("sharded");
  json.key("probe_granularity").value(true);
  json.key("lane_steals").value(lane_steals);
  json.key("capacity_nodes").value(capacity_nodes);
  json.key("tenant_max_jobs").value(tenant_max_jobs);
  json.key("makespan_seconds").value(makespan_seconds);
  json.key("peak_capacity_nodes").value(peak_capacity_nodes);
  json.key("peak_tenant_jobs").value(peak_tenant_jobs);
  json.key("lane_idle_fraction").value(lane_idle_fraction());
  json.key("resumed_jobs").value(resumed_jobs());
  json.key("replayed_reports").value(replayed_reports());
  if (batch_journal_degraded) {
    // Sparse warning keys (schema v5): only a degraded batch carries
    // them, so journaled and journal-less happy-path documents stay
    // key-identical.
    json.key("batch_journal_degraded").value(true);
    json.key("batch_journal_degrade_reason")
        .value(batch_journal_degrade_reason);
  }
  json.key("chaos_seed").value(static_cast<std::int64_t>(chaos.seed));
  json.key("chaos").begin_object();
  json.key("enabled").value(chaos.enabled());
  json.key("lane_crash_rate").value(chaos.lane_crash_rate);
  json.key("revocation_rate").value(chaos.revocation_rate);
  json.key("probe_loss_rate").value(chaos.probe_loss_rate);
  json.key("stall_rate").value(chaos.stall_rate);
  json.end_object();
  json.end_object();
  json.key("faults").begin_object();
  json.key("lane_crashes").value(total_lane_crashes());
  json.key("grant_revocations").value(total_revocations());
  json.key("probe_losses").value(total_probe_losses());
  json.key("scheduler_stalls").value(total_scheduler_stalls());
  json.key("slo_exceeded").value(slo_exceeded_count());
  json.end_object();
  json.key("fidelity").begin_object();
  json.key("low_fidelity_probes").value(total_low_fidelity_probes());
  json.key("full_fidelity_probes").value(total_full_fidelity_probes());
  json.end_object();
  json.key("probe_cache").begin_object();
  json.key("lookups").value(cache.lookups);
  json.key("hits").value(cache.hits);
  json.key("inserts").value(cache.inserts);
  json.key("size").value(static_cast<std::int64_t>(cache.size));
  json.key("stripes").value(cache.stripes);
  json.key("stripe_max_imbalance").value(cache.max_stripe_imbalance);
  json.end_object();
  json.key("jobs").begin_array();
  for (const JobOutcome& job : jobs) {
    json.begin_object();
    json.key("name").value(job.name);
    json.key("tenant").value(job.tenant);
    json.key("ok").value(job.ok);
    json.key("stats").begin_object();
    json.key("queue_wait_seconds").value(job.stats.queue_wait_seconds);
    json.key("run_seconds").value(job.stats.run_seconds);
    json.key("cache_hits").value(job.stats.cache_hits);
    json.key("cache_publishes").value(job.stats.cache_publishes);
    json.key("reused_probe_cost").value(job.stats.reused_probe_cost);
    json.key("capacity_stalls").value(job.stats.capacity_stalls);
    json.key("capacity_stall_seconds")
        .value(job.stats.capacity_stall_seconds);
    json.key("session_parks").value(job.stats.session_parks);
    json.key("lane_busy_seconds").value(job.stats.lane_busy_seconds);
    json.key("lane_crashes").value(job.stats.lane_crashes);
    json.key("grant_revocations").value(job.stats.grant_revocations);
    json.key("probe_losses").value(job.stats.probe_losses);
    json.key("scheduler_stalls").value(job.stats.scheduler_stalls);
    json.key("chaos_backoff_hours").value(job.stats.chaos_backoff_hours);
    json.key("low_fidelity_probes").value(job.stats.low_fidelity_probes);
    json.key("full_fidelity_probes").value(job.stats.full_fidelity_probes);
    json.key("resumed_from_journal").value(job.stats.resumed_from_journal);
    json.key("replayed_from_journal").value(job.stats.replayed_from_journal);
    json.end_object();
    json.key("slo").begin_object();
    json.key("exceeded").value(job.slo != SloBreach::kNone);
    json.key("code").value(job.slo != SloBreach::kNone
                               ? std::string(kSloExceeded)
                               : std::string());
    json.key("breach").value(std::string(slo_breach_name(job.slo)));
    json.end_object();
    if (job.ok) {
      // The solo-identical RunReport, spliced in verbatim: its bytes are
      // exactly `mlcd deploy --json` of the same JobSpec.
      json.key("report").raw(job.report.to_json());
    } else {
      json.key("error").begin_object();
      json.key("code").value(job.error_code);
      json.key("message").value(job.error_message);
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace mlcd::service
