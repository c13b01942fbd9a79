#include "service/workload.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "profiler/fidelity.hpp"
#include "service/probe_cache.hpp"
#include "util/json.hpp"

namespace mlcd::service {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("workload: " + what);
}

double finite_number(const util::JsonValue& v, const std::string& key) {
  const double x = v.as_number();
  if (!std::isfinite(x)) fail("'" + key + "' must be finite");
  return x;
}

int int_field(const util::JsonValue& job, const std::string& key,
              int fallback, int min_value) {
  if (!job.contains(key)) return fallback;
  const double x = finite_number(job.at(key), key);
  const int i = static_cast<int>(x);
  if (static_cast<double>(i) != x) fail("'" + key + "' must be an integer");
  if (i < min_value) {
    fail("'" + key + "' must be >= " + std::to_string(min_value));
  }
  return i;
}

std::string string_field(const util::JsonValue& job, const std::string& key,
                         const std::string& fallback) {
  if (!job.contains(key)) return fallback;
  return job.at(key).as_string();
}

/// Strictly positive finite number — the validation contract every
/// dollars/hours field of the format shares (PR 3 conventions, extended
/// to the SLO fields here).
double positive_field(const util::JsonValue& obj, const std::string& key,
                      const std::string& owner) {
  const double x = finite_number(obj.at(key), key);
  if (x <= 0.0) fail(owner + ": non-positive '" + key + "'");
  return x;
}

/// Probability in [0, 1], finite.
double rate_field(const util::JsonValue& obj, const std::string& key) {
  const double x = finite_number(obj.at(key), key);
  if (x < 0.0 || x > 1.0) {
    fail("'" + key + "' must be a rate in [0, 1]");
  }
  return x;
}

ChaosOptions parse_chaos(const util::JsonValue& chaos) {
  if (!chaos.is_object()) fail("'chaos' must be an object");
  ChaosOptions options;
  if (chaos.contains("seed")) {
    options.seed =
        static_cast<std::uint64_t>(int_field(chaos, "seed", 0, 0));
  }
  if (chaos.contains("lane_crash_rate")) {
    options.lane_crash_rate = rate_field(chaos, "lane_crash_rate");
  }
  if (chaos.contains("revocation_rate")) {
    options.revocation_rate = rate_field(chaos, "revocation_rate");
  }
  if (chaos.contains("probe_loss_rate")) {
    options.probe_loss_rate = rate_field(chaos, "probe_loss_rate");
  }
  if (chaos.contains("stall_rate")) {
    options.stall_rate = rate_field(chaos, "stall_rate");
  }
  try {
    options.validate();
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  return options;
}

JobSpec parse_job(const util::JsonValue& job, std::size_t index) {
  if (!job.is_object()) {
    fail("jobs[" + std::to_string(index) + "] must be an object");
  }
  JobSpec spec;
  if (!job.contains("name") || job.at("name").as_string().empty()) {
    fail("jobs[" + std::to_string(index) + "] needs a non-empty 'name'");
  }
  spec.name = job.at("name").as_string();
  spec.tenant = string_field(job, "tenant", spec.name);
  if (spec.tenant.empty()) fail("job '" + spec.name + "': empty 'tenant'");

  system::JobRequest& r = spec.request;
  if (!job.contains("model") || job.at("model").as_string().empty()) {
    fail("job '" + spec.name + "' needs a non-empty 'model'");
  }
  r.model = job.at("model").as_string();
  r.platform = string_field(job, "platform", r.platform);
  r.search_method = string_field(job, "method", r.search_method);
  const std::string owner = "job '" + spec.name + "'";
  if (job.contains("deadline_hours")) {
    r.requirements.deadline_hours =
        positive_field(job, "deadline_hours", owner);
  }
  if (job.contains("budget_dollars")) {
    r.requirements.budget_dollars =
        positive_field(job, "budget_dollars", owner);
  }
  if (job.contains("slo_deadline_hours")) {
    spec.slo.deadline_hours =
        positive_field(job, "slo_deadline_hours", owner);
  }
  if (job.contains("slo_budget_dollars")) {
    spec.slo.budget_dollars =
        positive_field(job, "slo_budget_dollars", owner);
  }
  spec.slo.max_probes = int_field(job, "slo_max_probes", 0, 1);
  if (job.contains("failure_rate")) {
    // The scalar alias was retired with the multi-fidelity redesign;
    // reject it loudly instead of silently ignoring a chaos knob.
    fail(owner +
         ": 'failure_rate' was removed; use the per-node launch hazard "
         "('launch_failure_per_node' via the CLI fault knobs) instead");
  }
  if (job.contains("fidelity_rungs")) {
    const std::string rungs = job.at("fidelity_rungs").as_string();
    try {
      r.profiler_options.fidelity.rungs =
          profiler::parse_fidelity_rungs(rungs);
    } catch (const std::invalid_argument& e) {
      fail(owner + ": " + e.what());
    }
  }
  if (job.contains("fidelity_max_bias")) {
    r.profiler_options.fidelity.max_speed_bias =
        rate_field(job, "fidelity_max_bias");
  }
  if (job.contains("fidelity_max_noise")) {
    r.profiler_options.fidelity.max_extra_noise =
        rate_field(job, "fidelity_max_noise");
  }
  r.seed = static_cast<std::uint64_t>(int_field(job, "seed", 1, 1));
  r.max_nodes = int_field(job, "max_nodes", r.max_nodes, 1);
  r.threads = int_field(job, "threads", r.threads, 1);
  r.gp_refit_every = int_field(job, "gp_refit_every", r.gp_refit_every, 0);
  if (job.contains("use_spot")) r.use_spot = job.at("use_spot").as_bool();
  r.journal_path = string_field(job, "journal", "");
  if (job.contains("journal_on_error")) {
    const std::string policy = job.at("journal_on_error").as_string();
    if (policy == "abort") {
      r.journal_on_error = journal::OnError::kAbort;
    } else if (policy == "degrade") {
      r.journal_on_error = journal::OnError::kDegrade;
    } else {
      fail(owner + ": 'journal_on_error' must be \"abort\" or \"degrade\"");
    }
  }
  if (job.contains("instance_types")) {
    for (const util::JsonValue& t : job.at("instance_types").as_array()) {
      r.instance_types.push_back(t.as_string());
    }
  }
  return spec;
}

}  // namespace

Workload parse_workload(std::string_view json) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(json);
  } catch (const std::invalid_argument& e) {
    fail(std::string("malformed JSON: ") + e.what());
  }
  if (!doc.is_object()) fail("top level must be an object");
  if (doc.contains("schema_version")) {
    const double v = finite_number(doc.at("schema_version"),
                                   "schema_version");
    if (v != Workload::kJsonSchemaVersion) {
      std::ostringstream message;
      message << "unsupported schema_version " << v << " (this build reads "
              << Workload::kJsonSchemaVersion << ")";
      fail(message.str());
    }
  }
  if (!doc.contains("jobs")) fail("missing 'jobs' array");

  Workload workload;
  if (doc.contains("chaos")) workload.chaos = parse_chaos(doc.at("chaos"));
  if (doc.contains("scheduler")) {
    // One scheduler remains; the key only documents it. Files pinning a
    // removed mode must fail loudly rather than silently run sharded.
    const std::string mode = doc.at("scheduler").as_string();
    if (mode == "central" || mode == "job") {
      fail("'scheduler' mode \"" + mode +
           "\" was removed; every batch runs the sharded scheduler (drop "
           "the key or write \"sharded\")");
    }
    if (mode != "sharded" && mode != "probe") {
      fail("'scheduler' must be \"sharded\" or the legacy alias "
           "\"probe\" (got \"" + mode + "\")");
    }
  }
  if (doc.contains("cache_stripes")) {
    // The stripe count is fixed; a file pinning it must not look tuned.
    fail("'cache_stripes' was removed; the probe cache always runs " +
         std::to_string(ProbeCache::kStripes) + " stripes (drop the key)");
  }
  const auto& jobs = doc.at("jobs").as_array();
  if (jobs.empty()) fail("'jobs' must not be empty");
  std::set<std::string> names;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobSpec spec = parse_job(jobs[i], i);
    if (!names.insert(spec.name).second) {
      fail("duplicate job name '" + spec.name + "'");
    }
    workload.jobs.push_back(std::move(spec));
  }
  return workload;
}

Workload load_workload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("workload: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_workload(buffer.str());
}

}  // namespace mlcd::service
