#include "mlcd/mlcd.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cloud/deployment.hpp"
#include "cloud/fault_model.hpp"
#include "search/probe_driver.hpp"
#include "search/registry.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace mlcd::system {

Mlcd::Mlcd()
    : owned_cloud_(std::make_unique<SimulatedCloud>()),
      cloud_(owned_cloud_.get()),
      zoo_(&models::paper_zoo()),
      engine_(*cloud_) {}

Mlcd::Mlcd(const CloudInterface& cloud, const models::ModelZoo& zoo)
    : cloud_(&cloud), zoo_(&zoo), engine_(*cloud_) {}

std::string_view job_error_code_name(JobErrorCode code) {
  switch (code) {
    case JobErrorCode::kUnknownModel: return "unknown_model";
    case JobErrorCode::kUnknownPlatform: return "unknown_platform";
    case JobErrorCode::kUnknownMethod: return "unknown_method";
    case JobErrorCode::kUnknownInstanceType: return "unknown_instance_type";
    case JobErrorCode::kInvalidRequest: return "invalid_request";
    case JobErrorCode::kJournalError: return "journal_error";
  }
  return "invalid_request";
}

namespace {

std::uint64_t hash_warm_start(
    const std::vector<search::WarmStartPoint>& points) {
  journal::HashStream h;
  h.mix(static_cast<std::uint64_t>(points.size()));
  for (const search::WarmStartPoint& w : points) {
    h.mix(static_cast<std::uint64_t>(w.deployment.type_index))
        .mix(w.deployment.nodes)
        .mix(w.measured_speed);
  }
  return h.digest();
}

}  // namespace

DeployResult DeployResult::success(RunReport report) {
  DeployResult result;
  result.report_.emplace(std::move(report));
  return result;
}

DeployResult DeployResult::failure(JobError error) {
  DeployResult result;
  result.error_.emplace(std::move(error));
  return result;
}

const RunReport& DeployResult::report() const& {
  if (!report_) {
    throw std::runtime_error("Mlcd::deploy rejected the job: " +
                             error_->message);
  }
  return *report_;
}

RunReport&& DeployResult::report() && {
  if (!report_) {
    throw std::runtime_error("Mlcd::deploy rejected the job: " +
                             error_->message);
  }
  return std::move(*report_);
}

const JobError& DeployResult::error() const {
  if (!error_) {
    throw std::logic_error("DeployResult::error: the job succeeded");
  }
  return *error_;
}

/// Everything a prepared job's session borrows, heap-pinned in
/// declaration order (the space borrows the catalog, the problem borrows
/// the space/journal, the session borrows the problem and searcher).
struct PreparedJob::Context {
  JobRequest request;  ///< owned copy; gate/pool pointers stay live
  search::Scenario scenario;
  std::optional<cloud::InstanceCatalog> restricted;
  std::optional<cloud::DeploymentSpace> space;
  std::optional<perf::TrainingPerfModel> perf_view;
  std::unique_ptr<search::Searcher> searcher;
  std::optional<journal::RunJournal> writer;
  journal::JournalHeader header;
  search::SearchProblem problem;
  std::string resumed_from;
  /// Why journal creation failed under the degrade policy (empty
  /// otherwise); handed to the session once it exists.
  std::string journal_create_failure;
  std::unique_ptr<search::SearchSession> session;
};

PreparedJob::PreparedJob(std::unique_ptr<Context> context)
    : context_(std::move(context)) {}
PreparedJob::PreparedJob(PreparedJob&&) noexcept = default;
PreparedJob& PreparedJob::operator=(PreparedJob&&) noexcept = default;
PreparedJob::~PreparedJob() = default;

search::SearchSession& PreparedJob::session() noexcept {
  return *context_->session;
}

const journal::JournalHeader& PreparedJob::journal_header() const noexcept {
  return context_->header;
}

DeployResult PreparedJob::finish() {
  RunReport report;
  report.request = context_->request;
  // The gate and any re-staging replay records are scoped to the run;
  // never let them leak out of the report.
  report.request.probe_gate = nullptr;
  report.request.journal_sink = nullptr;
  report.request.replay_records.clear();
  report.scenario = context_->scenario;
  report.resumed_from = context_->resumed_from;
  report.journal_degraded = context_->session->journal_degraded();
  report.journal_degrade_reason = context_->session->journal_degrade_reason();
  report.result = context_->searcher->finish(*context_->session);
  MLCD_LOG(kInfo, "mlcd") << report.result.method << " selected "
                          << report.result.best_description;
  return DeployResult::success(std::move(report));
}

PrepareResult PrepareResult::success(PreparedJob job) {
  PrepareResult result;
  result.job_.emplace(std::move(job));
  return result;
}

PrepareResult PrepareResult::failure(JobError error) {
  PrepareResult result;
  result.error_.emplace(std::move(error));
  return result;
}

PreparedJob& PrepareResult::job() {
  if (!job_) {
    throw std::runtime_error("Mlcd::prepare rejected the job: " +
                             error_->message);
  }
  return *job_;
}

const JobError& PrepareResult::error() const {
  if (!error_) {
    throw std::logic_error("PrepareResult::error: preparation succeeded");
  }
  return *error_;
}

PrepareResult Mlcd::prepare(const JobRequest& request) const {
  auto reject = [](JobErrorCode code, std::string message) {
    return PrepareResult::failure(JobError{code, std::move(message)});
  };
  if (request.max_nodes < 1) {
    return reject(JobErrorCode::kInvalidRequest,
                  "max_nodes must be >= 1 (got " +
                      std::to_string(request.max_nodes) + ")");
  }
  if (request.threads < 1) {
    return reject(JobErrorCode::kInvalidRequest,
                  "threads must be >= 1 (got " +
                      std::to_string(request.threads) + ")");
  }
  const std::optional<std::size_t> model_index =
      zoo_->find_model(request.model);
  if (!model_index) {
    return reject(JobErrorCode::kUnknownModel,
                  "unknown model '" + request.model +
                      "' (see `mlcd models` for the zoo)");
  }
  const models::ModelSpec& model = zoo_->models()[*model_index];

  search::Scenario scenario;
  try {
    scenario = analyzer_.analyze(request.requirements);
  } catch (const std::invalid_argument& e) {
    return reject(JobErrorCode::kInvalidRequest, e.what());
  }

  // Everything below is owned by the prepared job's context: the session
  // borrows the space/perf view/searcher/journal, so they must live —
  // heap-pinned — for as long as the session does.
  auto context = std::make_unique<PreparedJob::Context>();
  context->request = request;
  context->scenario = scenario;

  // Build the (possibly restricted) deployment space. The restricted
  // catalog must outlive the search, so it lives beside the space.
  if (!request.instance_types.empty()) {
    try {
      context->restricted = cloud_->catalog().subset(request.instance_types);
    } catch (const std::invalid_argument& e) {
      return reject(JobErrorCode::kUnknownInstanceType, e.what());
    }
  }
  const cloud::InstanceCatalog& catalog =
      context->restricted ? *context->restricted : cloud_->catalog();
  context->space.emplace(
      catalog, request.max_nodes,
      request.use_spot ? cloud::Market::kSpot : cloud::Market::kOnDemand);

  // Map the restricted space's searcher onto a perf model sharing the
  // same catalog view.
  context->perf_view.emplace(catalog, cloud_->perf_model().options());

  search::SearchProblem& problem = context->problem;
  try {
    problem.config =
        platforms_.make_config(model, request.platform, request.topology);
  } catch (const std::invalid_argument& e) {
    return reject(JobErrorCode::kUnknownPlatform, e.what());
  }
  problem.space = &*context->space;
  problem.scenario = scenario;
  problem.seed = request.seed;
  problem.profiler_options = request.profiler_options;
  problem.gp_refit_every = request.gp_refit_every;
  problem.journal_on_error = request.journal_on_error;

  if (request.probe_gate != nullptr) {
    // Substrate fingerprint for the service probe cache: everything
    // job-invariant that shapes a probe's outcome (the scenario and the
    // search method deliberately excluded — cross-scenario reuse of an
    // identical probe prefix is the point; the history hash covers the
    // rest). See probe_gate.hpp for the soundness contract.
    journal::HashStream sub;
    sub.mix(request.model)
        .mix(request.platform)
        .mix(request.topology.has_value())
        .mix(request.topology ? static_cast<int>(*request.topology) : 0)
        .mix(request.seed)
        .mix(request.max_nodes)
        .mix(request.use_spot)
        .mix(journal::hash_catalog(catalog))
        .mix(profiler::hash_options(request.profiler_options));
    problem.probe_gate = request.probe_gate;
    problem.probe_substrate = sub.digest();
  }

  // Searchers must run against a perf model whose catalog view matches
  // the space's type indices.
  try {
    search::SearcherOptions options;
    options.warm_start = request.warm_start;
    context->searcher = search::SearcherRegistry::instance().create(
        request.search_method, *context->perf_view, options);
  } catch (const std::invalid_argument& e) {
    return reject(JobErrorCode::kUnknownMethod, e.what());
  }

  // --- Crash safety: journal header fingerprinting everything that
  // shapes the probe sequence. A resume whose own configuration would
  // hash differently is refused — the journal describes another search.
  if (!request.resume_path.empty() && !request.journal_path.empty() &&
      request.resume_path != request.journal_path) {
    return reject(JobErrorCode::kInvalidRequest,
                  "--journal and --resume must name the same file (a "
                  "resumed run continues its own journal)");
  }
  if (!request.replay_records.empty() &&
      (!request.resume_path.empty() || !request.journal_path.empty())) {
    // A fresh journal would truncate the very records being replayed;
    // journaled jobs re-stage through resume_path instead.
    return reject(JobErrorCode::kInvalidRequest,
                  "in-memory replay_records cannot be combined with a "
                  "journal or resume path");
  }
  if (request.journal_sink != nullptr &&
      (!request.resume_path.empty() || !request.journal_path.empty())) {
    return reject(JobErrorCode::kInvalidRequest,
                  "a caller-owned journal sink cannot be combined with a "
                  "journal or resume path");
  }
  journal::JournalHeader header;
  header.method = request.search_method;
  header.model = request.model;
  header.platform = request.platform;
  header.scenario_kind = static_cast<int>(scenario.kind);
  // Unconstrained limits are +inf in the Scenario but 0 in the header:
  // JSON has no representation for non-finite numbers.
  header.deadline_hours =
      std::isfinite(scenario.deadline_hours) ? scenario.deadline_hours : 0.0;
  header.budget_dollars =
      std::isfinite(scenario.budget_dollars) ? scenario.budget_dollars : 0.0;
  header.seed = request.seed;
  header.max_nodes = request.max_nodes;
  header.use_spot = request.use_spot;
  header.gp_refit_every = request.gp_refit_every;
  header.catalog_hash = journal::hash_catalog(catalog);
  header.profiler_options_hash =
      profiler::hash_options(request.profiler_options);
  header.warm_start_hash = hash_warm_start(request.warm_start);
  header.fidelity_ladder_hash =
      profiler::hash_fidelity_ladder(request.profiler_options.fidelity);

  try {
    if (!request.resume_path.empty()) {
      journal::JournalContents contents =
          journal::read_journal(request.resume_path);
      const std::string diff = journal::header_diff(contents.header, header);
      if (!diff.empty()) {
        throw journal::JournalError(
            journal::JournalErrorCode::kHeaderMismatch,
            "journal '" + request.resume_path +
                "' records a different search: " + diff + " differs");
      }
      MLCD_LOG(kInfo, "mlcd")
          << "resuming from " << request.resume_path << ": "
          << contents.probes.size() << " journaled probes"
          << (contents.truncated_tail ? " (torn tail dropped)" : "");
      problem.replay = std::move(contents.probes);
      // Reopen for continuation, truncating any torn tail first.
      context->writer.emplace(journal::RunJournal::append_to(
          request.resume_path, contents.valid_bytes));
      context->resumed_from = request.resume_path;
    } else if (!request.journal_path.empty()) {
      try {
        context->writer.emplace(
            journal::RunJournal::create(request.journal_path, header));
      } catch (const journal::JournalError& e) {
        // Creation failures degrade like mid-run append failures (the
        // run simply starts journal-less); resume-side *read* failures
        // above always refuse regardless of policy.
        if (request.journal_on_error == journal::OnError::kAbort) throw;
        context->journal_create_failure = e.what();
      }
    } else if (!request.replay_records.empty()) {
      // In-memory crash re-staging: the records came from this process's
      // own captured trace (or write-ahead images), so there is no
      // header to re-verify — the request they ride in *is* the request
      // that produced them.
      MLCD_LOG(kInfo, "mlcd")
          << "re-staging from " << request.replay_records.size()
          << " in-memory probe records";
      problem.replay = std::move(context->request.replay_records);
    }
    if (context->writer) {
      problem.journal = &*context->writer;
    } else {
      problem.journal = request.journal_sink;
    }
    context->header = header;

    // Session construction performs no probes and draws nothing from
    // seeded streams — a prepared job that is never driven spends $0.
    context->session = context->searcher->start(problem);
    if (!context->journal_create_failure.empty()) {
      context->session->degrade_journal(context->journal_create_failure);
    }
  } catch (const journal::JournalError& e) {
    return reject(JobErrorCode::kJournalError, e.what());
  }
  return PrepareResult::success(PreparedJob(std::move(context)));
}

DeployResult Mlcd::deploy(const JobRequest& request) const {
  PrepareResult prepared = prepare(request);
  if (!prepared.ok()) return DeployResult::failure(prepared.error());
  try {
    search::ProbeDriver::drive(prepared.job().session());
    return prepared.job().finish();
  } catch (const journal::JournalError& e) {
    // Mid-search journal failures (append error, replay divergence) are
    // typed rejections, exactly as when they surface during prepare().
    return DeployResult::failure(
        JobError{JobErrorCode::kJournalError, e.what()});
  }
}

std::string RunReport::to_json() const {
  // Schema v4 exists only when the fidelity ladder is enabled; a
  // ladder-free run emits the exact v3 document (the golden suite pins
  // those bytes).
  const bool ladder = request.profiler_options.fidelity.enabled();
  util::JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(ladder ? kJsonSchemaVersion : 3);
  json.key("request").begin_object();
  json.key("model").value(request.model);
  json.key("platform").value(request.platform);
  json.key("method").value(request.search_method);
  json.key("max_nodes").value(request.max_nodes);
  json.key("seed").value(static_cast<std::int64_t>(request.seed));
  json.key("use_spot").value(request.use_spot);
  json.key("threads").value(request.threads);
  json.key("gp_refit_every").value(request.gp_refit_every);
  json.key("failure_rate")
      .value(request.profiler_options.faults.launch_failure_per_node);
  json.key("max_retries").value(request.profiler_options.retry.max_attempts);
  json.key("chaos_seed")
      .value(static_cast<std::int64_t>(request.profiler_options.fault_seed));
  if (ladder) {
    json.key("fidelity_rungs")
        .value(profiler::format_fidelity_rungs(
            request.profiler_options.fidelity.rungs));
    json.key("fidelity_max_bias")
        .value(request.profiler_options.fidelity.max_speed_bias);
    json.key("fidelity_max_noise")
        .value(request.profiler_options.fidelity.max_extra_noise);
  }
  json.key("journal").value(request.resume_path.empty()
                                ? request.journal_path
                                : request.resume_path);
  json.key("resumed_from").value(resumed_from);
  json.end_object();

  json.key("scenario").begin_object();
  json.key("description").value(scenario.describe());
  if (scenario.has_deadline()) {
    json.key("deadline_hours").value(scenario.deadline_hours);
  }
  if (scenario.has_budget()) {
    json.key("budget_dollars").value(scenario.budget_dollars);
  }
  json.end_object();

  json.key("result").begin_object();
  json.key("found").value(result.found);
  if (result.found) {
    json.key("deployment").value(result.best_description);
    json.key("nodes").value(result.best.nodes);
    json.key("measured_speed").value(result.best_measured_speed);
    json.key("profile_hours").value(result.profile_hours);
    json.key("profile_cost").value(result.profile_cost);
    json.key("training_hours").value(result.training_hours);
    json.key("training_cost").value(result.training_cost);
    json.key("total_hours").value(result.total_hours());
    json.key("total_cost").value(result.total_cost());
    json.key("constraints_met").value(result.meets_constraints(scenario));
  }
  json.key("probe_attempts").value(result.total_probe_attempts());
  json.key("failed_probes").value(result.failed_probe_count());
  json.key("backoff_hours").value(result.total_backoff_hours());
  json.key("replayed_probes").value(result.replayed_probes);
  json.key("probe_timeouts").value(result.probe_timeout_count());
  json.key("degraded_iterations").value(result.degraded_iterations);
  // Sparse: only a run that lost its journal mid-flight carries these
  // keys, so fault-free documents keep their pinned bytes.
  if (journal_degraded) {
    json.key("journal_degraded").value(true);
    json.key("journal_degrade_reason").value(journal_degrade_reason);
  }
  if (ladder) {
    int low = 0;
    int full = 0;
    for (const search::ProbeStep& step : result.trace) {
      (step.fidelity.is_full() ? full : low) += 1;
    }
    json.key("low_fidelity_probes").value(low);
    json.key("full_fidelity_probes").value(full);
  }
  json.key("trace").begin_array();
  for (const search::ProbeStep& step : result.trace) {
    json.begin_object();
    json.key("reason").value(step.reason);
    json.key("nodes").value(step.deployment.nodes);
    json.key("type_index")
        .value(static_cast<std::int64_t>(step.deployment.type_index));
    json.key("failed").value(step.failed);
    json.key("feasible").value(step.feasible);
    json.key("measured_speed").value(step.measured_speed);
    json.key("profile_cost").value(step.profile_cost);
    json.key("attempts").value(step.attempts);
    json.key("fault").value(std::string(cloud::fault_kind_name(step.fault)));
    json.key("backoff_hours").value(step.backoff_hours);
    json.key("replayed").value(step.replayed);
    if (ladder) {
      json.key("sample_fraction").value(step.fidelity.sample_fraction);
      json.key("iteration_tier").value(step.fidelity.iteration_tier);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();
  return json.str();
}

std::string RunReport::render() const {
  std::ostringstream out;
  out << "=== MLCD run report ===\n";
  out << "job        : " << request.model << " on " << request.platform
      << "\n";
  if (journal_degraded) {
    out << "WARNING    : journal write failed ("
        << journal_degrade_reason
        << "); run completed journal-less and is not crash-resumable\n";
  }
  out << result.summary(scenario);
  return out.str();
}

}  // namespace mlcd::system
