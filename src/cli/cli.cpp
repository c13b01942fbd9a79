#include "cli/cli.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <fstream>

#include "cli/args.hpp"
#include "cloud/catalog_io.hpp"
#include "journal/journal.hpp"
#include "search/registry.hpp"
#include "search/trace_io.hpp"
#include "cloud/instance.hpp"
#include "mlcd/mlcd.hpp"
#include "models/model_zoo.hpp"
#include "profiler/fidelity.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"
#include "util/table.hpp"

namespace mlcd::cli {
namespace {

constexpr const char* kUsage = R"(mlcd — MLaaS training deployment search (HeterBO)

usage:
  mlcd deploy --model <name> [options]   search and report a deployment
  mlcd batch <workload.json> [options]   run a multi-tenant job fleet
  mlcd compare --model <name> [options]  run every method on one job
  mlcd searchers                         list search methods for workloads
  mlcd models                            list the model zoo
  mlcd instances [--family <f>]          list the instance catalog
  mlcd export-catalog --out <file.csv>   dump the built-in catalog as CSV
  mlcd help                              this text

deploy/compare options:
  --model <name>        zoo model (see `mlcd models`)        [required]
  --platform <name>     tensorflow | mxnet                   [tensorflow]
  --budget <money>      total budget, e.g. 120 or $120
  --deadline <time>     total-time limit, e.g. 6h, 90m
  --types a,b,c         restrict instance types (default: full catalog)
  --catalog <file.csv>  load a custom instance catalog (deploy only)
  --max-nodes <n>       scale-out bound                      [50]
  --method <name>       heterbo | conv-bo | bo-improved | cherrypick |
                        cherrypick-improved | random | exhaustive |
                        paleo | pareto                       [heterbo]
  --seed <n>            RNG seed                             [1]
  --threads <n>         accepted and echoed in the report; has no
                        effect                               [1]
  --gp-refit-every <k>  retune the BO surrogates every k probes and
                        update incrementally in between (1 = retune
                        on every probe; see docs/performance.md) [1]
  --save-trace <f.csv>  persist the probe history for later warm starts
  --warm-start <f.csv>  seed the search from a saved trace (heterbo)
  --spot                buy spot capacity (cheaper, revocable)
  --trace               print the probe-by-probe search trace
  --json                emit the deploy report as JSON

multi-fidelity options (heterbo; see docs/multi-fidelity.md):
  --fidelity-rungs <s>  enable the fidelity ladder: comma-separated
                        <sample_fraction>:<iteration_tier> rungs,
                        highest fidelity first, e.g. 0.5:1,0.25:2.
                        Exploration probes run at the cheapest rung;
                        the best candidates are confirmed at full
                        fidelity before selection                [off]
  --fidelity-max-bias <p>   throughput over-estimation of a probe
                        that samples none of the dataset        [0.25]
  --fidelity-max-noise <p>  extra lognormal sigma such a probe adds
                        on top of the profiler noise            [0.06]

chaos options (fault injection; see docs/fault-model.md):
  --failure-rate <p>    per-node launch-failure probability   [0]
  --straggler-rate <p>  per-probe straggler probability       [0]
  --outage-rate <r>     capacity outages per type per 100h    [0]
  --max-retries <n>     launch attempts per probe             [3]
  --chaos-seed <n>      fault-stream seed (0 = derive)        [0]

crash-safety options (see docs/crash-safety.md):
  --journal <file>      write-ahead probe journal: every outcome is
                        checksummed and fsync'd before entering the
                        trace, so a crash never loses spend
  --resume <file>       replay a journal and continue the search
                        bit-identically (zero probes re-executed);
                        the request must match the journal's header
  --journal-on-error <p> abort = a journal *write* failure fails the
                        run with a typed journal error; degrade =
                        continue journal-less with a reported warning
                        (results stay correct, the run just stops
                        being crash-resumable). Resume-side *read*
                        failures always refuse               [abort]
  --probe-timeout <t>   per-attempt watchdog deadline, e.g. 30m: an
                        attempt running longer is killed, billed for
                        the elapsed window, and retried        [off]
  --watchdog-seconds <s> real wall-clock cap on one measurement
                        computation (hang protection)          [off]

batch options (multi-tenant scheduler; see docs/service.md):
  --threads <n>         concurrent jobs (scheduler lanes)      [1]
  --capacity <n>        global pool of concurrent simulated
                        nodes; over-capacity probes queue      [unlimited]
  --tenant-quota <n>    max concurrent jobs per tenant         [unlimited]
  --no-share            disable the cross-job probe cache
  --json                emit the BatchReport as JSON
  --out <file.json>     also write the BatchReport JSON here

durable-batch options (batch only; see docs/crash-safety.md):
  --journal-dir <dir>   make the batch durable: one group-committed
                        write-ahead log, <dir>/batch.mlcdb (dir
                        created if missing), holds every job's
                        records, so a killed batch can be resumed
  --resume              (with --journal-dir) resume the recorded batch:
                        finished jobs replay their reports from the
                        log bit-identically with zero probes
                        re-executed, in-flight jobs continue where
                        they stopped, never-started jobs run fresh
  --journal-on-error <p> abort | degrade — what a batch-log *write*
                        failure does (see deploy)              [abort]

batch exit codes:
  0  every job succeeded within its SLO
  1  one or more jobs failed (unknown model/method, bad request)
  2  usage error (bad flags, admission refused)
  3  workload file unreadable or malformed
  4  journal error: batch log unreadable, mismatched or of an older
     version on resume, a write failure under --journal-on-error
     abort, or a replayed report diverging from its recorded digest
  5  every job produced a report but at least one was finalized
     early over its SLO ("slo_exceeded")
  6  one or more jobs died on an internal error
  When several apply, 4 beats 6 beats 1 beats 5.

service-level chaos (batch only; overrides the workload's "chaos"
object per flag — see docs/chaos.md):
  --chaos-seed <n>          fault-schedule seed (recorded in the
                            BatchReport; same seed = same faults)
  --chaos-lane-crash-rate <p>   per-step lane-crash hazard      [0]
  --chaos-revocation-rate <p>   per-step spot-revocation hazard [0]
  --chaos-probe-loss-rate <p>   per-step result-loss hazard     [0]
  --chaos-stall-rate <p>        per-step scheduler-stall hazard [0]
)";

int usage_error(std::ostream& err, const std::string& message) {
  err << "mlcd: " << message << "\n" << kUsage;
  return 2;
}

/// The options each subcommand reads (--help aside). Any other option is
/// a usage error, so a typo'd option fails loudly instead of silently
/// running with the default it meant to override.
const std::map<std::string, std::vector<std::string>>& command_options() {
  // request_from() reads these for both deploy and compare.
  static const std::vector<std::string> kRequest = {
      "model", "platform", "budget", "deadline", "types", "spot",
      "max-nodes", "method", "seed", "threads", "gp-refit-every",
      "failure-rate", "fidelity-rungs", "fidelity-max-bias",
      "fidelity-max-noise", "straggler-rate", "outage-rate", "max-retries",
      "chaos-seed", "journal", "resume", "journal-on-error",
      "probe-timeout", "watchdog-seconds"};
  static const std::map<std::string, std::vector<std::string>> kOptions = [] {
    std::vector<std::string> deploy = kRequest;
    deploy.insert(deploy.end(),
                  {"catalog", "save-trace", "warm-start", "trace", "json"});
    return std::map<std::string, std::vector<std::string>>{
        {"deploy", deploy},
        {"compare", kRequest},
        {"batch",
         {"threads", "capacity", "tenant-quota", "no-share", "json", "out",
          "journal-dir", "resume", "journal-on-error", "chaos-seed",
          "chaos-lane-crash-rate", "chaos-revocation-rate",
          "chaos-probe-loss-rate", "chaos-stall-rate"}},
        {"searchers", {}},
        {"models", {}},
        {"instances", {"family"}},
        {"export-catalog", {"out"}},
    };
  }();
  return kOptions;
}

journal::OnError parse_journal_on_error(const Args& args) {
  const std::string policy = args.get_or("journal-on-error", "abort");
  if (policy == "abort") return journal::OnError::kAbort;
  if (policy == "degrade") return journal::OnError::kDegrade;
  throw std::invalid_argument("--journal-on-error must be 'abort' or "
                              "'degrade' (got '" + policy + "')");
}

system::JobRequest request_from(const Args& args) {
  system::JobRequest job;
  const auto model = args.get("model");
  if (!model) {
    throw std::invalid_argument("--model is required");
  }
  job.model = *model;
  job.platform = args.get_or("platform", "tensorflow");
  if (const auto budget = args.get("budget")) {
    job.requirements.budget_dollars = parse_money(*budget);
  }
  if (const auto deadline = args.get("deadline")) {
    job.requirements.deadline_hours = parse_duration_hours(*deadline);
  }
  if (const auto types = args.get("types")) {
    job.instance_types = parse_list(*types);
  }
  job.use_spot = args.has("spot");
  job.max_nodes = parse_positive_int(args.get_or("max-nodes", "50"));
  job.search_method = args.get_or("method", "heterbo");
  job.seed = static_cast<std::uint64_t>(
      parse_positive_int(args.get_or("seed", "1")));
  job.threads = parse_positive_int(args.get_or("threads", "1"));
  job.gp_refit_every =
      parse_positive_int(args.get_or("gp-refit-every", "1"));
  if (const auto rate = args.get("failure-rate")) {
    job.profiler_options.faults.launch_failure_per_node =
        parse_fraction(*rate);
  }
  if (const auto rungs = args.get("fidelity-rungs")) {
    job.profiler_options.fidelity.rungs =
        profiler::parse_fidelity_rungs(*rungs);
  }
  if (const auto bias = args.get("fidelity-max-bias")) {
    job.profiler_options.fidelity.max_speed_bias = parse_fraction(*bias);
  }
  if (const auto noise = args.get("fidelity-max-noise")) {
    job.profiler_options.fidelity.max_extra_noise = parse_fraction(*noise);
  }
  if (const auto rate = args.get("straggler-rate")) {
    job.profiler_options.faults.straggler_rate = parse_fraction(*rate);
  }
  if (const auto rate = args.get("outage-rate")) {
    // Reuses the money parser: a plain positive decimal.
    job.profiler_options.faults.outage_episodes_per_100h =
        parse_money(*rate);
  }
  if (const auto retries = args.get("max-retries")) {
    job.profiler_options.retry.max_attempts = parse_positive_int(*retries);
  }
  if (const auto chaos = args.get("chaos-seed")) {
    job.profiler_options.fault_seed = static_cast<std::uint64_t>(
        parse_positive_int(*chaos));
  }
  if (const auto journal = args.get("journal")) {
    job.journal_path = *journal;
  }
  if (const auto resume = args.get("resume")) {
    job.resume_path = *resume;
  }
  job.journal_on_error = parse_journal_on_error(args);
  if (const auto timeout = args.get("probe-timeout")) {
    job.profiler_options.probe_attempt_timeout_hours =
        parse_duration_hours(*timeout);
  }
  if (const auto watchdog = args.get("watchdog-seconds")) {
    // Reuses the money parser: a plain positive decimal.
    job.profiler_options.watchdog_wall_seconds = parse_money(*watchdog);
  }
  return job;
}

void print_trace(std::ostream& out, const system::RunReport& report) {
  util::TablePrinter table({"step", "why", "nodes", "type index",
                            "speed (samples/s)", "cum profile ($)"});
  int step = 1;
  for (const search::ProbeStep& s : report.result.trace) {
    table.add_row({std::to_string(step++), s.reason,
                   std::to_string(s.deployment.nodes),
                   std::to_string(s.deployment.type_index),
                   s.feasible ? util::fmt_fixed(s.measured_speed, 1)
                              : "infeasible",
                   util::fmt_fixed(s.cum_profile_cost, 2)});
  }
  out << "\nsearch trace:\n" << table.render();
}

int cmd_deploy(const Args& args, std::ostream& out, std::ostream& err) {
  try {
    std::unique_ptr<system::SimulatedCloud> custom_cloud;
    std::unique_ptr<system::Mlcd> mlcd;
    if (const auto catalog_path = args.get("catalog")) {
      custom_cloud = std::make_unique<system::SimulatedCloud>(
          cloud::load_catalog_csv(*catalog_path), perf::PerfModelOptions{});
      mlcd = std::make_unique<system::Mlcd>(*custom_cloud,
                                            models::paper_zoo());
    } else {
      mlcd = std::make_unique<system::Mlcd>();
    }
    system::JobRequest job = request_from(args);
    // The catalog view the search will actually run on: traces are keyed
    // by instance name, but warm-start points carry *indices* into this
    // view, so both load and save must resolve against it.
    std::optional<cloud::InstanceCatalog> restricted;
    if (!job.instance_types.empty()) {
      restricted = mlcd->cloud().catalog().subset(job.instance_types);
    }
    const cloud::InstanceCatalog& view =
        restricted ? *restricted : mlcd->cloud().catalog();
    if (const auto warm = args.get("warm-start")) {
      job.warm_start = search::load_warm_start_csv(*warm, view);
    }
    const system::DeployResult outcome = mlcd->deploy(job);
    if (!outcome) {
      return usage_error(err, outcome.error().message);
    }
    const system::RunReport& report = outcome.report();
    if (const auto save = args.get("save-trace")) {
      const cloud::DeploymentSpace space(
          view, job.max_nodes,
          job.use_spot ? cloud::Market::kSpot : cloud::Market::kOnDemand);
      search::save_trace_csv(*save, report.result, space);
    }
    if (args.has("json")) {
      out << report.to_json() << "\n";
    } else {
      out << report.render();
      if (args.has("trace")) print_trace(out, report);
    }
    return report.result.found ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage_error(err, e.what());
  }
}

int cmd_compare(const Args& args, std::ostream& out, std::ostream& err) {
  try {
    const system::Mlcd mlcd;
    system::JobRequest job = request_from(args);

    util::TablePrinter table({"method", "best", "probes", "profile ($)",
                              "total (h)", "total ($)", "constraints"});
    bool any_found = false;
    for (const char* method :
         {"heterbo", "conv-bo", "bo-improved", "cherrypick",
          "cherrypick-improved", "random", "paleo", "pareto"}) {
      job.search_method = method;
      const system::DeployResult outcome = mlcd.deploy(job);
      if (!outcome) {
        return usage_error(err, outcome.error().message);
      }
      const system::RunReport& report = outcome.report();
      const search::SearchResult& r = report.result;
      any_found = any_found || r.found;
      table.add_row(
          {method, r.found ? r.best_description : "(none)",
           std::to_string(r.trace.size()),
           util::fmt_fixed(r.profile_cost, 2),
           r.found ? util::fmt_fixed(r.total_hours(), 2) : "-",
           r.found ? util::fmt_fixed(r.total_cost(), 2) : "-",
           r.meets_constraints(report.scenario) ? "met" : "VIOLATED"});
    }
    out << table.render();
    return any_found ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage_error(err, e.what());
  }
}

int cmd_batch(const Args& args, std::ostream& out, std::ostream& err) {
  try {
    const std::vector<std::string>& positional = args.positional();
    if (positional.size() < 2) {
      return usage_error(err, "batch needs a workload file: "
                              "mlcd batch <workload.json>");
    }
    service::Workload workload;
    try {
      workload = service::load_workload(positional[1]);
    } catch (const std::exception& e) {
      // Exit 3: the workload file itself is unreadable or malformed —
      // distinct from flag mistakes (2) so fleet scripts can tell a
      // broken deployment artifact from a broken invocation.
      err << "mlcd: " << e.what() << "\n";
      return 3;
    }
    // CLI chaos knobs override the workload's "chaos" object per flag,
    // so a committed fleet file can be re-run under a different fault
    // schedule without editing it.
    if (const auto seed = args.get("chaos-seed")) {
      workload.chaos.seed =
          static_cast<std::uint64_t>(parse_positive_int(*seed));
    }
    if (const auto rate = args.get("chaos-lane-crash-rate")) {
      workload.chaos.lane_crash_rate = parse_fraction(*rate);
    }
    if (const auto rate = args.get("chaos-revocation-rate")) {
      workload.chaos.revocation_rate = parse_fraction(*rate);
    }
    if (const auto rate = args.get("chaos-probe-loss-rate")) {
      workload.chaos.probe_loss_rate = parse_fraction(*rate);
    }
    if (const auto rate = args.get("chaos-stall-rate")) {
      workload.chaos.stall_rate = parse_fraction(*rate);
    }

    service::SchedulerOptions options;
    options.threads = parse_positive_int(args.get_or("threads", "1"));
    if (const auto capacity = args.get("capacity")) {
      options.capacity_nodes = parse_positive_int(*capacity);
    }
    if (const auto quota = args.get("tenant-quota")) {
      options.tenant_max_jobs = parse_positive_int(*quota);
    }
    options.share_probes = !args.has("no-share");
    if (const auto dir = args.get("journal-dir")) {
      options.journal_dir = *dir;
    }
    options.resume = args.has("resume");
    if (options.resume && options.journal_dir.empty()) {
      return usage_error(err,
                         "batch --resume requires --journal-dir (the "
                         "batch log batch.mlcdb to resume from lives "
                         "there)");
    }
    options.journal_on_error = parse_journal_on_error(args);

    const system::Mlcd mlcd;
    const service::Scheduler scheduler(mlcd, options);
    service::BatchReport report;
    try {
      report = scheduler.run(workload);
    } catch (const journal::JournalError& e) {
      // Exit 4: batch-level journal failures — an unreadable or
      // mismatched batch log (batch.mlcdb) on resume, or a batch-log
      // write failure under the abort policy.
      err << "mlcd: " << e.what() << "\n";
      return 4;
    }
    if (const auto path = args.get("out")) {
      std::ofstream file(*path, std::ios::binary | std::ios::trunc);
      if (!file) {
        err << "mlcd: cannot write '" << *path << "'\n";
        return 2;
      }
      file << report.to_json() << "\n";
    }
    if (args.has("json")) {
      out << report.to_json() << "\n";
    } else {
      out << report.render();
    }
    return batch_exit_code(report);
  } catch (const std::invalid_argument& e) {
    return usage_error(err, e.what());
  }
}

int cmd_searchers(std::ostream& out) {
  util::TablePrinter table({"method", "description"});
  for (const search::SearcherRegistry::Entry& entry :
       search::SearcherRegistry::instance().entries()) {
    table.add_row({entry.name, entry.description});
  }
  out << table.render();
  return 0;
}

int cmd_models(std::ostream& out) {
  util::TablePrinter table({"model", "kind", "params", "GFLOPs/sample",
                            "dataset", "job size (samples)"});
  for (const models::ModelSpec& m : models::paper_zoo().models()) {
    table.add_row({m.name, std::string(models::model_kind_name(m.kind)),
                   util::fmt_fixed(m.params / 1e6, 1) + "M",
                   util::fmt_fixed(m.flops_per_sample / 1e9, 1),
                   m.dataset, util::fmt_fixed(m.samples_to_train, 0)});
  }
  out << table.render();
  return 0;
}

int cmd_instances(const Args& args, std::ostream& out) {
  const auto family = args.get("family");
  util::TablePrinter table({"instance", "family", "device", "vCPUs",
                            "GPUs", "mem (GiB)", "net (Gbps)", "$/h"});
  for (const cloud::InstanceSpec& s : cloud::aws_catalog().all()) {
    if (family && s.family != *family) continue;
    table.add_row({s.name, s.family,
                   std::string(cloud::device_kind_name(s.device)),
                   std::to_string(s.vcpus), std::to_string(s.gpus),
                   util::fmt_fixed(s.mem_gib, 1),
                   util::fmt_fixed(s.network_gbps, 1),
                   util::fmt_fixed(s.price_per_hour, 3)});
  }
  out << table.render();
  return 0;
}

}  // namespace

int batch_exit_code(const service::BatchReport& report) {
  bool journal_error = false;
  bool internal = false;
  bool failed = false;
  for (const service::JobOutcome& job : report.jobs) {
    if (job.ok) continue;
    failed = true;
    if (job.error_code == "journal_error") journal_error = true;
    if (job.error_code == "internal") internal = true;
  }
  if (journal_error) return 4;
  if (internal) return 6;
  if (failed) return 1;
  if (report.slo_exceeded_count() > 0) return 5;
  return 0;
}

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  Args args;
  try {
    std::vector<std::string> flags = {"trace", "help", "json", "spot",
                                      "no-share"};
    // In batch mode --resume is a flag (the batch log batch.mlcdb under
    // --journal-dir names the batch); in deploy mode it takes the
    // journal file to resume from.
    if (argc > 1 && std::string(argv[1]) == "batch") {
      flags.push_back("resume");
    }
    args = Args::parse(argc, argv, flags);
  } catch (const std::invalid_argument& e) {
    return usage_error(err, e.what());
  }

  const std::vector<std::string>& positional = args.positional();
  const std::string command =
      positional.empty() ? "help" : positional.front();

  if (command == "help" || args.has("help")) {
    out << kUsage;
    return 0;
  }
  const auto accepted = command_options().find(command);
  if (accepted == command_options().end()) {
    return usage_error(err, "unknown command '" + command + "'");
  }
  for (const std::string& name : args.names()) {
    if (std::find(accepted->second.begin(), accepted->second.end(), name) ==
        accepted->second.end()) {
      return usage_error(err, "unknown option --" + name + " for '" +
                                  command + "'");
    }
  }
  // Likewise for words after the command: batch takes one (its
  // workload file), every other command none.
  const std::size_t max_words = command == "batch" ? 2 : 1;
  if (positional.size() > max_words) {
    return usage_error(err, "unexpected argument '" +
                                positional[max_words] + "' for '" +
                                command + "'");
  }
  if (command == "deploy") return cmd_deploy(args, out, err);
  if (command == "batch") return cmd_batch(args, out, err);
  if (command == "compare") return cmd_compare(args, out, err);
  if (command == "searchers") return cmd_searchers(out);
  if (command == "models") return cmd_models(out);
  if (command == "instances") return cmd_instances(args, out);
  // export-catalog: the last command command_options() admits.
  const auto path = args.get("out");
  if (!path) return usage_error(err, "--out is required");
  cloud::save_catalog_csv(cloud::aws_catalog(), *path);
  out << "wrote " << cloud::aws_catalog().size() << " instance types to "
      << *path << "\n";
  return 0;
}

}  // namespace mlcd::cli
