// Unit tests for src/cli: argument parsing, value parsers and the
// in-process command driver.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli/args.hpp"
#include "cli/cli.hpp"
#include "service/batch_report.hpp"

namespace mlcd::cli {
namespace {

Args parse(std::vector<const char*> argv,
           const std::vector<std::string>& flags = {}) {
  argv.insert(argv.begin(), "mlcd");
  return Args::parse(static_cast<int>(argv.size()), argv.data(), flags);
}

// ------------------------------------------------------------------- Args

TEST(Args, InlineAndSeparateValues) {
  const Args a = parse({"deploy", "--model=resnet", "--budget", "100"});
  EXPECT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "deploy");
  EXPECT_EQ(a.get("model").value(), "resnet");
  EXPECT_EQ(a.get("budget").value(), "100");
}

TEST(Args, FlagsTakeNoValue) {
  const Args a = parse({"deploy", "--trace", "--model", "bert"},
                       {"trace"});
  EXPECT_TRUE(a.has("trace"));
  EXPECT_EQ(a.get("model").value(), "bert");
}

TEST(Args, MissingValueThrows) {
  EXPECT_THROW(parse({"--model"}), std::invalid_argument);
}

TEST(Args, BareDashesThrow) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Args, GetOrFallsBack) {
  const Args a = parse({});
  EXPECT_EQ(a.get_or("platform", "tensorflow"), "tensorflow");
  EXPECT_FALSE(a.get("platform").has_value());
}

TEST(Args, NamesListsOptions) {
  const Args a = parse({"--alpha=1", "--beta=2"});
  const auto names = a.names();
  EXPECT_EQ(names.size(), 2u);
}

// ------------------------------------------------------------- value parse

TEST(ValueParse, Durations) {
  EXPECT_DOUBLE_EQ(parse_duration_hours("6h"), 6.0);
  EXPECT_DOUBLE_EQ(parse_duration_hours("90m"), 1.5);
  EXPECT_DOUBLE_EQ(parse_duration_hours("45s"), 45.0 / 3600.0);
  EXPECT_DOUBLE_EQ(parse_duration_hours("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_duration_hours("1.5H"), 1.5);
}

TEST(ValueParse, DurationErrors) {
  EXPECT_THROW(parse_duration_hours(""), std::invalid_argument);
  EXPECT_THROW(parse_duration_hours("abc"), std::invalid_argument);
  EXPECT_THROW(parse_duration_hours("-5h"), std::invalid_argument);
  EXPECT_THROW(parse_duration_hours("5h30m"), std::invalid_argument);
}

TEST(ValueParse, Money) {
  EXPECT_DOUBLE_EQ(parse_money("$120"), 120.0);
  EXPECT_DOUBLE_EQ(parse_money("99.50"), 99.5);
  EXPECT_THROW(parse_money("$"), std::invalid_argument);
  EXPECT_THROW(parse_money("-3"), std::invalid_argument);
  EXPECT_THROW(parse_money(""), std::invalid_argument);
}

TEST(ValueParse, Lists) {
  const auto v = parse_list("a,b,c");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], "b");
  EXPECT_TRUE(parse_list("").empty());
  EXPECT_EQ(parse_list("one").size(), 1u);
  EXPECT_EQ(parse_list("a,,b").size(), 2u);  // empty segment dropped
}

TEST(ValueParse, PositiveInt) {
  EXPECT_EQ(parse_positive_int("42"), 42);
  EXPECT_THROW(parse_positive_int("0"), std::invalid_argument);
  EXPECT_THROW(parse_positive_int("3.5"), std::invalid_argument);
  EXPECT_THROW(parse_positive_int("x"), std::invalid_argument);
}

TEST(ValueParse, Fractions) {
  EXPECT_DOUBLE_EQ(parse_fraction("0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_fraction("0.3"), 0.3);
  EXPECT_THROW(parse_fraction("1"), std::invalid_argument);
  EXPECT_THROW(parse_fraction("1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fraction("-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fraction(""), std::invalid_argument);
  EXPECT_THROW(parse_fraction("half"), std::invalid_argument);
  // NaN compares false to every bound, so a naive range check would let
  // it through; the parser must reject it explicitly.
  EXPECT_THROW(parse_fraction("nan"), std::invalid_argument);
}

TEST(ValueParse, RejectsNonFiniteAndOverflowingNumbers) {
  EXPECT_THROW(parse_money("nan"), std::invalid_argument);
  EXPECT_THROW(parse_money("inf"), std::invalid_argument);
  EXPECT_THROW(parse_money("1e999"), std::invalid_argument);
  EXPECT_THROW(parse_duration_hours("nan"), std::invalid_argument);
  EXPECT_THROW(parse_duration_hours("inf"), std::invalid_argument);
  EXPECT_THROW(parse_positive_int("99999999999999999999"),
               std::invalid_argument);
}

// -------------------------------------------------------------------- run

int drive(std::vector<const char*> argv, std::string* out_text = nullptr,
          std::string* err_text = nullptr) {
  argv.insert(argv.begin(), "mlcd");
  std::ostringstream out, err;
  const int rc =
      run(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

TEST(CliRun, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(drive({"help"}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(CliRun, NoArgsIsHelp) {
  std::string out;
  EXPECT_EQ(drive({}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(CliRun, UnknownCommandIsUsageError) {
  // The removed regression checker's name is refused like any other.
  for (const char* command : {"frobnicate", "perfcheck"}) {
    std::string err;
    EXPECT_EQ(drive({command}, nullptr, &err), 2) << command;
    EXPECT_NE(err.find("unknown command '" + std::string(command) + "'"),
              std::string::npos)
        << err;
  }
}

TEST(CliRun, UnknownOptionIsUsageError) {
  // A typo'd option must not silently run with the default it meant to
  // override (here: an unlimited capacity pool), and --scheduler no
  // longer exists. Both are refused before the workload file is read.
  const struct {
    std::vector<const char*> argv;
    std::string option;
  } cases[] = {
      {{"batch", "w.json", "--capacty", "8"}, "--capacty"},
      {{"batch", "w.json", "--scheduler", "job"}, "--scheduler"},
      {{"deploy", "--model", "resnet", "--budjet", "100"}, "--budjet"},
      {{"models", "--json"}, "--json"},  // valid for deploy, not models
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_EQ(drive(c.argv, nullptr, &err), 2) << c.option;
    EXPECT_NE(err.find("unknown option " + c.option), std::string::npos)
        << err;
  }
}

TEST(CliRun, UnexpectedArgumentIsUsageError) {
  // A stray word must not be silently ignored: batch takes exactly one
  // (the workload file), every other command none. Refused before any
  // file is read or any check runs.
  const struct {
    std::vector<const char*> argv;
    std::string word;
  } cases[] = {
      {{"models", "extra"}, "extra"},
      {{"batch", "w.json", "x.json"}, "x.json"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_EQ(drive(c.argv, nullptr, &err), 2) << c.word;
    EXPECT_NE(err.find("unexpected argument '" + c.word + "'"),
              std::string::npos)
        << err;
  }
}

TEST(CliRun, DeployRequiresModel) {
  std::string err;
  EXPECT_EQ(drive({"deploy"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--model"), std::string::npos);
}

TEST(CliRun, DeployEndToEnd) {
  std::string out;
  const int rc = drive({"deploy", "--model", "resnet", "--budget", "$100",
                        "--types", "c5.4xlarge", "--seed", "7"},
                       &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("MLCD run report"), std::string::npos);
  EXPECT_NE(out.find("constraints met"), std::string::npos);
}

TEST(CliRun, DeployWithTracePrintsSteps) {
  std::string out;
  const int rc = drive({"deploy", "--model", "resnet", "--types",
                        "c5.4xlarge", "--trace"},
                       &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("search trace"), std::string::npos);
  EXPECT_NE(out.find("init"), std::string::npos);
}

TEST(CliRun, DeployUnknownModelIsUsageError) {
  std::string err;
  EXPECT_EQ(drive({"deploy", "--model", "vgg"}, nullptr, &err), 2);
}

TEST(CliRun, DeployBadBudgetIsUsageError) {
  std::string err;
  EXPECT_EQ(drive({"deploy", "--model", "resnet", "--budget", "lots"},
                  nullptr, &err),
            2);
}

TEST(CliRun, DeployJsonMode) {
  std::string out;
  const int rc = drive({"deploy", "--model", "resnet", "--types",
                        "c5.4xlarge", "--budget", "100", "--json"},
                       &out);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"constraints_met\":true"), std::string::npos);
  EXPECT_EQ(out.find("MLCD run report"), std::string::npos);
}

TEST(CliRun, ModelsListsZoo) {
  std::string out;
  EXPECT_EQ(drive({"models"}, &out), 0);
  EXPECT_NE(out.find("resnet"), std::string::npos);
  EXPECT_NE(out.find("bert"), std::string::npos);
}

TEST(CliRun, InstancesFilterByFamily) {
  std::string out;
  EXPECT_EQ(drive({"instances", "--family", "p3"}, &out), 0);
  EXPECT_NE(out.find("p3.2xlarge"), std::string::npos);
  EXPECT_EQ(out.find("c5.xlarge"), std::string::npos);
}

TEST(CliRun, ExportAndLoadCustomCatalog) {
  const std::string path = testing::TempDir() + "/mlcd_cli_catalog.csv";
  std::string out;
  ASSERT_EQ(drive({"export-catalog", "--out", path.c_str()}, &out), 0);
  EXPECT_NE(out.find("62 instance types"), std::string::npos);

  // Deploying against the exported catalog behaves like the default.
  std::string deploy_out;
  const int rc = drive({"deploy", "--model", "resnet", "--types",
                        "c5.4xlarge", "--catalog", path.c_str(), "--seed",
                        "7"},
                       &deploy_out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(deploy_out.find("c5.4xlarge"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CliRun, ExportCatalogRequiresOut) {
  std::string err;
  EXPECT_EQ(drive({"export-catalog"}, nullptr, &err), 2);
}

TEST(CliRun, SaveAndWarmStartFlow) {
  const std::string path = testing::TempDir() + "/mlcd_cli_trace.csv";
  std::string out;
  ASSERT_EQ(drive({"deploy", "--model", "resnet", "--types", "c5.4xlarge",
                   "--save-trace", path.c_str()},
                  &out),
            0);
  std::string warm_out;
  const int rc = drive({"deploy", "--model", "resnet", "--types",
                        "c5.4xlarge", "--warm-start", path.c_str(),
                        "--trace", "--seed", "11"},
                       &warm_out);
  EXPECT_EQ(rc, 0);
  // Warm-started runs skip the mandatory init/curve waves.
  EXPECT_EQ(warm_out.find(" init "), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CliRun, ChaosFlagsRoundTripIntoJson) {
  std::string out;
  const int rc = drive({"deploy", "--model", "resnet", "--types",
                        "c5.4xlarge", "--budget", "100", "--seed", "7",
                        "--failure-rate", "0.25", "--max-retries", "4",
                        "--chaos-seed", "99", "--json"},
                       &out);
  EXPECT_EQ(rc, 0);
  // The request echoes the chaos knobs...
  EXPECT_NE(out.find("\"failure_rate\":0.25"), std::string::npos);
  EXPECT_NE(out.find("\"max_retries\":4"), std::string::npos);
  EXPECT_NE(out.find("\"chaos_seed\":99"), std::string::npos);
  // ...and the result carries per-run and per-step fault accounting.
  EXPECT_NE(out.find("\"probe_attempts\":"), std::string::npos);
  EXPECT_NE(out.find("\"failed_probes\":"), std::string::npos);
  EXPECT_NE(out.find("\"backoff_hours\":"), std::string::npos);
  EXPECT_NE(out.find("\"fault\":"), std::string::npos);
}

TEST(CliRun, ChaosFlagsRejectGarbage) {
  std::string err;
  EXPECT_EQ(drive({"deploy", "--model", "resnet", "--types", "c5.4xlarge",
                   "--failure-rate", "1.5"},
                  nullptr, &err),
            2);
  EXPECT_NE(err.find("parse_fraction"), std::string::npos);
  EXPECT_EQ(drive({"deploy", "--model", "resnet", "--types", "c5.4xlarge",
                   "--max-retries", "0"},
                  nullptr, &err),
            2);
}

TEST(CliRun, CompareRunsAllMethods) {
  std::string out;
  const int rc = drive({"compare", "--model", "resnet", "--types",
                        "c5.4xlarge", "--budget", "120", "--max-nodes",
                        "20"},
                       &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("heterbo"), std::string::npos);
  EXPECT_NE(out.find("conv-bo"), std::string::npos);
  EXPECT_NE(out.find("paleo"), std::string::npos);
}

TEST(CliRun, SearchersListsRegistryWithDescriptions) {
  std::string out;
  EXPECT_EQ(drive({"searchers"}, &out), 0);
  // Every built-in method, each with its one-line description.
  for (const char* method :
       {"heterbo", "conv-bo", "bo-improved", "cherrypick",
        "cherrypick-improved", "random", "exhaustive", "paleo", "pareto"}) {
    EXPECT_NE(out.find(method), std::string::npos) << method;
  }
  EXPECT_NE(out.find("description"), std::string::npos);
  EXPECT_NE(out.find("protective reserve"), std::string::npos);
  EXPECT_NE(out.find("Pareto front"), std::string::npos);
}

TEST(CliRun, BatchRequiresWorkloadFile) {
  std::string err;
  EXPECT_EQ(drive({"batch"}, nullptr, &err), 2);
  EXPECT_NE(err.find("workload"), std::string::npos);
}

TEST(CliRun, BatchMissingFileFailsWithWorkloadExitCode) {
  std::string err;
  // Exit 3: broken workload artifact, distinct from flag mistakes (2).
  EXPECT_EQ(drive({"batch", "/no/such/workload.json"}, nullptr, &err), 3);
  EXPECT_NE(err.find("cannot read"), std::string::npos);
}

TEST(CliRun, BatchMalformedWorkloadIsExitCode3) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string workload = (tmp / "mlcd_cli_batch_malformed.json").string();
  {
    std::ofstream f(workload);
    f << "{\"jobs\": [{\"name\": ";  // truncated JSON
  }
  std::string err;
  EXPECT_EQ(drive({"batch", workload.c_str()}, nullptr, &err), 3);
  EXPECT_NE(err.find("workload"), std::string::npos);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchEndToEnd) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string workload = (tmp / "mlcd_cli_batch.json").string();
  const std::string report_out = (tmp / "mlcd_cli_batch_out.json").string();
  {
    std::ofstream f(workload);
    f << R"({"jobs": [
      {"name": "a", "tenant": "t1", "model": "resnet",
       "deadline_hours": 24, "seed": 7, "max_nodes": 8},
      {"name": "b", "tenant": "t2", "model": "resnet",
       "deadline_hours": 30, "seed": 7, "max_nodes": 8}
    ]})";
  }
  std::string out;
  const int rc = drive({"batch", workload.c_str(), "--threads", "2",
                        "--capacity", "16", "--tenant-quota", "1", "--json",
                        "--out", report_out.c_str()},
                       &out);
  EXPECT_EQ(rc, 0);
  // The batch document is schema v5; the embedded (ladder-free)
  // RunReports keep their own v3 version key.
  EXPECT_NE(out.find("\"schema_version\":6"), std::string::npos);
  EXPECT_NE(out.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(out.find("\"resumed_jobs\":0"), std::string::npos);
  EXPECT_NE(out.find("\"replayed_reports\":0"), std::string::npos);
  EXPECT_NE(out.find("\"probe_granularity\":true"), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"b\""), std::string::npos);
  // --out writes the same document.
  std::ifstream in(report_out, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), out);
  std::remove(workload.c_str());
  std::remove(report_out.c_str());
}

TEST(CliRun, BatchChaosKnobsOverrideWorkload) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string workload = (tmp / "mlcd_cli_batch_chaos.json").string();
  {
    std::ofstream f(workload);
    // The workload declares a chaotic environment; the CLI overrides
    // the seed and adds a stall hazard per flag.
    f << R"({"jobs": [
      {"name": "a", "tenant": "t1", "model": "resnet",
       "deadline_hours": 24, "seed": 7, "max_nodes": 8}
    ],
    "chaos": {"seed": 3, "probe_loss_rate": 1.0}})";
  }
  std::string out;
  const int rc = drive({"batch", workload.c_str(), "--threads", "2",
                        "--chaos-seed", "11", "--chaos-stall-rate", "0.5",
                        "--json"},
                       &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("\"chaos_seed\":11"), std::string::npos);
  EXPECT_NE(out.find("\"probe_loss_rate\":1"), std::string::npos);
  EXPECT_NE(out.find("\"stall_rate\":0.5"), std::string::npos);
  // Every live probe's result envelope was lost and recovered from its
  // write-ahead record image.
  EXPECT_EQ(out.find("\"probe_losses\":0"), std::string::npos);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchRejectsOutOfRangeChaosRate) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string workload = (tmp / "mlcd_cli_batch_badrate.json").string();
  {
    std::ofstream f(workload);
    f << R"({"jobs": [{"name": "a", "model": "resnet", "max_nodes": 8}]})";
  }
  std::string err;
  EXPECT_EQ(drive({"batch", workload.c_str(), "--chaos-lane-crash-rate",
                   "1.5"},
                  nullptr, &err),
            2);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchRefusesOverCapacityWorkload) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string workload = (tmp / "mlcd_cli_batch_cap.json").string();
  {
    std::ofstream f(workload);
    f << R"({"jobs": [{"name": "a", "model": "resnet", "max_nodes": 50}]})";
  }
  std::string err;
  EXPECT_EQ(drive({"batch", workload.c_str(), "--capacity", "10"}, nullptr,
                  &err),
            2);
  EXPECT_NE(err.find("admission refused"), std::string::npos);
  std::remove(workload.c_str());
}

// ---------------------------------------------------- batch exit codes

namespace {

/// Writes a one-job workload file and returns its path.
std::string write_workload(const std::string& name, const char* json) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string path = (tmp / name).string();
  std::ofstream f(path);
  f << json;
  return path;
}

}  // namespace

TEST(CliRun, BatchJobFailureIsExitCode1) {
  const std::string workload = write_workload(
      "mlcd_cli_exit1.json",
      R"({"jobs": [{"name": "a", "model": "no_such_model",
                    "max_nodes": 8}]})");
  EXPECT_EQ(drive({"batch", workload.c_str()}), 1);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchPerJobJournalErrorIsExitCode4) {
  // A job whose declared journal cannot be created fails typed under
  // the (default) abort policy, and the journal error outranks the
  // plain-failure exit code.
  const std::string workload = write_workload(
      "mlcd_cli_exit4.json",
      R"({"jobs": [{"name": "a", "model": "resnet", "max_nodes": 8,
                    "journal": "/no/such/dir/a.mlcdj"}]})");
  std::string out;
  EXPECT_EQ(drive({"batch", workload.c_str(), "--json"}, &out), 4);
  EXPECT_NE(out.find("\"code\":\"journal_error\""), std::string::npos);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchUnreadableManifestOnResumeIsExitCode4) {
  const std::string workload = write_workload(
      "mlcd_cli_exit4b.json",
      R"({"jobs": [{"name": "a", "model": "resnet", "max_nodes": 8}]})");
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string dir = (tmp / "mlcd_cli_exit4b_nodir").string();
  std::filesystem::remove_all(dir);
  // --resume with no manifest on disk: a batch-level journal read error.
  std::string err;
  EXPECT_EQ(drive({"batch", workload.c_str(), "--journal-dir", dir.c_str(),
                   "--resume"},
                  nullptr, &err),
            4);
  std::filesystem::remove_all(dir);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchSloBreachIsExitCode5) {
  const std::string workload = write_workload(
      "mlcd_cli_exit5.json",
      R"({"jobs": [{"name": "a", "model": "resnet", "max_nodes": 8,
                    "slo_max_probes": 3}]})");
  std::string out;
  EXPECT_EQ(drive({"batch", workload.c_str(), "--json"}, &out), 5);
  EXPECT_NE(out.find("\"code\":\"slo_exceeded\""), std::string::npos);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchResumeWithoutJournalDirIsUsageError) {
  const std::string workload = write_workload(
      "mlcd_cli_resume_nodir.json",
      R"({"jobs": [{"name": "a", "model": "resnet", "max_nodes": 8}]})");
  std::string err;
  EXPECT_EQ(drive({"batch", workload.c_str(), "--resume"}, nullptr, &err),
            2);
  EXPECT_NE(err.find("--journal-dir"), std::string::npos);
  EXPECT_NE(err.find("batch.mlcdb"), std::string::npos) << err;
  std::remove(workload.c_str());
}

TEST(CliRun, BatchBadJournalOnErrorPolicyIsUsageError) {
  const std::string workload = write_workload(
      "mlcd_cli_badpolicy.json",
      R"({"jobs": [{"name": "a", "model": "resnet", "max_nodes": 8}]})");
  std::string err;
  EXPECT_EQ(drive({"batch", workload.c_str(), "--journal-on-error",
                   "sometimes"},
                  nullptr, &err),
            2);
  EXPECT_NE(err.find("journal-on-error"), std::string::npos);
  std::remove(workload.c_str());
}

TEST(CliRun, BatchExitCodePrecedenceIsPinned) {
  // 4 (journal) > 6 (internal) > 1 (failed) > 5 (SLO) > 0.
  service::BatchReport report;
  report.jobs.resize(4);
  report.jobs[0].ok = true;
  report.jobs[1].ok = true;
  report.jobs[1].slo = service::SloBreach::kProbes;
  report.jobs[2].error_code = "unknown_model";
  report.jobs[3].error_code = "internal";
  EXPECT_EQ(batch_exit_code(report), 6);
  report.jobs[3].error_code = "journal_error";
  EXPECT_EQ(batch_exit_code(report), 4);
  report.jobs[3].ok = true;
  report.jobs[3].error_code.clear();
  EXPECT_EQ(batch_exit_code(report), 1);
  report.jobs[2].ok = true;
  report.jobs[2].error_code.clear();
  EXPECT_EQ(batch_exit_code(report), 5);
  report.jobs[1].slo = service::SloBreach::kNone;
  EXPECT_EQ(batch_exit_code(report), 0);
}

TEST(CliRun, BatchDurableResumeReplaysBitIdentically) {
  // End-to-end through the CLI: run a durable batch, then resume the
  // (fully finished) batch — every report must come back replayed from
  // the batch log, identical modulo resume bookkeeping.
  const std::string workload = write_workload(
      "mlcd_cli_durable.json",
      R"({"jobs": [
        {"name": "a", "tenant": "t1", "model": "resnet", "seed": 7,
         "max_nodes": 8},
        {"name": "b", "tenant": "t2", "model": "alexnet", "seed": 9,
         "max_nodes": 8, "method": "random"}
      ]})");
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string dir = (tmp / "mlcd_cli_durable_dir").string();
  std::filesystem::remove_all(dir);

  std::string first;
  ASSERT_EQ(drive({"batch", workload.c_str(), "--threads", "2",
                   "--journal-dir", dir.c_str(), "--json"},
                  &first),
            0);
  // One log holds the whole batch: no per-job journal file.
  ASSERT_TRUE(std::filesystem::exists(dir + "/batch.mlcdb"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-0-a.mlcdj"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-1-b.mlcdj"));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);

  std::string second;
  ASSERT_EQ(drive({"batch", workload.c_str(), "--threads", "2",
                   "--journal-dir", dir.c_str(), "--resume", "--json"},
                  &second),
            0);
  EXPECT_NE(second.find("\"replayed_reports\":2"), std::string::npos);
  EXPECT_NE(second.find("\"replayed_from_journal\":true"),
            std::string::npos);
  // The replayed run re-executed nothing: every trace step carries the
  // replay marker and the probe-by-probe content matches the original.
  EXPECT_EQ(second.find("\"replayed\":false"), std::string::npos);
  const auto trace_of = [](const std::string& doc, const char* job) {
    const std::size_t at = doc.find(std::string("\"name\":\"") + job);
    const std::size_t begin = doc.find("\"trace\":[", at);
    // Fault-free steps carry no nested arrays, so the first ']' closes
    // the trace.
    const std::size_t end = doc.find(']', begin);
    return doc.substr(begin, end - begin + 1);
  };
  for (const char* job : {"a", "b"}) {
    std::string a = trace_of(first, job);
    std::string b = trace_of(second, job);
    // Normalize the only legitimate difference inside a trace step.
    const auto scrub = [](std::string& text) {
      for (std::size_t at = text.find("\"replayed\":");
           at != std::string::npos; at = text.find("\"replayed\":", at)) {
        const std::size_t value = at + std::string("\"replayed\":").size();
        const std::size_t comma = text.find_first_of(",}", value);
        text.replace(value, comma - value, "X");
        at = value;
      }
    };
    scrub(a);
    scrub(b);
    EXPECT_EQ(a, b) << "job " << job;
  }
  std::filesystem::remove_all(dir);
  std::remove(workload.c_str());
}

}  // namespace
}  // namespace mlcd::cli
