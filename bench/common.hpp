// Shared helpers for the bench binaries: the paper-claims driver and the
// gate benches. They build the same workload/space/scenario objects the
// paper's experiments use, print banners and notes, and dump raw series
// as CSV under ./bench_out/.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/deployment.hpp"
#include "cloud/instance.hpp"
#include "models/model_zoo.hpp"
#include "perf/perf_model.hpp"
#include "search/exhaustive.hpp"  // optimal_deployment(), used by benches
#include "search/scenario.hpp"
#include "search/search_result.hpp"
#include "search/searcher.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace mlcd::bench {

/// Prints the bench banner: figure id, what the paper showed, what we run.
void print_header(const std::string& figure, const std::string& paper_setup,
                  const std::string& repro_setup);

/// Prints a "paper reported vs ours" closing note.
void print_note(const std::string& note);

/// Directory for CSV dumps (created on demand).
std::string bench_out_dir();

/// Opens a CSV in bench_out_dir().
util::CsvWriter open_csv(const std::string& name,
                         std::vector<std::string> header);

/// Named subset of the full 62-type catalog.
cloud::InstanceCatalog subset_catalog(const std::vector<std::string>& names);

/// Training configuration for a zoo model on a platform/topology.
perf::TrainingConfig make_config(
    const std::string& model, const std::string& platform = "tensorflow",
    std::optional<perf::CommTopology> topology = std::nullopt);

/// A ready-to-run search problem.
search::SearchProblem make_problem(const perf::TrainingConfig& config,
                                   const cloud::DeploymentSpace& space,
                                   const search::Scenario& scenario,
                                   std::uint64_t seed = 7);

/// Runs `method` (by name, from the same registry as the MLCD
/// deployment engine) and returns its result.
search::SearchResult run_method(const perf::TrainingPerfModel& perf,
                                const search::SearchProblem& problem,
                                const std::string& method);

}  // namespace mlcd::bench
