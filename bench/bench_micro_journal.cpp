// Microbenchmarks: what a durable batch pays per journal record before
// any disk work — composing a probe or header payload, and staging a
// framed probe record into the group-committed batch log.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

#include "journal/journal.hpp"
#include "service/batch_journal.hpp"

namespace {

using namespace mlcd;

/// A probe as a durable batch logs it: full fidelity, one failed launch
/// attempt before the measured one, doubles with 17 significant digits.
journal::ProbeRecord sample_probe() {
  journal::ProbeRecord p;
  p.type_index = 17;
  p.nodes = 6;
  p.feasible = true;
  p.measured_speed = 1234.5678901234567;
  p.true_speed = 1240.0000000000002;
  p.profile_hours = 0.083333333333333329;
  p.profile_cost = 0.40799999999999997;
  p.cum_profile_hours = 1.4166666666666667;
  p.cum_profile_cost = 6.9359999999999999;
  p.acquisition = 0.031415926535897934;
  p.reason = "tei";
  p.attempts = 2;
  p.fault = 1;
  p.backoff_hours = 0.016666666666666666;
  p.attempt_log = {{1, 0.05, 0.245, 0.016666666666666666},
                   {0, 0.083333333333333329, 0.40799999999999997, 0.0}};
  return p;
}

journal::JournalHeader sample_header() {
  journal::JournalHeader h;
  h.method = "heterbo";
  h.model = "resnet";
  h.platform = "tensorflow";
  h.scenario_kind = 2;
  h.budget_dollars = 150.0;
  h.seed = 0xDEADBEEFCAFEF00DULL;
  h.max_nodes = 8;
  h.gp_refit_every = 1;
  h.catalog_hash = 0x0123456789ABCDEFULL;
  h.profiler_options_hash = 0xFEDCBA9876543210ULL;
  h.warm_start_hash = 0;
  return h;
}

void BM_ProbePayload(benchmark::State& state) {
  journal::ProbeRecord probe = sample_probe();
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe);
    benchmark::DoNotOptimize(journal::probe_payload(probe, 42));
  }
}
BENCHMARK(BM_ProbePayload);

void BM_HeaderPayload(benchmark::State& state) {
  journal::JournalHeader header = sample_header();
  for (auto _ : state) {
    benchmark::DoNotOptimize(header);
    benchmark::DoNotOptimize(journal::header_payload(header));
  }
}
BENCHMARK(BM_HeaderPayload);

/// Composes, frames and stages one probe record (no commit). The log is
/// replaced, untimed, every 1024 records so staged bytes stay bounded.
void BM_BatchLogStage(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_micro_journal." + std::to_string(::getpid()) + ".mlcdb"))
          .string();
  const service::BatchManifestHeader header;
  journal::ProbeRecord probe = sample_probe();
  std::unique_ptr<service::BatchLog> log =
      service::BatchLog::create(path, header, {});
  int staged = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe);
    benchmark::DoNotOptimize(log->stage_probe(0, probe));
    benchmark::ClobberMemory();
    if (++staged == 1024) {
      state.PauseTiming();
      log = service::BatchLog::create(path, header, {});
      staged = 0;
      state.ResumeTiming();
    }
  }
  log.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_BatchLogStage);

}  // namespace
