#include "fleet.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using mlcd::util::JsonWriter;
using mlcd::util::Rng;

// The 6-type catalog of bench_service_throughput: the full catalog has
// more types than HeterBO's probe cap and would leave it no BO steps.
const char* const kTypes[] = {"c5.xlarge",   "c5.4xlarge", "c5.24xlarge",
                              "c5n.4xlarge", "p2.xlarge",  "p3.2xlarge"};
const char* const kModels[] = {"resnet", "bert", "alexnet", "char_rnn"};

struct Job {
  std::string tenant;
  std::string model;
  std::string method;
  std::int64_t seed = 1;
  int max_nodes = 50;
  double deadline_hours = 0.0;  ///< 0 = budget scenario
  double budget_dollars = 0.0;
  bool ladder = false;
  int slo_max_probes = 0;
};

/// Two decimals, so the generated document carries the value exactly.
double round2(double x) { return std::round(x * 100.0) / 100.0; }

/// Draws seeds that no other job of the fleet uses.
class UniqueSeeds {
 public:
  explicit UniqueSeeds(Rng& rng) : rng_(&rng) {}
  std::int64_t next() {
    for (;;) {
      const std::int64_t s = rng_->uniform_int(1, 2'000'000'000);
      if (used_.insert(s).second) return s;
    }
  }

 private:
  Rng* rng_;
  std::set<std::int64_t> used_;
};

/// Cheap-search scenarios: a loose deadline or a budget.
void set_scenario(Job& j, bool deadline, Rng& rng) {
  if (deadline) {
    j.deadline_hours = round2(rng.uniform(12.0, 36.0));
  } else {
    j.budget_dollars = round2(rng.uniform(200.0, 600.0));
  }
}

std::string tenant_of(Rng& rng) {
  std::string tenant = "t";
  tenant += std::to_string(rng.uniform_int(0, 7));
  return tenant;
}

/// Shuffles admission order within consecutive blocks of `block` jobs, so
/// every block keeps the stratified mix and the latency of the k-th job
/// admitted does not hinge on where the seed put the long searches.
void shuffle_blocks(std::vector<Job>& jobs, std::size_t block, Rng& rng) {
  for (std::size_t begin = 0; begin < jobs.size(); begin += block) {
    const std::size_t end = std::min(jobs.size(), begin + block);
    std::shuffle(jobs.begin() + static_cast<std::ptrdiff_t>(begin),
                 jobs.begin() + static_cast<std::ptrdiff_t>(end), rng.engine());
  }
}

/// Names the jobs in admission order and renders the workload.
std::string render(const std::vector<Job>& jobs, const char* prefix,
                   double chaos_rate, std::uint64_t chaos_seed) {
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(1);
  json.key("scheduler").value("sharded");
  if (chaos_rate > 0.0) {
    json.key("chaos").begin_object();
    json.key("seed").value(static_cast<std::int64_t>(chaos_seed));
    json.key("lane_crash_rate").value(chaos_rate);
    json.key("revocation_rate").value(chaos_rate);
    json.key("probe_loss_rate").value(chaos_rate);
    json.end_object();
  }
  json.key("jobs").begin_array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    json.begin_object();
    json.key("name").value(std::string(prefix) + "-" + std::to_string(i) +
                           "-" + j.model + "-" + j.method);
    json.key("tenant").value(j.tenant);
    json.key("model").value(j.model);
    json.key("method").value(j.method);
    json.key("seed").value(j.seed);
    json.key("max_nodes").value(j.max_nodes);
    json.key("threads").value(1);
    if (j.deadline_hours > 0.0) {
      json.key("deadline_hours").value(j.deadline_hours);
    } else {
      json.key("budget_dollars").value(j.budget_dollars);
    }
    if (j.ladder) json.key("fidelity_rungs").value("0.5:1,0.25:2");
    if (j.slo_max_probes > 0) json.key("slo_max_probes").value(j.slo_max_probes);
    json.key("instance_types").begin_array();
    for (const char* type : kTypes) json.value(type);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

/// 192 BO jobs: 4 blocks of 4 models x {deadline, budget} x 6 method
/// slots. Half the slots are HeterBO (one of them with a fidelity ladder),
/// the rest its baselines. Unique seeds, so no probe is ever shared.
FleetPlan bo_fleet(std::uint64_t seed) {
  Rng rng(mlcd::util::splitmix64(seed ^ 0xb0f1ee7ull));
  UniqueSeeds seeds(rng);
  struct Slot {
    const char* method;
    bool ladder;
  };
  const Slot slots[] = {{"heterbo", false},   {"heterbo", false},
                        {"heterbo", true},    {"conv-bo", false},
                        {"bo-improved", false}, {"cherrypick-improved", false}};
  // A BO search's length swings with its constraint, so the constraints
  // sit on a fixed grid and the seed varies the rest: seed-to-seed spread
  // then reflects measurement noise paths, not a different traffic mix.
  constexpr int kReps = 4;
  constexpr int kGrid = kReps * static_cast<int>(std::size(slots));
  std::vector<Job> jobs;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const char* model : kModels) {
      for (const bool deadline : {true, false}) {
        for (std::size_t s = 0; s < std::size(slots); ++s) {
          const int k = static_cast<int>(s) * kReps + rep;
          const double grid = static_cast<double>((k * 5) % kGrid) / (kGrid - 1);
          Job j;
          j.tenant = tenant_of(rng);
          j.model = model;
          j.method = slots[s].method;
          j.ladder = slots[s].ladder;
          j.seed = seeds.next();
          j.max_nodes = 50;
          if (deadline) {
            j.deadline_hours = round2(6.0 + 4.0 * grid);
          } else {
            j.budget_dollars = round2(120.0 + 180.0 * grid);
          }
          jobs.push_back(std::move(j));
        }
      }
    }
  }
  FleetPlan plan;
  shuffle_blocks(jobs, jobs.size() / kReps, rng);
  plan.workload_json = render(jobs, "bo", 0.0, 0);
  plan.options.threads = kLanes;
  return plan;
}

/// 1024 cheap exhaustive/random jobs drawn 4 times each from 256 recurring
/// job templates (model, method, seed, max_nodes), so 3 of every 4 runs of
/// a template can be served from the probe cache. 8 tenants, at most 2 of
/// a tenant's jobs at once, and a 16-node pool under 4 lanes of up to
/// 16-node probes.
FleetPlan contended_fleet(std::uint64_t seed) {
  Rng rng(mlcd::util::splitmix64(seed ^ 0xc0113dull));
  UniqueSeeds seeds(rng);
  std::vector<Job> templates;
  for (int t = 0; t < 256; ++t) {
    Job j;
    j.model = kModels[t % 4];
    j.method = (t / 4) % 2 == 0 ? "exhaustive" : "random";
    j.seed = seeds.next();
    j.max_nodes = 8 + 4 * ((t / 8) % 3);  // 8, 12, 16
    set_scenario(j, (t / 24) % 2 == 0, rng);
    templates.push_back(std::move(j));
  }
  std::vector<Job> jobs;
  for (int copy = 0; copy < 4; ++copy) {
    for (const Job& t : templates) {
      Job j = t;
      j.tenant = tenant_of(rng);
      jobs.push_back(std::move(j));
    }
  }
  FleetPlan plan;
  shuffle_blocks(jobs, templates.size(), rng);
  plan.workload_json = render(jobs, "ct", 0.0, 0);
  plan.options.threads = kLanes;
  plan.options.capacity_nodes = 16;
  plan.options.tenant_max_jobs = 2;
  return plan;
}

/// 256 probe-heavy exhaustive/random jobs with unique seeds, run under a
/// batch journal directory with the probe cache off, so every probe is a
/// journal write. Chaos fires lane crashes, revocations and probe losses
/// at a low per-step rate; 8 exhaustive jobs carry a 5-probe SLO, which
/// they always exceed.
FleetPlan durable_fleet(std::uint64_t seed) {
  Rng rng(mlcd::util::splitmix64(seed ^ 0xd0ab1eull));
  UniqueSeeds seeds(rng);
  std::vector<Job> jobs;
  for (int i = 0; i < 256; ++i) {
    Job j;
    j.tenant = tenant_of(rng);
    j.model = kModels[i % 4];
    j.method = (i / 4) % 2 == 0 ? "exhaustive" : "random";
    j.seed = seeds.next();
    j.max_nodes = 5 + (i / 8) % 3;  // 5, 6, 7
    set_scenario(j, (i / 24) % 2 == 0, rng);
    if (i % 32 == 0) j.slo_max_probes = 5;  // i % 32 == 0 is exhaustive
    jobs.push_back(std::move(j));
  }
  const std::uint64_t chaos_seed =
      static_cast<std::uint64_t>(rng.uniform_int(1, 2'000'000'000));
  FleetPlan plan;
  shuffle_blocks(jobs, 64, rng);
  plan.workload_json = render(jobs, "du", 0.002, chaos_seed);
  plan.options.threads = kLanes;
  plan.options.share_probes = false;
  plan.durable = true;
  return plan;
}

}  // namespace

FleetPlan make_fleet(std::string_view name, std::uint64_t seed) {
  if (name == "bo_fleet") return bo_fleet(seed);
  if (name == "contended_fleet") return contended_fleet(seed);
  if (name == "durable_fleet") return durable_fleet(seed);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
