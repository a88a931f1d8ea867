// Bit-identical equivalence of the optimized planner hot path (memoized +
// bound-pruned) against the unoptimized reference scan, across
// the workload x instance x sync-mode matrix. The optimizations are only
// admissible because they provably never change the chosen plan
// (docs/PERF.md gives the pruning-safety argument); these tests pin that
// contract with exact floating-point comparisons — EXPECT_EQ on doubles,
// no tolerances — so a single ULP of drift in any optimized path fails.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "core/loss_model.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "profiler/profiler.hpp"
#include "util/units.hpp"

namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace cp = cynthia::profiler;
namespace cu = cynthia::util;

namespace {

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

co::Provisioner make_provisioner(const char* name, cd::SyncMode mode) {
  static std::map<std::string, cp::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, cp::profile_workload(cd::workload_by_name(name), m4())).first;
  }
  const auto& w = cd::workload_by_name(name);
  const auto& coef = w.loss_for(mode);
  co::LossModel loss(mode, coef.beta0, coef.beta1);
  return co::Provisioner(co::CynthiaModel(it->second), std::move(loss),
                         cc::Catalog::aws().provisionable());
}

struct Case {
  const char* workload;
  cd::SyncMode mode;
  co::ProvisionGoal goal;
};

std::vector<Case> paper_cases() {
  std::vector<Case> cases;
  for (cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
    cases.push_back({"mnist", mode, {cu::minutes(30), 0.1}});
    cases.push_back({"cifar10", mode, {cu::minutes(90), 0.8}});
    cases.push_back({"vgg19", mode, {cu::minutes(240), 0.8}});
  }
  return cases;
}

// The unoptimized reference: every candidate evaluated through the model.
co::ProvisionOptions reference_options() {
  co::ProvisionOptions o;
  o.use_cache = false;
  o.prune = false;
  return o;
}

// Default hot path (cache + prune).
co::ProvisionOptions optimized_options() { return {}; }

void expect_same_prediction(const co::IterationPrediction& a, const co::IterationPrediction& b) {
  EXPECT_EQ(a.t_comp, b.t_comp);
  EXPECT_EQ(a.t_comm, b.t_comm);
  EXPECT_EQ(a.t_iter, b.t_iter);
  EXPECT_EQ(a.worker_utilization, b.worker_utilization);
  EXPECT_EQ(a.r_scale, b.r_scale);
  EXPECT_EQ(a.cpu_demand, b.cpu_demand);
  EXPECT_EQ(a.cpu_supply, b.cpu_supply);
  EXPECT_EQ(a.bw_demand, b.bw_demand);
  EXPECT_EQ(a.bw_supply, b.bw_supply);
  EXPECT_EQ(a.cpu_bottleneck, b.cpu_bottleneck);
  EXPECT_EQ(a.bw_bottleneck, b.bw_bottleneck);
}

void expect_same_plan(const co::ProvisionPlan& a, const co::ProvisionPlan& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  if (!a.feasible) return;
  EXPECT_EQ(a.type.name, b.type.name);
  EXPECT_EQ(a.n_workers, b.n_workers);
  EXPECT_EQ(a.n_ps, b.n_ps);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.t_iter, b.t_iter);
  EXPECT_EQ(a.predicted_time.value(), b.predicted_time.value());
  EXPECT_EQ(a.predicted_cost.value(), b.predicted_cost.value());
  expect_same_prediction(a.diagnostics, b.diagnostics);
  EXPECT_EQ(a.bounds.feasible, b.bounds.feasible);
  EXPECT_EQ(a.bounds.n_lower, b.bounds.n_lower);
  EXPECT_EQ(a.bounds.n_upper, b.bounds.n_upper);
  EXPECT_EQ(a.bounds.n_ps, b.bounds.n_ps);
}

}  // namespace

TEST(PlannerEquiv, BoundedPlanBitIdenticalAcrossMatrix) {
  for (const Case& c : paper_cases()) {
    SCOPED_TRACE(std::string(c.workload) + " mode " + std::to_string(int(c.mode)));
    const auto prov = make_provisioner(c.workload, c.mode);
    const auto reference = prov.plan(c.mode, c.goal, reference_options());
    const auto optimized = prov.plan(c.mode, c.goal, optimized_options());
    // Second optimized call answers fully from the warm cache.
    const auto warm = prov.plan(c.mode, c.goal, optimized_options());
    expect_same_plan(reference, optimized);
    expect_same_plan(reference, warm);
  }
}

TEST(PlannerEquiv, ExhaustivePlanBitIdenticalAcrossMatrix) {
  for (const Case& c : paper_cases()) {
    SCOPED_TRACE(std::string(c.workload) + " mode " + std::to_string(int(c.mode)));
    const auto prov = make_provisioner(c.workload, c.mode);
    auto reference = reference_options();
    auto optimized = optimized_options();
    reference.exhaustive = optimized.exhaustive = true;
    expect_same_plan(prov.plan(c.mode, c.goal, reference),
                     prov.plan(c.mode, c.goal, optimized));
  }
}

TEST(PlannerEquiv, ReplanBitIdenticalUnderDegradationMatrix) {
  const cu::Seconds budget = cu::minutes(45);
  for (const char* workload : {"mnist", "cifar10", "vgg19"}) {
    for (cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
      const auto prov = make_provisioner(workload, mode);
      for (long remaining : {500L, 2000L}) {
        for (double derate : {1.0, 0.9, 0.8}) {
          for (double slack : {0.0, 0.1}) {
            SCOPED_TRACE(std::string(workload) + " mode " + std::to_string(int(mode)) +
                         " rem " + std::to_string(remaining) + " derate " +
                         std::to_string(derate) + " slack " + std::to_string(slack));
            const co::ReplanDegradation deg{derate, slack};
            const auto reference =
                prov.replan(mode, remaining, budget, reference_options(), deg);
            const auto optimized =
                prov.replan(mode, remaining, budget, optimized_options(), deg);
            expect_same_plan(reference, optimized);
          }
        }
      }
    }
  }
}

TEST(PlannerEquiv, InfeasibleGoalAgreesAcrossPaths) {
  const auto prov = make_provisioner("vgg19", cd::SyncMode::BSP);
  const co::ProvisionGoal goal{cu::Seconds{30.0}, 0.8};  // nothing trains VGG in 30 s
  EXPECT_FALSE(prov.plan(cd::SyncMode::BSP, goal, reference_options()).feasible);
  EXPECT_FALSE(prov.plan(cd::SyncMode::BSP, goal, optimized_options()).feasible);
}

TEST(PlannerEquiv, TraceInCatalogThenScanOrderAcrossCacheStates) {
  const auto prov = make_provisioner("cifar10", cd::SyncMode::BSP);
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  // Pruning off so the trace covers the full grid; the uncached reference,
  // a cold-cache and two warm-cache scans must emit the identical candidate
  // sequence (catalog order, then scan order).
  auto reference = reference_options();
  reference.keep_trace = true;
  auto cached = optimized_options();
  cached.keep_trace = true;
  cached.prune = false;

  (void)prov.plan(cd::SyncMode::BSP, goal, reference);
  const std::vector<co::CandidateEvaluation> reference_trace = prov.considered();
  ASSERT_FALSE(reference_trace.empty());

  // Each type's candidates form one contiguous block, in catalog order.
  const auto types = cc::Catalog::aws().provisionable();
  std::size_t type_index = 0;
  for (const auto& c : reference_trace) {
    while (type_index < types.size() && types[type_index].name != c.type) ++type_index;
    ASSERT_LT(type_index, types.size()) << c.type << " out of catalog order";
  }

  for (int run = 0; run < 3; ++run) {
    (void)prov.plan(cd::SyncMode::BSP, goal, cached);
    const auto& trace = prov.considered();
    ASSERT_EQ(trace.size(), reference_trace.size()) << "run " << run;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].type, reference_trace[i].type) << "entry " << i;
      EXPECT_EQ(trace[i].n_workers, reference_trace[i].n_workers) << "entry " << i;
      EXPECT_EQ(trace[i].n_ps, reference_trace[i].n_ps) << "entry " << i;
      EXPECT_EQ(trace[i].iterations, reference_trace[i].iterations) << "entry " << i;
      EXPECT_EQ(trace[i].t_iter, reference_trace[i].t_iter) << "entry " << i;
      EXPECT_EQ(trace[i].total_time, reference_trace[i].total_time) << "entry " << i;
      EXPECT_EQ(trace[i].cost, reference_trace[i].cost) << "entry " << i;
      EXPECT_EQ(trace[i].feasible, reference_trace[i].feasible) << "entry " << i;
    }
  }
}

TEST(PlannerEquiv, CacheServesRepeatCallsWithoutRecomputing) {
  const auto prov = make_provisioner("cifar10", cd::SyncMode::BSP);
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  (void)prov.plan(cd::SyncMode::BSP, goal, optimized_options());
  const auto cold = prov.stats();
  EXPECT_GT(cold.cache_misses, 0u);
  (void)prov.plan(cd::SyncMode::BSP, goal, optimized_options());
  const auto warm = prov.stats();
  EXPECT_EQ(warm.cache_misses, cold.cache_misses) << "warm call must not recompute";
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
  EXPECT_EQ(warm.plans, cold.plans + 1);
}
