#include "orchestrator/service.hpp"

#include <chrono>

#include "cloud/pricing.hpp"
#include "ddnn/loss.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace cynthia::orch {

TrainingService::TrainingService(const cloud::Catalog& catalog, ServiceOptions options)
    : catalog_(&catalog), options_(std::move(options)) {}

struct TrainingService::JobPlanner {
  util::Seconds profiling_time;
  core::Provisioner provisioner;
};

TrainingService::JobPlanner TrainingService::build_planner(
    const ddnn::WorkloadSpec& workload) const {
  const auto& baseline = catalog_->at(options_.baseline_type);
  const core::Predictor predictor =
      core::Predictor::build(workload, baseline, options_.predictor);
  auto types = options_.instance_types;
  if (types.empty()) types = catalog_->provisionable();
  JobPlanner planner{predictor.profile().profiling_time,
                     core::Provisioner(predictor.model(), predictor.loss(), std::move(types))};
  if (telemetry::Telemetry* tel = options_.training.telemetry; tel != nullptr) {
    planner.provisioner.set_metrics(&tel->metrics);
    planner.provisioner.set_journal(&tel->journal);
  }
  return planner;
}

std::optional<JobReport> TrainingService::submit(const ddnn::WorkloadSpec& workload,
                                                 const core::ProvisionGoal& goal) {
  JobReport report;

  // 1+2: performance predictor (profile + loss fit).
  JobPlanner planner = build_planner(workload);
  report.profiling_seconds = planner.profiling_time.value();

  // 3: Algorithm 1 (timed with the host clock — the paper's Sec. 5.3
  // overhead metric).
  telemetry::Telemetry* tel = options_.training.telemetry;
  // Wall-clock here times the planner itself (an overhead metric reported to
  // the operator); it never feeds back into simulated time, so determinism of
  // the simulation is unaffected.
  const auto t0 = std::chrono::steady_clock::now();  // cynthia-lint: allow(DET-001) — self-timing
  report.plan = planner.provisioner.plan(workload.sync, goal);
  report.planning_seconds =  // cynthia-lint: allow(DET-001) — self-timing, not simulated time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (!report.plan.feasible) return std::nullopt;

  // 4: provision through the control plane.
  sim::Simulator control_plane;
  cloud::BillingMeter billing;
  ClusterManager manager(control_plane, billing, options_.seed);
  if (tel != nullptr) manager.set_telemetry(tel);
  Deployment deployment = manager.deploy(report.plan);
  report.provisioning_seconds = deployment.provisioning_seconds();

  // 5: train for the planned iteration budget.
  ddnn::TrainOptions train = options_.training;
  train.iterations = report.plan.total_iterations;
  train.seed = options_.seed;
  report.training = ddnn::run_training(deployment.spec, workload, train);
  report.achieved_loss = report.training.final_loss;

  // 6: teardown at provisioning time + training wall time and settle the
  // bill (the cluster exists for provisioning + training).
  control_plane.run_until(deployment.ready_at + report.training.total_time);
  manager.teardown(deployment);
  report.actual_cost = billing.total(util::Seconds{control_plane.now()});

  report.time_goal_met = report.training.total_time <= goal.time_goal.value();
  report.loss_goal_met = report.achieved_loss <= goal.target_loss * 1.05;  // noise tolerance
  if (tel != nullptr) {
    cloud::journal_meter_settlement(tel->journal, billing, util::Seconds{control_plane.now()},
                                    telemetry::CostPhase::kTrain, telemetry::CostCause::kPlan,
                                    util::Seconds{deployment.ready_at});
    tel->metrics.gauge(telemetry::metric::kBillingDollars).set(report.actual_cost.value());
    tel->journal.verdict(report.training.total_time, "time-goal", report.time_goal_met,
                         goal.time_goal.value(), report.training.total_time);
    if (goal.target_loss > 0.0) {
      tel->journal.verdict(report.training.total_time, "loss-goal", report.loss_goal_met,
                           goal.target_loss, report.achieved_loss);
    }
    if (report.plan.predicted_cost.value() > 0.0) {
      tel->journal.verdict(
          report.training.total_time, "cost",
          report.actual_cost.value() <= report.plan.predicted_cost.value() * 1.1,
          report.plan.predicted_cost.value(), report.actual_cost.value());
    }
  }
  return report;
}

std::optional<FaultRunReport> TrainingService::submit_with_faults(
    const ddnn::WorkloadSpec& workload, const core::ProvisionGoal& goal,
    const faults::FaultSchedule& schedule, RecoveryOptions recovery) {
  // Steps 1-3 of submit(): predictor, then Algorithm 1.
  const JobPlanner planner = build_planner(workload);
  const core::ProvisionPlan plan = planner.provisioner.plan(workload.sync, goal);
  if (!plan.feasible) return std::nullopt;

  // Steps 4-6 move into the recovery controller, which owns provisioning,
  // replacement, and (elastic) re-planning against the same provisioner.
  recovery.seed = options_.seed;
  recovery.training = options_.training;
  RecoveryController controller(recovery);
  return controller.run(workload, plan, schedule, goal, &planner.provisioner);
}

}  // namespace cynthia::orch
