#include "orchestrator/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "cloud/pricing.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace cynthia::orch {

namespace detail {

double restore_read_seconds(const ddnn::WorkloadSpec& workload, double bandwidth_mbps) {
  return workload.gparam.value() / std::max(1.0, bandwidth_mbps);
}

std::uint64_t replacement_seed(std::uint64_t seed, std::size_t crash_index) {
  return seed * 1000003ull + 7919ull * (crash_index + 1);
}

double measure_replacement(const core::ProvisionPlan& plan, std::uint64_t seed) {
  sim::Simulator sim;
  cloud::BillingMeter billing;
  ClusterManager manager(sim, billing, seed);
  core::ProvisionPlan one = plan;
  one.n_workers = 1;
  one.n_ps = 0;
  Deployment replacement = manager.deploy(one);
  const double seconds = replacement.provisioning_seconds();
  manager.teardown(replacement);
  return seconds;
}

}  // namespace detail

namespace {

using detail::measure_replacement;
using detail::replacement_seed;
using detail::restore_read_seconds;

/// Bills every fired crash's replacement node: metered from the moment the
/// master reacts (detection) until the end of training. With a journal
/// attached, each node becomes its own billing settlement so the cost
/// ledger's grouped fold reproduces this `+=` chain bit-for-bit.
void add_replacement_costs(FaultRunReport& report, const core::ProvisionPlan& plan,
                           const ddnn::TrainResult& result, std::size_t first_index,
                           double detection_seconds, telemetry::Journal* journal) {
  std::size_t k = first_index;
  for (const auto& outcome : result.faults.events) {
    if (outcome.spec.kind != faults::FaultKind::kCrash) continue;
    if (k >= report.replacement_provisioning.size()) break;
    const double provision = report.replacement_provisioning[k++];
    if (!outcome.fired) continue;
    const double tail =
        result.total_time - (outcome.injected_at + detection_seconds + provision);
    const double window = provision + std::max(0.0, tail);
    const util::Dollars dollars = core::plan_cost(plan.type, 1, 0, util::Seconds{window});
    report.actual_cost += dollars;
    if (journal != nullptr) {
      journal->billing_delta(result.total_time, journal->next_settlement(),
                             telemetry::CostPhase::kRecover, telemetry::CostCause::kFault,
                             "crash-replacement-" + std::to_string(k - 1), dollars.value(),
                             plan.type.name);
    }
  }
}

/// Master-side recovery timeline: detection, replacement-node Ready, and
/// training resume as instant events next to the trainer's inject/recover
/// pair. `shift` maps segment-local times onto the job timeline.
void record_recovery_instants(telemetry::Telemetry* tel, const RecoveryOptions& options,
                              double restore_seconds, const ddnn::TrainResult& result,
                              const std::vector<double>& provisioning, std::size_t first_index,
                              double shift) {
  if (!tel) return;
  std::size_t k = first_index;
  double recovery_total = 0.0;
  for (const auto& outcome : result.faults.events) {
    if (outcome.spec.kind != faults::FaultKind::kCrash) continue;
    if (k >= provisioning.size()) break;
    const double provision = provisioning[k++];
    if (!outcome.fired) continue;
    const double detected = shift + outcome.injected_at + options.detection_seconds;
    tel->tracer.instant("faults", "detect:" + outcome.spec.to_string(), "recovery", detected);
    tel->tracer.instant("faults", "replacement_ready", "recovery", detected + provision);
    tel->journal.event(detected, telemetry::JournalKind::kDetection, outcome.spec.to_string(),
                       "heartbeat timeout", options.detection_seconds);
    if (outcome.recovered_at >= 0.0) {
      tel->tracer.instant("faults", "resume", "recovery", shift + outcome.recovered_at);
      tel->journal.event(shift + outcome.recovered_at, telemetry::JournalKind::kMitigation,
                         "repair-in-place", outcome.spec.to_string());
    }
    recovery_total += options.detection_seconds + provision + restore_seconds;
  }
  if (recovery_total > 0.0) {
    tel->metrics.counter(telemetry::metric::kFaultRecoverySeconds).inc(recovery_total);
  }
}

}  // namespace

RecoveryController::RecoveryController(RecoveryOptions options) : options_(std::move(options)) {}

FaultRunReport RecoveryController::run(const ddnn::WorkloadSpec& workload,
                                       const core::ProvisionPlan& plan,
                                       const faults::FaultSchedule& schedule,
                                       const core::ProvisionGoal& goal,
                                       const core::Provisioner* provisioner) const {
  if (!plan.feasible) {
    throw std::invalid_argument("RecoveryController: infeasible plan");
  }
  schedule.validate(plan.n_workers, plan.n_ps);

  FaultRunReport report;
  if (options_.elastic) {
    if (provisioner == nullptr) {
      throw std::invalid_argument("RecoveryController: elastic re-planning needs a Provisioner");
    }
    report = elastic_replan(workload, plan, schedule, goal, *provisioner);
  } else {
    report = repair_in_place(workload, plan, schedule, goal);
  }
  if (options_.measure_baseline) measure_baseline(workload, plan, report);
  return report;
}

FaultRunReport RecoveryController::repair_in_place(const ddnn::WorkloadSpec& workload,
                                                   const core::ProvisionPlan& plan,
                                                   const faults::FaultSchedule& schedule,
                                                   const core::ProvisionGoal& goal) const {
  FaultRunReport report;
  report.plan = plan;
  report.restore_seconds =
      restore_read_seconds(workload, options_.checkpoint_bandwidth_mbps);

  // Enrich every crash with the measured recovery pipeline: heartbeat
  // detection + replacement provisioning (kubeadm-join lifecycle) +
  // checkpoint restore. The trainer then rides through the outage.
  faults::FaultSchedule enriched;
  std::size_t crash_index = 0;
  for (const faults::FaultSpec& spec : schedule.events()) {
    faults::FaultSpec event = spec;
    if (event.kind == faults::FaultKind::kCrash) {
      const double provision =
          measure_replacement(plan, replacement_seed(options_.seed, crash_index));
      report.replacement_provisioning.push_back(provision);
      event.recovery_seconds =
          options_.detection_seconds + provision + report.restore_seconds;
      ++crash_index;
    }
    enriched.add(event);
  }

  sim::Simulator control_plane;
  cloud::BillingMeter billing;
  ClusterManager manager(control_plane, billing, options_.seed);
  if (options_.training.telemetry != nullptr) {
    manager.set_telemetry(options_.training.telemetry);
  }
  Deployment deployment = manager.deploy(plan);
  report.provisioning_seconds = deployment.provisioning_seconds();

  ddnn::TrainOptions train = options_.training;
  train.iterations = plan.total_iterations;
  train.seed = options_.seed;
  train.faults = &enriched;
  report.training = ddnn::run_training(deployment.spec, workload, train);
  report.achieved_loss = report.training.final_loss;

  record_recovery_instants(options_.training.telemetry, options_, report.restore_seconds,
                           report.training, report.replacement_provisioning, 0, 0.0);

  control_plane.run_until(deployment.ready_at + report.training.total_time);
  manager.teardown(deployment);
  report.actual_cost = billing.total(util::Seconds{control_plane.now()});
  telemetry::Telemetry* tel = options_.training.telemetry;
  if (tel != nullptr) {
    cloud::journal_meter_settlement(tel->journal, billing, util::Seconds{control_plane.now()},
                                    telemetry::CostPhase::kTrain, telemetry::CostCause::kPlan,
                                    util::Seconds{deployment.ready_at});
  }
  add_replacement_costs(report, plan, report.training, 0, options_.detection_seconds,
                        tel != nullptr ? &tel->journal : nullptr);

  report.time_goal_met = report.training.total_time <= goal.time_goal.value();
  report.loss_goal_met = report.achieved_loss <= goal.target_loss * 1.05;
  if (tel != nullptr) {
    tel->metrics.gauge(telemetry::metric::kBillingDollars).set(report.actual_cost.value());
    tel->journal.verdict(report.training.total_time, "time-goal", report.time_goal_met,
                         goal.time_goal.value(), report.training.total_time);
    if (goal.target_loss > 0.0) {
      tel->journal.verdict(report.training.total_time, "loss-goal", report.loss_goal_met,
                           goal.target_loss, report.achieved_loss);
    }
  }
  return report;
}

FaultRunReport RecoveryController::elastic_replan(const ddnn::WorkloadSpec& workload,
                                                  const core::ProvisionPlan& plan,
                                                  const faults::FaultSchedule& schedule,
                                                  const core::ProvisionGoal& goal,
                                                  const core::Provisioner& provisioner) const {
  // The first crash splits the run; without one there is nothing to re-plan
  // and the degradation faults are simply ridden through.
  const faults::FaultSpec* first_crash = nullptr;
  for (const auto& event : schedule.events()) {
    if (event.kind == faults::FaultKind::kCrash) {
      first_crash = &event;
      break;
    }
  }
  if (first_crash == nullptr) return repair_in_place(workload, plan, schedule, goal);

  FaultRunReport report;
  report.plan = plan;
  report.restore_seconds =
      restore_read_seconds(workload, options_.checkpoint_bandwidth_mbps);
  const double crash_at = first_crash->time_seconds;

  // Segment 1: the original deployment up to the crash. The injection at
  // crash_at fires before the cut (same-time events run in schedule order),
  // so a PS crash's checkpoint rollback lands in the segment's accounting.
  sim::Simulator control_plane1;
  cloud::BillingMeter billing1;
  ClusterManager manager1(control_plane1, billing1, options_.seed);
  telemetry::Telemetry* tel = options_.training.telemetry;
  if (tel != nullptr) manager1.set_telemetry(tel);
  Deployment deployment1 = manager1.deploy(plan);
  report.provisioning_seconds = deployment1.provisioning_seconds();

  ddnn::TrainOptions train1 = options_.training;
  train1.iterations = plan.total_iterations;
  train1.seed = options_.seed;
  train1.faults = &schedule;
  train1.stop_after_seconds = std::max(crash_at, 1e-9);
  const ddnn::TrainResult seg1 = ddnn::run_training(deployment1.spec, workload, train1);

  const long durable = seg1.iterations;
  const long remaining = plan.total_iterations - durable;
  if (remaining <= 0) {
    // The crash was scheduled past the end of training: segment one already
    // covers the whole budget and no replacement cluster is needed.
    report.training = seg1;
    report.achieved_loss = seg1.final_loss;
    control_plane1.run_until(deployment1.ready_at + seg1.total_time);
    manager1.teardown(deployment1);
    report.actual_cost = billing1.total(util::Seconds{control_plane1.now()});
    report.time_goal_met = seg1.total_time <= goal.time_goal.value();
    report.loss_goal_met = report.achieved_loss <= goal.target_loss * 1.05;
    if (tel != nullptr) {
      cloud::journal_meter_settlement(tel->journal, billing1, util::Seconds{control_plane1.now()},
                                      telemetry::CostPhase::kTrain,
                                      telemetry::CostCause::kPlan,
                                      util::Seconds{deployment1.ready_at});
      tel->metrics.gauge(telemetry::metric::kBillingDollars).set(report.actual_cost.value());
      tel->journal.verdict(seg1.total_time, "time-goal", report.time_goal_met,
                           goal.time_goal.value(), seg1.total_time);
      if (goal.target_loss > 0.0) {
        tel->journal.verdict(seg1.total_time, "loss-goal", report.loss_goal_met,
                             goal.target_loss, report.achieved_loss);
      }
    }
    return report;
  }

  // Re-run Algorithm 1 over what is left of the budget. Replacement-cluster
  // provisioning time depends on the size replan() picks, so the planner
  // budget excludes it; the goal verdict below uses the measured timeline.
  const double planner_budget = goal.time_goal.value() - crash_at -
                                options_.detection_seconds - report.restore_seconds;
  core::ProvisionPlan next =
      provisioner.replan(workload.sync, remaining, util::Seconds{planner_budget});
  if (next.feasible) {
    report.replanned = true;
  } else {
    // No feasible (or cheaper) reshape: finish on the original cluster shape.
    next = plan;
    next.iterations = remaining;
    next.total_iterations = remaining;
    next.feasible = true;
  }
  report.replacement_plan = next;

  // Provision the replacement cluster through the same lifecycle.
  sim::Simulator control_plane2;
  cloud::BillingMeter billing2;
  ClusterManager manager2(control_plane2, billing2, replacement_seed(options_.seed, 0));
  Deployment deployment2 = manager2.deploy(next);
  const double provision2 = deployment2.provisioning_seconds();
  report.replacement_provisioning.push_back(provision2);
  report.resume_at =
      crash_at + options_.detection_seconds + provision2 + report.restore_seconds;

  // Re-time the tail of the schedule onto the new cluster's clock: events
  // inside the outage window hit a dead cluster and are dropped, later
  // events shift left, and targets outside the (possibly smaller) new
  // cluster are dropped. Later crashes are repaired in place.
  faults::FaultSchedule tail;
  std::size_t crash_index = 1;
  for (const auto& event : schedule.events()) {
    if (event.time_seconds <= report.resume_at) continue;
    faults::FaultSpec shifted = event;
    shifted.time_seconds = event.time_seconds - report.resume_at;
    const int limit = shifted.on_ps ? next.n_ps : next.n_workers;
    if (shifted.target >= limit) continue;
    if (shifted.kind == faults::FaultKind::kCrash) {
      const double provision =
          measure_replacement(next, replacement_seed(options_.seed, crash_index));
      report.replacement_provisioning.push_back(provision);
      shifted.recovery_seconds =
          options_.detection_seconds + provision + report.restore_seconds;
      ++crash_index;
    }
    tail.add(shifted);
  }

  if (tel != nullptr) {
    const double detected = crash_at + options_.detection_seconds;
    tel->tracer.instant("faults", "detect:" + first_crash->to_string(), "recovery", detected);
    tel->tracer.instant("faults", "replacement_ready", "recovery", detected + provision2);
    tel->tracer.instant("faults", "resume", "recovery", report.resume_at);
    tel->metrics.counter(telemetry::metric::kFaultRecoverySeconds)
        .inc(report.resume_at - crash_at);
    tel->journal.event(detected, telemetry::JournalKind::kDetection, first_crash->to_string(),
                       "heartbeat timeout", options_.detection_seconds);
    tel->journal.event(detected, telemetry::JournalKind::kReplan, "recovery",
                       report.replanned
                           ? "elastic replan -> " + next.describe()
                           : "replan infeasible; original shape on fresh nodes");
    tel->journal.event(report.resume_at, telemetry::JournalKind::kMitigation, "elastic-replan",
                       "resume on replacement cluster " + next.type.name);
  }

  // Segment 2: resume from the checkpoint on the new cluster. The loss
  // process continues from the durable iteration count.
  ddnn::TrainOptions train2 = options_.training;
  train2.iterations = next.total_iterations;
  train2.seed = options_.seed + 1;
  train2.faults = &tail;
  train2.loss_iteration_offset = durable;
  train2.stop_after_seconds = 0.0;
  ddnn::TrainResult seg2;
  {
    const telemetry::ScopedTimeOffset shift(tel, util::Seconds{report.resume_at});
    seg2 = ddnn::run_training(deployment2.spec, workload, train2);
  }

  record_recovery_instants(tel, options_, report.restore_seconds, seg2,
                           report.replacement_provisioning, 1, report.resume_at);

  // Segment one ends at its durable count, so the shared stitcher's rule
  // matches the rollback; the whole crash -> resume window is an outage.
  report.training = ddnn::merge_train_segments(seg1, seg2, report.resume_at,
                                               report.resume_at - crash_at);
  report.achieved_loss = report.training.final_loss;

  // Billing: the original cluster is held until the master declares the node
  // dead; the replacement cluster from launch to the end of training (the
  // checkpoint restore happens on it, so its window includes the read).
  control_plane1.run_until(deployment1.ready_at + crash_at + options_.detection_seconds);
  manager1.teardown(deployment1);
  control_plane2.run_until(deployment2.ready_at + report.restore_seconds + seg2.total_time);
  manager2.teardown(deployment2);
  report.actual_cost = billing1.total(util::Seconds{control_plane1.now()});
  report.actual_cost += billing2.total(util::Seconds{control_plane2.now()});
  if (tel != nullptr) {
    cloud::journal_meter_settlement(tel->journal, billing1, util::Seconds{control_plane1.now()},
                                    telemetry::CostPhase::kTrain, telemetry::CostCause::kPlan,
                                    util::Seconds{deployment1.ready_at}, "original");
    cloud::journal_meter_settlement(tel->journal, billing2, util::Seconds{control_plane2.now()},
                                    telemetry::CostPhase::kTrain, telemetry::CostCause::kFault,
                                    util::Seconds{deployment2.ready_at}, "replacement");
  }
  add_replacement_costs(report, next, seg2, 1, options_.detection_seconds,
                        tel != nullptr ? &tel->journal : nullptr);

  report.time_goal_met = report.training.total_time <= goal.time_goal.value();
  report.loss_goal_met = report.achieved_loss <= goal.target_loss * 1.05;
  if (tel != nullptr) {
    tel->metrics.gauge(telemetry::metric::kBillingDollars).set(report.actual_cost.value());
    tel->journal.verdict(report.training.total_time, "time-goal", report.time_goal_met,
                         goal.time_goal.value(), report.training.total_time);
    if (goal.target_loss > 0.0) {
      tel->journal.verdict(report.training.total_time, "loss-goal", report.loss_goal_met,
                           goal.target_loss, report.achieved_loss);
    }
  }
  return report;
}

void RecoveryController::measure_baseline(const ddnn::WorkloadSpec& workload,
                                          const core::ProvisionPlan& plan,
                                          FaultRunReport& report) const {
  sim::Simulator control_plane;
  cloud::BillingMeter billing;
  ClusterManager manager(control_plane, billing, options_.seed);
  Deployment deployment = manager.deploy(plan);

  ddnn::TrainOptions train = options_.training;
  train.telemetry = nullptr;  // the baseline is a shadow run; keep the trace clean
  train.iterations = plan.total_iterations;
  train.seed = options_.seed;
  train.faults = nullptr;
  const ddnn::TrainResult baseline = ddnn::run_training(deployment.spec, workload, train);

  control_plane.run_until(deployment.ready_at + baseline.total_time);
  manager.teardown(deployment);
  report.baseline_seconds = baseline.total_time;
  report.baseline_cost = billing.total(util::Seconds{control_plane.now()});
  report.extra_seconds = report.training.total_time - baseline.total_time;
  report.extra_cost =
      util::Dollars{report.actual_cost.value() - report.baseline_cost.value()};
}

}  // namespace cynthia::orch
