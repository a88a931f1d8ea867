#include "orchestrator/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cloud/pricing.hpp"
#include "ddnn/loss.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/recovery.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace cynthia::orch {

namespace metric = telemetry::metric;

MitigationPolicy parse_mitigation_policy(const std::string& name) {
  if (name == "none") return MitigationPolicy::kNone;
  if (name == "replace") return MitigationPolicy::kReplace;
  if (name == "add-ps") return MitigationPolicy::kAddPs;
  if (name == "ssp") return MitigationPolicy::kSsp;
  if (name == "replan") return MitigationPolicy::kReplan;
  if (name == "auto") return MitigationPolicy::kAuto;
  throw std::invalid_argument("unknown mitigation policy '" + name +
                              "' (none|replace|add-ps|ssp|replan|auto)");
}

const char* to_string(MitigationPolicy policy) {
  switch (policy) {
    case MitigationPolicy::kNone: return "none";
    case MitigationPolicy::kReplace: return "replace";
    case MitigationPolicy::kAddPs: return "add-ps";
    case MitigationPolicy::kSsp: return "ssp";
    case MitigationPolicy::kReplan: return "replan";
    case MitigationPolicy::kAuto: return "auto";
  }
  return "?";
}

namespace {

/// Median of a scratch copy (n >= 1). Even n averages the middle pair.
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

// ----------------------------------------------------------- detector

StragglerDetector::StragglerDetector(Config config, std::vector<DetectionEvent>* detections,
                                     std::vector<MitigationRecord>* mitigations)
    : cfg_(config), detections_(detections), mitigations_(mitigations) {
  if (cfg_.thresholds.ewma_alpha <= 0.0 || cfg_.thresholds.ewma_alpha > 1.0) {
    throw std::invalid_argument("StragglerDetector: ewma_alpha must be in (0, 1]");
  }
  if (cfg_.thresholds.hysteresis_probes < 1) {
    throw std::invalid_argument("StragglerDetector: hysteresis_probes must be >= 1");
  }
}

ddnn::MonitorAction StragglerDetector::observe(const ddnn::HealthProbe& probe) {
  // A clock that moved backwards means run_training cut the segment and
  // resumed on a fresh simulator (the BSP -> SSP continuation): fold the
  // previous leg's span into the job-clock offset and keep the baselines.
  if (probe.now + 1e-12 < last_now_) {
    cfg_.elapsed_offset_seconds += last_now_;
    cooldown_until_ = std::max(0.0, cooldown_until_ - last_now_);
    last_iteration_ = 0;
    last_now_ = 0.0;
  }

  ++probes_;
  const int n = static_cast<int>(probe.worker_busy_seconds.size());
  if (static_cast<int>(ewma_.size()) != n) ewma_.assign(n, -1.0);
  const double alpha = cfg_.thresholds.ewma_alpha;
  for (int j = 0; j < n; ++j) {
    const double x = probe.worker_busy_seconds[j];
    if (x < 0.0) continue;
    ewma_[j] = ewma_[j] < 0.0 ? x : alpha * x + (1.0 - alpha) * ewma_[j];
  }
  if (probe.iteration > last_iteration_) {
    const double per_iter =
        (probe.now - last_now_) / static_cast<double>(probe.iteration - last_iteration_);
    iter_ewma_ = iter_ewma_ < 0.0 ? per_iter : alpha * per_iter + (1.0 - alpha) * iter_ewma_;
  }
  last_now_ = probe.now;
  last_iteration_ = probe.iteration;

  if (probes_ <= cfg_.thresholds.warmup_probes) return {};
  if (probe.now < cooldown_until_) return {};

  // --- straggler: robust z-score of the slowest baseline vs the cluster ---
  std::vector<double> panel;
  panel.reserve(ewma_.size());
  int worst = -1;
  double worst_val = -1.0;
  for (int j = 0; j < n; ++j) {
    if (ewma_[j] < 0.0 || probe.worker_busy_seconds[j] < 0.0) continue;
    panel.push_back(ewma_[j]);
    if (ewma_[j] > worst_val) {
      worst_val = ewma_[j];
      worst = j;
    }
  }
  bool straggler = false;
  double z = 0.0;
  if (panel.size() >= 3) {
    const double med = median_of(panel);
    std::vector<double> dev;
    dev.reserve(panel.size());
    for (double x : panel) dev.push_back(std::abs(x - med));
    const double mad = std::max(median_of(std::move(dev)), 1e-12);
    z = 0.6745 * (worst_val - med) / mad;
    // Both gates: the z-score alone explodes on a healthy near-uniform
    // cluster (tiny MAD), the ratio alone misses subtle-but-systematic
    // stragglers on a noisy one.
    straggler = worst_val >= med * cfg_.thresholds.min_ratio && z >= cfg_.thresholds.mad_z;
  }
  if (straggler && worst == straggler_worker_) {
    ++straggler_streak_;
  } else if (straggler) {
    straggler_worker_ = worst;
    straggler_streak_ = 1;
  } else {
    straggler_worker_ = -1;
    straggler_streak_ = 0;
  }

  // --- PS bottleneck: the fluid model's binding-constraint fractions ---
  const double sat =
      std::max(probe.ps_nic_saturated_fraction, probe.ps_cpu_saturated_fraction);
  if (sat >= cfg_.thresholds.ps_saturation_fraction) {
    ++ps_streak_;
  } else {
    ps_streak_ = 0;
  }

  // --- Tg forecast: measured rate projected over the remaining budget ---
  bool forecast_miss = false;
  double overrun = 0.0;
  if (cfg_.time_goal_seconds > 0.0 && iter_ewma_ > 0.0) {
    const long remaining =
        cfg_.total_iterations - (cfg_.iteration_offset + probe.iteration);
    const double projected = cfg_.elapsed_offset_seconds + probe.now +
                             iter_ewma_ * static_cast<double>(std::max<long>(0, remaining));
    const double budget = cfg_.time_goal_seconds * (1.0 - cfg_.thresholds.forecast_margin);
    overrun = projected / std::max(1e-12, budget);
    forecast_miss = projected > budget;
  }
  if (forecast_miss) {
    ++forecast_streak_;
  } else {
    forecast_streak_ = 0;
  }

  // Priority: a named straggler explains the symptom best; the PS bottleneck
  // explains a uniformly slow cluster; the forecast is the catch-all.
  const int h = cfg_.thresholds.hysteresis_probes;
  DetectionEvent event;
  event.at_seconds = cfg_.elapsed_offset_seconds + probe.now;
  if (straggler_streak_ >= h) {
    event.kind = "straggler";
    event.worker = straggler_worker_;
    event.severity = z;
  } else if (ps_streak_ >= h) {
    event.kind = "ps-bottleneck";
    event.severity = sat;
  } else if (forecast_streak_ >= h) {
    event.kind = "slo-forecast";
    event.severity = overrun;
  } else {
    return {};
  }
  return act(event, probe);
}

ddnn::MonitorAction StragglerDetector::act(const DetectionEvent& event,
                                           const ddnn::HealthProbe& probe) {
  if (detections_ != nullptr) detections_->push_back(event);
  // Every detection starts a cooldown — even an unactionable one — so a
  // persistent condition is reported once per window, not every probe.
  cooldown_until_ = probe.now + cfg_.thresholds.cooldown_seconds;
  straggler_streak_ = 0;
  straggler_worker_ = -1;
  ps_streak_ = 0;
  forecast_streak_ = 0;
  if (cfg_.policy == MitigationPolicy::kNone || cfg_.actions_remaining <= 0) return {};

  const bool is_auto = cfg_.policy == MitigationPolicy::kAuto;
  ddnn::MonitorAction action;
  MitigationRecord record;
  record.at_seconds = event.at_seconds;

  if (event.kind == "straggler") {
    if (is_auto || cfg_.policy == MitigationPolicy::kReplace) {
      if (event.worker < 0) return {};
      action.kind = ddnn::MonitorAction::Kind::kExcludeWorker;
      action.target = event.worker;
      action.replacement_after_seconds = cfg_.replacement_after_seconds;
      action.reason = "straggler:wk" + std::to_string(event.worker);
      record.action = "replace:wk" + std::to_string(event.worker);
      // The replacement is fresh hardware; its baseline starts over.
      if (event.worker < static_cast<int>(ewma_.size())) ewma_[event.worker] = -1.0;
    } else if (cfg_.policy == MitigationPolicy::kSsp) {
      if (probe.mode != ddnn::SyncMode::BSP || !cfg_.allow_ssp_downgrade) return {};
      action.kind = ddnn::MonitorAction::Kind::kDowngradeSsp;
      action.staleness_bound = cfg_.ssp_staleness_bound;
      action.reason = "straggler:wk" + std::to_string(event.worker);
      record.action = "ssp-downgrade";
    } else {
      return {};  // a forced add-ps/replan policy cannot address a straggler
    }
  } else if (event.kind == "ps-bottleneck") {
    if (is_auto || cfg_.policy == MitigationPolicy::kAddPs) {
      if (!cfg_.allow_stop) return {};
      action.kind = ddnn::MonitorAction::Kind::kStop;
      action.reason = "ps-bottleneck";
      record.action = "add-ps";
    } else {
      return {};
    }
  } else {  // slo-forecast
    const bool can_ssp =
        probe.mode == ddnn::SyncMode::BSP && cfg_.allow_ssp_downgrade;
    if ((cfg_.policy == MitigationPolicy::kSsp || is_auto) && can_ssp) {
      action.kind = ddnn::MonitorAction::Kind::kDowngradeSsp;
      action.staleness_bound = cfg_.ssp_staleness_bound;
      action.reason = "slo-forecast";
      record.action = "ssp-downgrade";
    } else if (cfg_.policy == MitigationPolicy::kSsp) {
      return {};  // forced ssp, but the downgrade is unavailable here
    } else if (is_auto || cfg_.policy == MitigationPolicy::kReplan) {
      if (!cfg_.allow_stop) return {};
      action.kind = ddnn::MonitorAction::Kind::kStop;
      action.reason = "replan";
      record.action = "replan";
    } else {
      return {};
    }
  }

  --cfg_.actions_remaining;
  record.detail = event.kind + " severity " + std::to_string(event.severity);
  if (mitigations_ != nullptr) mitigations_->push_back(std::move(record));
  return action;
}

// ----------------------------------------------------------- sentinel

SloSentinel::SloSentinel(SentinelOptions options) : options_(std::move(options)) {}

SentinelReport SloSentinel::run(const ddnn::WorkloadSpec& workload,
                                const core::ProvisionPlan& plan,
                                const faults::FaultSchedule& schedule,
                                const core::ProvisionGoal& goal,
                                const core::Provisioner* provisioner) const {
  if (!plan.feasible) throw std::invalid_argument("SloSentinel: infeasible plan");
  schedule.validate(plan.n_workers, plan.n_ps);

  SentinelReport report;
  report.plan = plan;
  const double restore_seconds =
      detail::restore_read_seconds(workload, options_.checkpoint_bandwidth_mbps);

  // Crash faults are repaired in place exactly as RecoveryController does:
  // each gets the measured detection + provisioning + restore recovery.
  faults::FaultSchedule enriched;
  std::vector<double> crash_provisioning;
  {
    std::size_t crash_index = 0;
    for (const faults::FaultSpec& spec : schedule.events()) {
      faults::FaultSpec event = spec;
      if (event.kind == faults::FaultKind::kCrash) {
        const double provision = detail::measure_replacement(
            plan, detail::replacement_seed(options_.seed, crash_index));
        crash_provisioning.push_back(provision);
        event.recovery_seconds = options_.detection_seconds + provision + restore_seconds;
        ++crash_index;
      }
      enriched.add(event);
    }
  }

  sim::Simulator control_plane;
  cloud::BillingMeter billing;
  ClusterManager manager(control_plane, billing, options_.seed);
  telemetry::Telemetry* tel = options_.training.telemetry;
  if (tel != nullptr) manager.set_telemetry(tel);
  Deployment deployment = manager.deploy(plan);
  report.provisioning_seconds = deployment.provisioning_seconds();

  // Blacklist-to-replacement-join delay for the replace mitigation, measured
  // once up front on a dedicated clock (a straggler replacement walks the
  // same kubeadm-join lifecycle as a crash replacement).
  const double replace_delay =
      options_.detection_seconds +
      detail::measure_replacement(plan, detail::replacement_seed(options_.seed, 97)) +
      restore_seconds;

  const long total_iterations = plan.total_iterations;

  // The SSP downgrade is only on the table when the loss goal survives the
  // staleness penalty: the loss model scales the whole curve by
  // sqrt(1 + bound), so the projected SSP loss at the full budget must
  // still clear l_g (with the verdict's 5% tolerance).
  bool ssp_downgrade_allowed = workload.sync == ddnn::SyncMode::BSP;
  if (ssp_downgrade_allowed && goal.target_loss > 0.0) {
    const double ssp_final = ddnn::loss_model(
        workload.loss_for(ddnn::SyncMode::SSP), ddnn::SyncMode::SSP,
        static_cast<double>(total_iterations), plan.n_workers,
        std::max(1, options_.ssp_staleness_bound));
    ssp_downgrade_allowed = ssp_final <= goal.target_loss * 1.05;
  }

  // ---- segment loop ----
  ddnn::ClusterSpec cluster = deployment.spec;
  ddnn::WorkloadSpec current_workload = workload;
  core::ProvisionPlan current_plan = plan;
  std::vector<int> excluded;
  double elapsed = 0.0;  ///< job clock at the current segment's start
  double gap = 0.0;      ///< reconfiguration pause before the current segment
  long done = 0;
  int actions_remaining = options_.max_actions;
  bool forecast_enabled = true;
  ddnn::TrainResult merged;
  bool have_merged = false;
  ddnn::CarriedSchedule carried;
  carried.schedule = enriched;
  const ddnn::CarriedSchedule* carried_ptr = nullptr;  ///< dedup for the merge

  /// Nodes billed on top of the original deployment, from `from_seconds`
  /// (job clock, includes their provisioning lead) to the end of the job.
  struct ExtraNodes {
    cloud::InstanceType type;
    int n_workers = 0;
    int n_ps = 0;
    double from_seconds = 0.0;
  };
  std::vector<ExtraNodes> extras;
  double original_held_until = -1.0;  ///< < 0: until the job ends

  const int max_segments = options_.max_actions + 2;
  for (int seg_i = 0; seg_i < max_segments; ++seg_i) {
    StragglerDetector::Config dcfg;
    dcfg.thresholds = options_.thresholds;
    dcfg.policy = options_.policy;
    dcfg.time_goal_seconds = forecast_enabled ? goal.time_goal.value() : 0.0;
    dcfg.elapsed_offset_seconds = elapsed;
    dcfg.iteration_offset = done;
    dcfg.total_iterations = total_iterations;
    dcfg.replacement_after_seconds = replace_delay;
    dcfg.ssp_staleness_bound = options_.ssp_staleness_bound;
    dcfg.allow_ssp_downgrade = ssp_downgrade_allowed;
    dcfg.actions_remaining = actions_remaining;
    dcfg.allow_stop = seg_i + 1 < max_segments;
    StragglerDetector detector(dcfg, &report.detections, &report.mitigations);

    ddnn::TrainOptions o = options_.training;
    o.iterations = total_iterations - done;
    o.seed = seg_i == 0 ? options_.seed
                        : detail::replacement_seed(options_.seed, 400 + seg_i);
    o.faults = carried.schedule.empty() ? nullptr : &carried.schedule;
    o.loss_iteration_offset = done;
    o.monitor = options_.enabled ? &detector : nullptr;
    o.excluded_workers = excluded;
    o.stop_after_seconds = 0.0;

    ddnn::TrainResult seg;
    {
      const telemetry::ScopedTimeOffset shift(tel, util::Seconds{elapsed});
      seg = ddnn::run_training(cluster, current_workload, o);
    }
    actions_remaining = detector.actions_remaining();

    // run_training services the BSP -> SSP downgrade internally; later
    // segments must continue under the downgraded discipline.
    if (seg.monitor.downgraded && current_workload.sync == ddnn::SyncMode::BSP) {
      current_workload.sync = ddnn::SyncMode::SSP;
      current_workload.ssp_staleness_bound = std::max(1, seg.monitor.staleness_bound);
    }

    const double cut = seg.total_time;  // segment clock
    const long seg_iterations = seg.iterations;
    if (!have_merged) {
      merged = std::move(seg);
      have_merged = true;
    } else {
      merged = ddnn::merge_train_segments(merged, seg, elapsed, gap, carried_ptr);
    }
    report.segments = seg_i + 1;
    done = merged.iterations;

    if (tel != nullptr) {
      const double actual_t_iter =
          cut / static_cast<double>(std::max<long>(1, seg_iterations));
      tel->journal.segment(elapsed, "segment-" + std::to_string(seg_i),
                           merged.monitor.stopped ? merged.monitor.stop_reason : "completed",
                           seg_iterations, current_plan.t_iter, actual_t_iter, cut);
    }

    if (!merged.monitor.stopped) break;  // the budget completed (or a fault cut it)

    // ---- service the cut ----
    const std::string reason = merged.monitor.stop_reason;
    double next_gap = 0.0;
    bool carry_active = true;

    if (reason == "ps-bottleneck") {
      // Add one PS shard of the same type; resharding re-reads the
      // parameter payload onto the new shard before training resumes.
      const double provision = detail::measure_replacement(
          current_plan, detail::replacement_seed(options_.seed, 200 + seg_i));
      next_gap = options_.detection_seconds + provision + restore_seconds;
      current_plan.n_ps += 1;
      cluster = ddnn::ClusterSpec::homogeneous(current_plan.type, current_plan.n_workers,
                                               current_plan.n_ps);
      extras.push_back({current_plan.type, 0, 1,
                        elapsed + cut + options_.detection_seconds});
      report.added_ps += 1;
      if (!report.mitigations.empty() && report.mitigations.back().action == "add-ps") {
        report.mitigations.back().detail +=
            "; now " + std::to_string(current_plan.n_ps) + " PS shards";
      }
    } else if (reason == "replan") {
      core::ProvisionPlan next;
      next.feasible = false;
      if (provisioner != nullptr) {
        // Capability derate: how much slower the cluster measured than the
        // model predicted; the replan holds the forecast margin as slack.
        const double measured_t_iter =
            cut / static_cast<double>(std::max<long>(1, seg.iterations));
        double derate = 1.0;
        if (current_plan.t_iter > 0.0 && measured_t_iter > current_plan.t_iter) {
          derate = current_plan.t_iter / measured_t_iter;
        }
        derate = std::clamp(derate, 0.05, 1.0);
        const double budget = goal.time_goal.value() - (elapsed + cut) -
                              options_.detection_seconds - restore_seconds;
        core::Provisioner::ReplanDegradation degradation;
        degradation.capability_derate = derate;
        degradation.slack_margin = options_.thresholds.forecast_margin;
        next = provisioner->replan(current_workload.sync, total_iterations - done,
                                   util::Seconds{budget}, {}, degradation);
      }
      if (next.feasible) {
        report.replanned = true;
        report.replacement_plan = next;
        sim::Simulator control_plane2;
        cloud::BillingMeter billing2;
        ClusterManager manager2(control_plane2, billing2,
                                detail::replacement_seed(options_.seed, 300 + seg_i));
        Deployment deployment2 = manager2.deploy(next);
        const double provision2 = deployment2.provisioning_seconds();
        cluster = deployment2.spec;
        manager2.teardown(deployment2);
        next_gap = options_.detection_seconds + provision2 + restore_seconds;
        // Billing switches clusters: the original is released once the
        // master commits to the replan; the new one runs to the end.
        if (original_held_until < 0.0) {
          original_held_until = elapsed + cut + options_.detection_seconds;
        }
        extras.push_back({next.type, next.n_workers, next.n_ps,
                          elapsed + cut + options_.detection_seconds});
        current_plan = next;
        excluded.clear();       // the new cluster has no blacklist history
        carry_active = false;   // ... and fresh, undegraded hardware
        if (!report.mitigations.empty() && report.mitigations.back().action == "replan") {
          report.mitigations.back().detail += "; -> " + next.type.name + " x" +
                                              std::to_string(next.n_workers) + "wk/" +
                                              std::to_string(next.n_ps) + "ps";
        }
      } else {
        // No feasible reshape: fall back to the SSP downgrade if still BSP
        // and the loss goal tolerates it, and stop forecasting either way
        // (nothing left to escalate to).
        forecast_enabled = false;
        if (ssp_downgrade_allowed && current_workload.sync == ddnn::SyncMode::BSP) {
          current_workload.sync = ddnn::SyncMode::SSP;
          current_workload.ssp_staleness_bound = std::max(1, options_.ssp_staleness_bound);
          merged.monitor.downgraded = true;
          merged.monitor.downgraded_at = elapsed + cut;
          merged.monitor.downgraded_at_iteration = done;
          merged.monitor.staleness_bound = current_workload.ssp_staleness_bound;
          if (!report.mitigations.empty() && report.mitigations.back().action == "replan") {
            report.mitigations.back().action = "ssp-downgrade";
            report.mitigations.back().detail += "; replan infeasible";
          }
        }
      }
    }
    // Unknown reasons resume on the same cluster with no pause.

    // Blacklisted workers whose replacement had not joined by the cut stay
    // out on a same-node continuation (the pending join died with the cut).
    if (carry_active) {
      for (const ddnn::MonitorExclusion& e : seg.monitor.exclusions) {
        if (e.replaced_at >= 0.0 && e.replaced_at <= cut) continue;
        excluded.push_back(e.worker);
      }
      std::sort(excluded.begin(), excluded.end());
      excluded.erase(std::unique(excluded.begin(), excluded.end()), excluded.end());
    }

    carried = ddnn::carry_schedule(carried.schedule, seg.faults.events, cut, next_gap,
                                   cluster.n_workers(), cluster.n_ps(), carry_active);
    carried_ptr = &carried;
    elapsed += cut + next_gap;
    gap = next_gap;
  }

  report.training = std::move(merged);
  report.achieved_loss = report.training.final_loss;
  const double job_end = report.training.total_time;

  // ---- billing ----
  // Original deployment: actual meter from launch until release (job end,
  // or the replan handoff).
  const double held = original_held_until >= 0.0 ? original_held_until : job_end;
  control_plane.run_until(deployment.ready_at + held);
  manager.teardown(deployment);
  report.actual_cost = billing.total(util::Seconds{control_plane.now()});
  // Each `+=` below is mirrored as one journal billing settlement, so the
  // cost ledger's grouped fold reproduces this chain bit-for-bit.
  if (tel != nullptr) {
    cloud::journal_meter_settlement(tel->journal, billing, util::Seconds{control_plane.now()},
                                    telemetry::CostPhase::kTrain, telemetry::CostCause::kPlan,
                                    util::Seconds{deployment.ready_at}, "original");
  }
  auto journal_cost = [&](telemetry::CostPhase phase, telemetry::CostCause cause,
                          const std::string& node, double dollars, const std::string& what) {
    if (tel == nullptr) return;
    tel->journal.billing_delta(job_end, tel->journal.next_settlement(), phase, cause, node,
                               dollars, what);
  };
  // Added shards / the replanned cluster: Eq. 8 over their lease windows.
  int extra_index = 0;
  for (const ExtraNodes& extra : extras) {
    const double window = std::max(0.0, job_end - extra.from_seconds);
    const util::Dollars dollars =
        core::plan_cost(extra.type, extra.n_workers, extra.n_ps, util::Seconds{window});
    report.actual_cost += dollars;
    journal_cost(telemetry::CostPhase::kMitigate, telemetry::CostCause::kSentinelAction,
                 "extra-" + std::to_string(extra_index++), dollars.value(),
                 extra.type.name + " +" + std::to_string(extra.n_workers) + "wk/" +
                     std::to_string(extra.n_ps) + "ps");
  }
  // Straggler replacements: one node each from blacklist+detection to end.
  for (const ddnn::MonitorExclusion& e : report.training.monitor.exclusions) {
    if (e.replaced_at < 0.0) continue;  // permanent blacklist, no new node
    const double window = std::max(0.0, job_end - (e.at + options_.detection_seconds));
    const util::Dollars dollars =
        core::plan_cost(report.plan.type, 1, 0, util::Seconds{window});
    report.actual_cost += dollars;
    journal_cost(telemetry::CostPhase::kMitigate, telemetry::CostCause::kSentinelAction,
                 "replace-wk" + std::to_string(e.worker), dollars.value(),
                 report.plan.type.name);
  }
  // Crash replacements (repair-in-place), mirroring RecoveryController.
  {
    std::size_t k = 0;
    for (const ddnn::FaultEventOutcome& outcome : report.training.faults.events) {
      if (outcome.spec.kind != faults::FaultKind::kCrash) continue;
      if (k >= crash_provisioning.size()) break;
      const double provision = crash_provisioning[k++];
      if (!outcome.fired) continue;
      const double tail =
          job_end - (outcome.injected_at + options_.detection_seconds + provision);
      const double window = provision + std::max(0.0, tail);
      const util::Dollars dollars =
          core::plan_cost(report.plan.type, 1, 0, util::Seconds{window});
      report.actual_cost += dollars;
      journal_cost(telemetry::CostPhase::kRecover, telemetry::CostCause::kFault,
                   "crash-replacement-" + std::to_string(k - 1), dollars.value(),
                   report.plan.type.name);
    }
  }

  report.time_goal_met = job_end <= goal.time_goal.value();
  report.loss_goal_met = report.achieved_loss <= goal.target_loss * 1.05;

  if (tel != nullptr) {
    auto& mtr = tel->metrics;
    if (!report.detections.empty()) {
      mtr.counter(metric::kSentinelDetections)
          .inc(static_cast<double>(report.detections.size()));
    }
    if (!report.mitigations.empty()) {
      mtr.counter(metric::kSentinelMitigations)
          .inc(static_cast<double>(report.mitigations.size()));
    }
    if (report.training.monitor.downgraded) mtr.counter(metric::kSentinelSspDowngrades).inc();
    if (report.added_ps > 0) {
      mtr.counter(metric::kSentinelAddedPs).inc(static_cast<double>(report.added_ps));
    }
    if (report.replanned) mtr.counter(metric::kSentinelReplans).inc();
    // The gauge holds the fully-attributed job cost; the journal's cost
    // ledger sums to exactly this value.
    mtr.gauge(metric::kBillingDollars).set(report.actual_cost.value());

    for (const DetectionEvent& d : report.detections) {
      tel->journal.event(
          d.at_seconds, telemetry::JournalKind::kDetection,
          d.worker >= 0 ? d.kind + ":wk" + std::to_string(d.worker) : d.kind,
          "severity " + std::to_string(d.severity), d.severity);
    }
    for (const MitigationRecord& m : report.mitigations) {
      tel->journal.event(m.at_seconds, telemetry::JournalKind::kMitigation, m.action, m.detail);
    }
    if (report.replanned) {
      tel->journal.event(job_end, telemetry::JournalKind::kReplan, "sentinel",
                         "replan -> " + report.replacement_plan.describe());
    }
    tel->journal.verdict(job_end, "time-goal", report.time_goal_met, goal.time_goal.value(),
                         job_end);
    if (goal.target_loss > 0.0) {
      tel->journal.verdict(job_end, "loss-goal", report.loss_goal_met, goal.target_loss,
                           report.achieved_loss);
    }
    if (plan.predicted_cost.value() > 0.0) {
      tel->journal.verdict(job_end, "cost",
                           report.actual_cost.value() <= plan.predicted_cost.value() * 1.1,
                           plan.predicted_cost.value(), report.actual_cost.value());
    }
  }
  return report;
}

}  // namespace cynthia::orch
