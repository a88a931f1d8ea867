// Host-time benchmark for Cynthia's three user paths. README.md beside this
// file has the workload, metric and layer tables; run.py builds and runs it.
//
//   perfbench --workload pipeline|fleet|recovery --seed N --seconds S
//             --trace 0|1 [--spans-out PATH]
//
// Every input is generated from --seed; the program sees only the generated
// jobs, traces and fault schedules. A run sets up (kSetupRepeats times; the
// median is setup_s), then repeats the workload's fixed unit of work (a
// pass: 20 pipeline jobs, one 10k-job fleet day, six fault runs) until
// --seconds have elapsed, and checks every output. With --trace 1 it sets up
// once, runs one untraced pass and one pass with spans around every call
// into a layer, and folds the spans into per-layer self times. The last
// stdout line is `PERFBENCH_REPORT {json}`.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/loss_model.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/recovery.hpp"
#include "orchestrator/sentinel.hpp"
#include "orchestrator/service.hpp"
#include "profiler/profiler.hpp"
#include "region/region.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cynthia;
using perfbench::now_seconds;
using perfbench::Scope;
using util::median;

constexpr int kSetupRepeats = 3;
constexpr long kPipelineJobs = 20;
constexpr long kFleetJobs = 10'000;
constexpr const char* kFleetRegion = "*=1536";

// ---------------------------------------------------------------- helpers

class Digest {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  void add(long v) { add(&v, sizeof v); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a 64
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Work counts of one set-up plus one traced pass (trace mode only).
struct Counts {
  double profiler_calls = 0, prior_iterations = 0;
  double planner_calls = 0, candidates = 0, pruned = 0, cache_hits = 0, cache_misses = 0;
  double deploy_calls = 0, replaced_nodes = 0;
  double events = 0, settles = 0, flows_resolved = 0, flows_avoided = 0;
  double train_sim_seconds = 0;  ///< simulated training time behind `events`
  double train_host_seconds = 0;  ///< host time of the layer that ran that training
  double journal_records = 0, mitigations = 0, segments = 0, replans = 0;
  double fleet_jobs = 0, fleet_replans = 0, fleet_attempts = 0;
  double sink_on_seconds = 0, sink_off_seconds = 0;  ///< same work, sink on vs off

  void add_planner(const core::PlannerStats& after, const core::PlannerStats& before) {
    planner_calls += static_cast<double>(after.plans - before.plans);
    candidates += static_cast<double>(after.candidates_evaluated - before.candidates_evaluated);
    pruned += static_cast<double>(after.candidates_pruned - before.candidates_pruned);
    cache_hits += static_cast<double>(after.cache_hits - before.cache_hits);
    cache_misses += static_cast<double>(after.cache_misses - before.cache_misses);
  }
  void add_sink(const telemetry::Telemetry& tel) {
    namespace metric = telemetry::metric;
    events += tel.metrics.counter_value(metric::kSimEvents);
    settles += tel.metrics.counter_value(metric::kFluidSettles);
    flows_resolved += tel.metrics.counter_value(metric::kFluidFlowsResolved);
    flows_avoided += tel.metrics.counter_value(metric::kFluidFlowsAvoided);
    journal_records += static_cast<double>(tel.journal.size());
  }
};

/// State of one benchmark run.
struct Bench {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;

  perfbench::SpanLog spans;
  Counts counts;
  long attempted = 0;  ///< operations run + checks made
  std::vector<std::string> failures;
  Digest digest;
  std::map<std::string, Metric> end_to_end, per_layer, reported;

  double timed_wall = 0.0;  ///< untraced timed phase
  int passes = 0;
  double untraced_pass_seconds = 0.0, traced_pass_seconds = 0.0;  ///< trace mode

  [[nodiscard]] int setup_repeats() const { return trace ? 1 : kSetupRepeats; }
  /// Counting is on while spans are (the traced set-up and pass).
  [[nodiscard]] Counts* counting() { return spans.enabled() ? &counts : nullptr; }
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// Runs the workload's timed phase. Untraced: passes until `seconds` have
/// elapsed and at least `min_passes` ran. Traced: one untraced pass, then
/// one traced pass of the same work. pass(i) must compare pass i > 0
/// against pass 0.
template <class Pass>
void timed_phase(Bench& b, int min_passes, Pass&& pass) {
  if (!b.trace) {
    const double t0 = now_seconds();
    while (b.passes < min_passes || now_seconds() - t0 < b.seconds) pass(b.passes++);
    b.timed_wall = now_seconds() - t0;
    return;
  }
  b.spans.set_enabled(false);
  double t0 = now_seconds();
  pass(b.passes++);
  b.untraced_pass_seconds = now_seconds() - t0;
  b.spans.set_enabled(true);
  t0 = now_seconds();
  {
    Scope s(b.spans, "pass");
    pass(b.passes++);
  }
  b.traced_pass_seconds = now_seconds() - t0;
  b.spans.set_enabled(false);  // checks after the timed phase are not traced
  b.timed_wall = b.untraced_pass_seconds;
}

/// Predictor::build composed from its layer calls (profile, then the loss
/// prior: a simulated prior run and the loss fit), so each is timed.
core::Predictor build_predictor(const ddnn::WorkloadSpec& workload,
                                const cloud::InstanceType& baseline,
                                const core::PredictorOptions& options, Bench& b) {
  profiler::ProfileResult profile = [&] {
    Scope s(b.spans, "profiler");
    return profiler::profile_workload(workload, baseline, options.profile);
  }();
  core::LossModel loss = [&] {
    Scope s(b.spans, "loss_prior");
    ddnn::TrainOptions prior;
    prior.iterations = options.loss_history_iterations;
    prior.seed = options.loss_history_seed;
    const auto cluster =
        ddnn::ClusterSpec::homogeneous(baseline, options.loss_history_workers, /*n_ps=*/1);
    const ddnn::TrainResult run = ddnn::run_training(cluster, workload, prior);
    if (Counts* c = b.counting()) c->prior_iterations += static_cast<double>(run.iterations);
    return core::LossModel::fit_run(workload.sync, run, options.loss_history_workers);
  }();
  if (Counts* c = b.counting()) c->profiler_calls += 1;
  return core::Predictor(std::move(profile), std::move(loss));
}

bool same_plan(const core::ProvisionPlan& a, const core::ProvisionPlan& b) {
  return a.feasible == b.feasible && a.type.name == b.type.name && a.n_workers == b.n_workers &&
         a.n_ps == b.n_ps && a.iterations == b.iterations &&
         a.total_iterations == b.total_iterations && a.t_iter == b.t_iter &&
         a.predicted_time.value() == b.predicted_time.value() &&
         a.predicted_cost.value() == b.predicted_cost.value();
}

void add_plan(Digest& d, const core::ProvisionPlan& plan) {
  d.add(plan.type.name);
  d.add(static_cast<long>(plan.n_workers));
  d.add(static_cast<long>(plan.n_ps));
  d.add(plan.total_iterations);
  d.add(plan.predicted_time.value());
  d.add(plan.predicted_cost.value());
}

// --------------------------------------------------------------- pipeline

struct PipelineJob {
  long id = 0;
  const ddnn::WorkloadSpec* workload = nullptr;
  core::ProvisionGoal goal;
};

/// kPipelineJobs jobs at the default traffic mix shares (11 mnist, 5
/// cifar10, 3 vgg19, 1 resnet32), shuffled by the seed. Each goal is drawn
/// from the loosest eighth of its workload's default Tg menu (and its loss
/// menu), so every plan stays small.
std::vector<PipelineJob> pipeline_jobs(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x70697065ull);
  std::vector<const service::WorkloadShare*> slots;
  for (const service::WorkloadShare& share : service::default_workload_mix()) {
    const long n = std::lround(share.weight * static_cast<double>(kPipelineJobs));
    for (long i = 0; i < n; ++i) slots.push_back(&share);
  }
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<PipelineJob> jobs;
  for (const service::WorkloadShare* share : slots) {
    PipelineJob job;
    job.id = static_cast<long>(jobs.size());
    job.workload = &ddnn::workload_by_name(share->workload);
    const double tg = rng.uniform(0.875 * share->tg_minutes_hi, share->tg_minutes_hi);
    const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(share->loss_choices.size()) - 1);
    job.goal = {util::minutes(tg), share->loss_choices[static_cast<std::size_t>(pick)]};
    jobs.push_back(job);
  }
  return jobs;
}

struct JobResult {
  core::ProvisionPlan plan;
  double train_seconds = 0.0;  ///< simulated
  double final_loss = 0.0;
  double cost = 0.0;
  bool time_met = false;
  bool loss_met = false;
  double host_seconds = 0.0;
  double decision_seconds = 0.0;  ///< profile + loss prior + Algorithm 1
};

JobResult from_report(const orch::JobReport& report) {
  JobResult r;
  r.plan = report.plan;
  r.train_seconds = report.training.total_time;
  r.final_loss = report.achieved_loss;
  r.cost = report.actual_cost.value();
  r.time_met = report.time_goal_met;
  r.loss_met = report.loss_goal_met;
  return r;
}

bool same_outcome(const JobResult& a, const JobResult& b) {
  return same_plan(a.plan, b.plan) && a.train_seconds == b.train_seconds &&
         a.final_loss == b.final_loss && a.cost == b.cost && a.time_met == b.time_met &&
         a.loss_met == b.loss_met;
}

/// The six steps of orch::TrainingService::submit, in its order, each
/// timed as its own layer: profile -> loss prior -> Algorithm 1 -> deploy
/// -> train -> bill.
JobResult run_pipeline_job(const PipelineJob& job, const orch::ServiceOptions& options, Bench& b) {
  const auto& catalog = cloud::Catalog::aws();
  const ddnn::WorkloadSpec& workload = *job.workload;
  JobResult r;
  const double t0 = now_seconds();
  Scope job_span(b.spans, "job", job.id);

  const core::Predictor predictor =
      build_predictor(workload, catalog.at(options.baseline_type), options.predictor, b);
  {
    Scope s(b.spans, "planner");
    auto types = options.instance_types;
    if (types.empty()) types = catalog.provisionable();
    const core::Provisioner provisioner(predictor.model(), predictor.loss(), std::move(types));
    r.plan = provisioner.plan(workload.sync, job.goal);
    if (Counts* c = b.counting()) c->add_planner(provisioner.stats(), {});
  }
  r.decision_seconds = now_seconds() - t0;
  if (!r.plan.feasible) throw std::runtime_error("pipeline job " + std::to_string(job.id) +
                                                 ": no plan meets the goal");

  sim::Simulator control_plane;
  cloud::BillingMeter billing;
  orch::ClusterManager manager(control_plane, billing, options.seed);
  orch::Deployment deployment = [&] {
    Scope s(b.spans, "deploy");
    return manager.deploy(r.plan);
  }();
  if (Counts* c = b.counting()) {
    c->deploy_calls += 1;
    c->replaced_nodes += deployment.replaced_nodes;
  }
  const ddnn::TrainResult training = [&] {
    Scope s(b.spans, "train");
    ddnn::TrainOptions train = options.training;
    train.iterations = r.plan.total_iterations;
    train.seed = options.seed;
    return ddnn::run_training(deployment.spec, workload, train);
  }();
  control_plane.run_until(deployment.ready_at + training.total_time);
  manager.teardown(deployment);

  r.train_seconds = training.total_time;
  r.final_loss = training.final_loss;
  r.cost = billing.total(util::Seconds{control_plane.now()}).value();
  r.time_met = training.total_time <= job.goal.time_goal.value();
  r.loss_met = training.final_loss <= job.goal.target_loss * 1.05;  // TrainingService's tolerance
  r.host_seconds = now_seconds() - t0;
  return r;
}

void run_pipeline(Bench& b) {
  const auto& catalog = cloud::Catalog::aws();
  const orch::ServiceOptions options;  // TrainingService defaults: the path reproduced
  const std::vector<PipelineJob> jobs = pipeline_jobs(b.seed);

  // Set-up: TrainingService::submit builds everything per job, so nothing is
  // shared; set-up is a warm-up submission of the cheapest zoo job.
  std::vector<double> setup;
  {
    Scope s(b.spans, "setup");
    const ddnn::WorkloadSpec& warm = ddnn::workload_by_name("vgg19");
    const core::ProvisionGoal warm_goal{util::minutes(240.0), 0.5};
    std::optional<JobResult> first;
    for (int i = 0; i < b.setup_repeats(); ++i) {
      Scope w(b.spans, "warmup");
      const double t0 = now_seconds();
      const auto report = orch::TrainingService(catalog, options).submit(warm, warm_goal);
      setup.push_back(now_seconds() - t0);
      b.expect(report.has_value(), "warm-up submit found no plan");
      if (!report) continue;
      if (first) b.expect(same_outcome(*first, from_report(*report)), "warm-up submit not repeatable");
      else first = from_report(*report);
    }
  }

  std::vector<JobResult> reference;
  std::vector<double> job_seconds, decision_seconds;
  timed_phase(b, 1, [&](int pass) {
    for (const PipelineJob& job : jobs) {
      ++b.attempted;
      JobResult r = run_pipeline_job(job, options, b);
      job_seconds.push_back(r.host_seconds);
      decision_seconds.push_back(r.decision_seconds);
      if (pass == 0) {
        reference.push_back(r);
      } else {
        b.expect(same_outcome(reference[static_cast<std::size_t>(job.id)], r),
                 "pipeline job " + std::to_string(job.id) + " changed across passes");
      }
    }
  });

  // Bit-for-bit check against TrainingService::submit (telemetry sink on),
  // on the first job of each workload in the list.
  std::set<std::string> checked;
  for (const PipelineJob& job : jobs) {
    if (!checked.insert(job.workload->name).second) continue;
    orch::ServiceOptions with_sink = options;
    telemetry::Telemetry tel;
    with_sink.training.telemetry = &tel;
    ++b.attempted;
    const double t0 = now_seconds();
    const auto report = orch::TrainingService(catalog, with_sink).submit(*job.workload, job.goal);
    const double seconds = now_seconds() - t0;
    const JobResult& mine = reference[static_cast<std::size_t>(job.id)];
    b.expect(report.has_value() && same_outcome(mine, from_report(*report)),
             "composed pipeline != TrainingService::submit on job " + std::to_string(job.id));
    if (b.trace) {
      b.counts.add_sink(tel);
      b.counts.train_sim_seconds += mine.train_seconds;
      for (const perfbench::Span& s : b.spans.spans()) {
        if (s.name == "train" && s.job == job.id) b.counts.train_host_seconds += s.end - s.start;
      }
      b.counts.sink_on_seconds += seconds;
      b.counts.sink_off_seconds += mine.host_seconds;  // pass 0 is untraced
    }
  }

  double met = 0, dollars = 0;
  std::vector<double> achieved, predicted;
  for (const JobResult& r : reference) {
    add_plan(b.digest, r.plan);
    b.digest.add(r.train_seconds);
    b.digest.add(r.final_loss);
    b.digest.add(r.cost);
    met += (r.time_met && r.loss_met) ? 1 : 0;
    dollars += r.cost;
    achieved.push_back(r.train_seconds);
    predicted.push_back(r.plan.predicted_time.value());
  }
  const double n = static_cast<double>(jobs.size());
  b.end_to_end["setup_s"] = {median(setup), "s"};
  b.end_to_end["jobs_per_s"] = {static_cast<double>(job_seconds.size()) / b.timed_wall, "jobs/s"};
  b.end_to_end["job_p50_s"] = {median(job_seconds), "s"};
  b.end_to_end["slo_attain_rate"] = {met / n, "fraction"};
  b.end_to_end["usd_per_job"] = {dollars / n, "USD"};
  b.reported["pred_err_pct"] = {util::mape_percent(achieved, predicted), "%"};
  b.reported["decision_p50_s"] = {median(decision_seconds), "s"};
}

// ------------------------------------------------------------------ fleet

/// One request per zoo workload at its loosest default goal; running these
/// builds every predictor and per-type provisioner the fleet trace needs.
std::vector<service::JobRequest> fleet_warmup_requests() {
  std::vector<service::JobRequest> requests;
  for (const service::WorkloadShare& share : service::default_workload_mix()) {
    service::JobRequest rq;
    rq.id = static_cast<long>(requests.size());
    rq.tenant = "warmup";
    rq.workload = share.workload;
    rq.goal = {util::minutes(share.tg_minutes_hi),
               *std::max_element(share.loss_choices.begin(), share.loss_choices.end())};
    requests.push_back(rq);
  }
  return requests;
}

void run_fleet(Bench& b) {
  const auto& catalog = cloud::Catalog::aws();
  service::TrafficOptions traffic;  // ext_service's 10k-job diurnal day
  traffic.jobs = kFleetJobs;
  traffic.horizon = util::hours(24.0);
  traffic.seed = b.seed;
  const std::vector<service::JobRequest> requests = service::TrafficGenerator(traffic).generate();
  service::ServeOptions serve;
  serve.seed = b.seed;
  const region::Region region = region::Region::parse(kFleetRegion, catalog);
  const std::vector<service::JobRequest> warmup = fleet_warmup_requests();

  std::vector<std::unique_ptr<service::ProvisioningService>> services;
  std::vector<double> setup;
  {
    Scope s(b.spans, "setup");
    for (int i = 0; i < b.setup_repeats(); ++i) {
      Scope w(b.spans, "warmup");
      const double t0 = now_seconds();
      auto svc = std::make_unique<service::ProvisioningService>(region, catalog, serve);
      const service::FleetResult warm = svc->run(warmup);
      setup.push_back(now_seconds() - t0);
      b.expect(warm.stats.completed == static_cast<long>(warmup.size()),
               "fleet warm-up did not complete every zoo job");
      services.push_back(std::move(svc));
    }
  }

  std::optional<service::FleetResult> reference;
  std::vector<double> loops;
  timed_phase(b, 4, [&](int pass) {
    service::ProvisioningService& svc = *services[static_cast<std::size_t>(pass) % services.size()];
    ++b.attempted;
    const double t0 = now_seconds();
    service::FleetResult result = [&] {
      Scope s(b.spans, "fleet_loop");
      return svc.run(requests);
    }();
    loops.push_back(now_seconds() - t0);
    if (reference) {
      b.expect(result.digest == reference->digest, "fleet digest changed on a warm rerun");
    } else {
      reference = std::move(result);
    }
  });
  const service::FleetStats& stats = reference->stats;

  ++b.attempted;
  const service::FleetResult cold =
      service::ProvisioningService(region, catalog, serve).run(requests);
  b.expect(cold.digest == reference->digest, "cold-run digest != warm-then-run digest");

  telemetry::Telemetry tel;
  ++b.attempted;
  const double t0 = now_seconds();
  const service::FleetResult with_sink = services.front()->run(requests, &tel);
  const double sink_seconds = now_seconds() - t0;
  b.expect(with_sink.digest == reference->digest, "attaching a sink changed the fleet digest");
  b.expect(telemetry::CostLedger::from(tel.journal).total().value() ==
               with_sink.stats.total_cost.value(),
           "CostLedger::total() != FleetStats.total_cost");
  if (b.trace) {
    b.counts.journal_records += static_cast<double>(tel.journal.size());
    b.counts.sink_on_seconds += sink_seconds;
    b.counts.sink_off_seconds += loops.front();  // pass 0 is untraced
    b.counts.fleet_jobs += static_cast<double>(stats.submitted);
    b.counts.fleet_replans += static_cast<double>(stats.replans);
    b.counts.fleet_attempts += static_cast<double>(stats.attempts);
    b.counts.planner_calls += static_cast<double>(stats.replans);
    b.counts.deploy_calls += static_cast<double>(stats.attempts);
  }

  std::vector<double> achieved, predicted;
  for (const service::JobOutcome& o : reference->outcomes) {
    if (o.state != service::JobState::kCompleted) continue;
    achieved.push_back(o.run_seconds.value());
    predicted.push_back(o.plan.predicted_time.value());
  }
  b.digest.add(static_cast<long>(reference->digest));
  const double submitted = static_cast<double>(stats.submitted);
  const double loop = median(loops);
  b.end_to_end["setup_s"] = {median(setup), "s"};
  b.end_to_end["jobs_per_s"] = {submitted / loop, "jobs/s"};
  b.end_to_end["job_p50_s"] = {loop / submitted, "s"};
  b.end_to_end["slo_attain_rate"] = {stats.slo_attain_rate, "fraction"};
  b.end_to_end["usd_per_job"] = {stats.total_cost.value() / submitted, "USD"};
  b.reported["pred_err_pct"] = {util::mape_percent(achieved, predicted), "%"};
  b.reported["utilization"] = {stats.utilization, "fraction"};
  b.reported["queue_wait_p99_s"] = {stats.queue_wait_p99.value(), "s"};
}

// --------------------------------------------------------------- recovery

struct Shape {
  const char* workload;
  int n_workers;
  int n_ps;
  long iterations;       ///< global budget
  double tg_factor;      ///< Tg = factor x the plan's fault-free prediction
  faults::FaultKind degradation;  ///< the sentinel run's permanent fault
};

// The wide BSP plan's budget is cut so one run costs a few host seconds.
// mnist is communication-bound, so its degradation is a NIC. The sentinel's
// Tg forecast overshoots early on ASP plans, so resnet32 gets a looser goal.
constexpr Shape kShapes[] = {
    {"cifar10", 12, 2, 1500, 1.5, faults::FaultKind::kSlowdown},
    {"mnist", 4, 1, 40000, 1.5, faults::FaultKind::kNicDegradation},
    {"resnet32", 8, 1, 3000, 2.5, faults::FaultKind::kSlowdown},
};

struct FaultCase {
  std::size_t shape = 0;
  bool sentinel = false;  ///< SloSentinel (auto policy) vs RecoveryController (elastic)
  core::ProvisionPlan plan;
  core::ProvisionGoal goal;
  faults::FaultSchedule schedule;
};

struct FaultOutcome {
  double train_seconds = 0.0, final_loss = 0.0, cost = 0.0;
  bool time_met = false, loss_met = false;
  long injected = 0;
  int mitigations = 0, segments = 1;
  bool replanned = false;
  std::string final_plan;
  double host_seconds = 0.0;
};

bool same_outcome(const FaultOutcome& a, const FaultOutcome& b) {
  return a.train_seconds == b.train_seconds && a.final_loss == b.final_loss && a.cost == b.cost &&
         a.time_met == b.time_met && a.loss_met == b.loss_met && a.injected == b.injected &&
         a.mitigations == b.mitigations && a.segments == b.segments &&
         a.replanned == b.replanned && a.final_plan == b.final_plan;
}

/// Two cases per shape: a permanent degradation of one worker under the
/// sentinel, and one worker crash under elastic recovery. Targets, times
/// (15-35% into the fault-free run, so every fault fires) and severities
/// come from the seed.
std::vector<FaultCase> fault_cases(std::uint64_t seed, const std::vector<core::Predictor>& predictors) {
  const cloud::InstanceType& m4 = cloud::Catalog::aws().at("m4.xlarge");
  util::Rng rng(seed ^ 0x7265636full);
  std::vector<FaultCase> cases;
  for (std::size_t i = 0; i < std::size(kShapes); ++i) {
    const Shape& shape = kShapes[i];
    const ddnn::WorkloadSpec& workload = ddnn::workload_by_name(shape.workload);
    FaultCase base;
    base.shape = i;
    base.plan.feasible = true;
    base.plan.type = m4;
    base.plan.n_workers = shape.n_workers;
    base.plan.n_ps = shape.n_ps;
    base.plan.total_iterations = shape.iterations;
    base.plan.iterations = workload.sync == ddnn::SyncMode::BSP
                               ? shape.iterations
                               : shape.iterations / shape.n_workers;
    const double predicted =
        predictors[i]
            .predict_time(ddnn::ClusterSpec::homogeneous(m4, shape.n_workers, shape.n_ps),
                          workload, shape.iterations)
            .value();
    base.goal = {util::Seconds{shape.tg_factor * predicted},
                 1.3 * predictors[i].loss().loss_at(static_cast<double>(base.plan.iterations),
                                                    shape.n_workers)};
    const auto worker = [&] {
      return static_cast<int>(rng.uniform_int(0, shape.n_workers - 1));
    };

    FaultCase degraded = base;
    degraded.sentinel = true;
    faults::FaultSpec deg;
    deg.kind = shape.degradation;
    deg.target = worker();
    deg.time_seconds = rng.uniform(0.15, 0.35) * predicted;
    deg.slowdown_factor = rng.uniform(2.5, 4.0);
    deg.degraded_fraction = rng.uniform(0.05, 0.15);
    deg.recovery_seconds = -1.0;  // permanent
    degraded.schedule.add(deg);
    cases.push_back(std::move(degraded));

    FaultCase crashed = base;
    faults::FaultSpec crash;
    crash.kind = faults::FaultKind::kCrash;
    crash.target = worker();
    crash.time_seconds = rng.uniform(0.15, 0.35) * predicted;
    crashed.schedule.add(crash);
    cases.push_back(std::move(crashed));
  }
  return cases;
}

FaultOutcome run_fault_case(const FaultCase& fc, const core::Provisioner& provisioner,
                            telemetry::Telemetry* sink, long id, Bench& b) {
  const ddnn::WorkloadSpec& workload = ddnn::workload_by_name(kShapes[fc.shape].workload);
  const core::PlannerStats before = provisioner.stats();
  FaultOutcome o;
  const auto common = [&o](const auto& report) {  // SentinelReport and FaultRunReport
    o.train_seconds = report.training.total_time;
    o.injected = report.training.faults.injected;
    o.final_loss = report.achieved_loss;
    o.cost = report.actual_cost.value();
    o.time_met = report.time_goal_met;
    o.loss_met = report.loss_goal_met;
    o.replanned = report.replanned;
  };
  const double t0 = now_seconds();
  if (fc.sentinel) {
    Scope s(b.spans, "sentinel", id);
    orch::SentinelOptions options;  // auto policy
    options.training.telemetry = sink;
    const orch::SentinelReport report =
        orch::SloSentinel(options).run(workload, fc.plan, fc.schedule, fc.goal, &provisioner);
    common(report);
    o.mitigations = static_cast<int>(report.mitigations.size());
    o.segments = report.segments;
    o.final_plan = (report.replanned ? report.replacement_plan : report.plan).describe();
  } else {
    Scope s(b.spans, "recovery", id);
    orch::RecoveryOptions options;
    options.elastic = true;
    options.training.telemetry = sink;
    const orch::FaultRunReport report = orch::RecoveryController(options).run(
        workload, fc.plan, fc.schedule, fc.goal, &provisioner);
    common(report);
    o.segments = report.replanned ? 2 : 1;
    o.final_plan = report.replacement_plan.describe();
  }
  o.host_seconds = now_seconds() - t0;
  if (Counts* c = b.counting()) {
    c->add_planner(provisioner.stats(), before);
    if (sink != nullptr) c->add_sink(*sink);
    c->train_sim_seconds += o.train_seconds;
    c->train_host_seconds += o.host_seconds;
    c->mitigations += o.mitigations;
    c->segments += o.segments;
    c->replans += o.replanned ? 1 : 0;
  }
  return o;
}

void run_recovery(Bench& b) {
  const auto& catalog = cloud::Catalog::aws();
  const cloud::InstanceType& baseline = catalog.at("m4.xlarge");
  const core::PredictorOptions predictor_options;

  // Set-up: the predictor and all-types provisioner per workload that the
  // re-planning paths search with.
  std::vector<core::Predictor> predictors;
  std::vector<std::unique_ptr<core::Provisioner>> provisioners;
  std::vector<double> setup;
  {
    Scope s(b.spans, "setup");
    for (int rep = 0; rep < b.setup_repeats(); ++rep) {
      predictors.clear();
      provisioners.clear();
      const double t0 = now_seconds();
      for (const Shape& shape : kShapes) {
        predictors.push_back(build_predictor(ddnn::workload_by_name(shape.workload), baseline,
                                             predictor_options, b));
        Scope p(b.spans, "planner");
        provisioners.push_back(std::make_unique<core::Provisioner>(
            predictors.back().model(), predictors.back().loss(), catalog.provisionable()));
      }
      setup.push_back(now_seconds() - t0);
    }
  }
  const std::vector<FaultCase> cases = fault_cases(b.seed, predictors);

  std::vector<FaultOutcome> reference;
  std::vector<double> run_seconds;
  double pass0_seconds = 0.0;
  timed_phase(b, 2, [&](int pass) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ++b.attempted;
      telemetry::Telemetry sink;  // attached as `cynthiactl report` runs do
      const FaultOutcome o = run_fault_case(cases[i], *provisioners[cases[i].shape], &sink,
                                            static_cast<long>(i), b);
      run_seconds.push_back(o.host_seconds);
      if (pass == 0) {
        reference.push_back(o);
        b.expect(o.injected >= 1, "fault case " + std::to_string(i) + ": no fault fired");
        b.expect(cases[i].sentinel ? o.mitigations > 0 : o.segments > 1,
                 "fault case " + std::to_string(i) + ": schedule did not trigger " +
                     (cases[i].sentinel ? "a mitigation" : "a re-plan"));
      } else {
        b.expect(same_outcome(reference[i], o),
                 "fault case " + std::to_string(i) + " changed across repeats");
      }
    }
    if (pass == 0) pass0_seconds = now_seconds() - t0;
  });

  // Sink on == sink off.
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ++b.attempted;
    const FaultOutcome o =
        run_fault_case(cases[i], *provisioners[cases[i].shape], nullptr, static_cast<long>(i), b);
    b.expect(same_outcome(reference[i], o),
             "fault case " + std::to_string(i) + " differs with the telemetry sink off");
  }
  if (b.trace) {
    b.counts.sink_on_seconds += pass0_seconds;
    b.counts.sink_off_seconds += now_seconds() - t0;
  }

  double met = 0, dollars = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FaultOutcome& o = reference[i];
    b.digest.add(o.train_seconds);
    b.digest.add(o.final_loss);
    b.digest.add(o.cost);
    b.digest.add(static_cast<long>(o.mitigations));
    b.digest.add(static_cast<long>(o.segments));
    b.digest.add(o.final_plan);
    met += (o.time_met && o.loss_met) ? 1 : 0;
    dollars += o.cost;
  }
  const double n = static_cast<double>(cases.size());
  b.end_to_end["setup_s"] = {median(setup), "s"};
  b.end_to_end["jobs_per_s"] = {static_cast<double>(run_seconds.size()) / b.timed_wall, "jobs/s"};
  b.end_to_end["job_p50_s"] = {median(run_seconds), "s"};
  b.end_to_end["slo_attain_rate"] = {met / n, "fraction"};
  b.end_to_end["usd_per_job"] = {dollars / n, "USD"};
}

// -------------------------------------------------------------- reporting

const char* const kLayers[] = {"profiler", "loss_prior", "planner",  "deploy",    "train",
                               "sentinel", "recovery",   "warmup",   "fleet_loop"};

void fill_per_layer(Bench& b) {
  const std::set<std::string> layers(std::begin(kLayers), std::end(kLayers));
  const perfbench::Ledger ledger = perfbench::fold(b.spans.spans(), layers);
  double layer_sum = 0.0;
  for (const auto& [name, seconds] : ledger.self_seconds) layer_sum += seconds;
  b.expect(ledger.nested && std::fabs(layer_sum + ledger.other - ledger.wall) <= 1e-9 * ledger.wall,
           "per-layer self times do not sum to the traced wall");
  const double wall = ledger.wall;
  const auto busy = [&](const char* layer) {
    const auto it = ledger.self_seconds.find(layer);
    return it == ledger.self_seconds.end() ? 0.0 : it->second;
  };
  for (const char* layer : kLayers) {
    b.per_layer[std::string(layer) + ".busy_share"] = {busy(layer) / wall, "fraction"};
    b.reported[std::string(layer) + ".busy_s"] = {busy(layer), "s"};
  }
  const Counts& c = b.counts;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double decision = busy("profiler") + busy("loss_prior") + busy("planner");
  auto& m = b.per_layer;
  m["traced_wall_s"] = {wall, "s"};
  m["other_s"] = {ledger.other, "s"};
  m["other_share"] = {ledger.other / wall, "fraction"};
  m["trace_overhead_s"] = {b.traced_pass_seconds - b.untraced_pass_seconds, "s"};
  m["profiler.calls"] = {c.profiler_calls, "count"};
  m["loss_prior.sim_iterations"] = {c.prior_iterations, "count"};
  m["loss_prior.share_of_decision"] = {ratio(busy("loss_prior"), decision), "fraction"};
  m["planner.calls"] = {c.planner_calls, "count"};
  m["planner.candidates_evaluated"] = {c.candidates, "count"};
  m["planner.cache_hit_rate"] = {ratio(c.cache_hits, c.cache_hits + c.cache_misses), "fraction"};
  m["planner.pruned_frac"] = {ratio(c.pruned, c.pruned + c.candidates), "fraction"};
  m["deploy.calls"] = {c.deploy_calls, "count"};
  m["deploy.replaced_nodes"] = {c.replaced_nodes, "count"};
  m["sim.events_fired"] = {c.events, "count"};
  m["sim.fluid_settles"] = {c.settles, "count"};
  m["sim.settles_per_event"] = {ratio(c.settles, c.events), "ratio"};
  m["sim.fluid_resolve_frac"] = {ratio(c.flows_resolved, c.flows_resolved + c.flows_avoided),
                                 "fraction"};
  m["train.sim_s_per_host_s"] = {ratio(c.train_sim_seconds, c.train_host_seconds), "s/s"};
  m["train.events_per_host_s"] = {ratio(c.events, c.train_host_seconds), "1/s"};
  m["sentinel.mitigations"] = {c.mitigations, "count"};
  m["recovery.segments"] = {c.segments, "count"};
  m["recovery.replans"] = {c.replans, "count"};
  m["telemetry.journal_records"] = {c.journal_records, "count"};
  m["telemetry.sink_overhead_s"] = {c.sink_on_seconds - c.sink_off_seconds, "s"};
  m["fleet.replans_per_job"] = {ratio(c.fleet_replans, c.fleet_jobs), "count/job"};
  m["fleet.attempts_per_job"] = {ratio(c.fleet_attempts, c.fleet_jobs), "count/job"};
  b.reported["train.host_us_per_event"] = {1e6 * ratio(c.train_host_seconds, c.events), "us"};
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":{\"value\":" + value + ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

void print_table(const char* title, const std::map<std::string, Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-30s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

bool optimised_build() {
#if defined(__OPTIMIZE__)
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pipeline|fleet|recovery --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") b.workload = value;
    else if (flag == "--seed") b.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") b.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") b.trace = value == "1";
    else if (flag == "--spans-out") spans_out = value;
    else return usage();
  }
  if (argc % 2 != 1 || !(b.seconds > 0.0)) return usage();
  if (!optimised_build()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a non-optimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d build=%s\n",
              b.workload.c_str(), static_cast<unsigned long long>(b.seed), b.seconds,
              b.trace ? 1 : 0, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  b.spans.set_enabled(b.trace);
  try {
    if (b.workload == "pipeline") run_pipeline(b);
    else if (b.workload == "fleet") run_fleet(b);
    else if (b.workload == "recovery") run_recovery(b);
    else return usage();
  } catch (const std::exception& e) {
    ++b.attempted;
    b.failures.push_back(std::string("exception: ") + e.what());
  }
  if (b.trace) {
    b.end_to_end.clear();  // end-to-end metrics come from untraced runs
    if (b.failures.empty()) fill_per_layer(b);
  }
  b.spans.set_enabled(false);
  if (!spans_out.empty() && !b.spans.write_chrome_trace(spans_out)) {
    b.failures.push_back("cannot write spans to " + spans_out);
  }

  const double failed = static_cast<double>(b.failures.size());
  b.reported["failed_frac"] = {failed / static_cast<double>(std::max(1L, b.attempted)), "fraction"};
  print_table("end-to-end:", b.end_to_end);
  print_table("per-layer:", b.per_layer);
  print_table("also reported:", b.reported);
  for (const std::string& f : b.failures) std::printf("FAILED: %s\n", f.c_str());

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(b.digest.value()));
  std::string failures = "[";
  for (const std::string& f : b.failures) failures += (failures.size() > 1 ? "," : "") + json_string(f);
  failures += "]";
  std::printf(
      "PERFBENCH_REPORT {\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"build_type\":%s,"
      "\"passes\":%d,\"attempted\":%ld,\"failed\":%zu,\"failures\":%s,\"digest\":\"%s\","
      "\"end_to_end\":%s,\"per_layer\":%s,\"reported\":%s}\n",
      json_string(b.workload).c_str(), static_cast<unsigned long long>(b.seed), b.trace ? 1 : 0,
      json_string(PERFBENCH_BUILD_TYPE).c_str(), b.passes, b.attempted, b.failures.size(),
      failures.c_str(), digest, json_metrics(b.end_to_end).c_str(),
      json_metrics(b.per_layer).c_str(), json_metrics(b.reported).c_str());
  return b.failures.empty() ? 0 : 1;
}
