// Shared support for the reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation. Binaries print aligned ASCII tables to stdout and also dump
// CSV series under bench_out/ for external plotting.
//
// Iteration scaling: several figures train 10,000 iterations per point
// (Table 1). Because the simulated iteration process is stationary after
// the pipeline warms up, total time is linear in the iteration count, so
// run_scaled() simulates a representative window and extrapolates to the
// full budget — each bench states when it does this. Loss values at the
// full count come from the workload's (noiseless) loss law.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "cloud/instance.hpp"
#include "ddnn/loss.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "telemetry/telemetry.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace cynthia::bench {

inline const cloud::InstanceType& m4() { return cloud::Catalog::aws().at("m4.xlarge"); }
inline const cloud::InstanceType& m1() { return cloud::Catalog::aws().at("m1.xlarge"); }
inline const cloud::InstanceType& r3() { return cloud::Catalog::aws().at("r3.xlarge"); }

/// Directory for CSV artifacts (created on demand).
inline std::string out_dir() {
  const char* env = std::getenv("CYNTHIA_BENCH_OUT");
  std::string dir = env ? env : "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Opt-in telemetry for bench binaries: construct from main's argv and pass
/// TrainOptions through apply(). Enabled by --trace-out F / --metrics-out F
/// (or the CYNTHIA_TRACE_OUT / CYNTHIA_METRICS_OUT environment variables);
/// disabled — the default — it is inert and the bench output is unchanged.
/// Successive runs within one bench land sequentially on a single trace
/// timeline; the files are written when the scope is destroyed.
class TelemetryScope {
 public:
  TelemetryScope(int argc, char** argv)
      : trace_path_(option(argc, argv, "--trace-out", "CYNTHIA_TRACE_OUT")),
        metrics_path_(option(argc, argv, "--metrics-out", "CYNTHIA_METRICS_OUT")) {}

  ~TelemetryScope() { flush(); }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  [[nodiscard]] bool enabled() const { return !trace_path_.empty() || !metrics_path_.empty(); }

  /// Attaches the sink to `options` when enabled; identity otherwise.
  [[nodiscard]] ddnn::TrainOptions apply(ddnn::TrainOptions options) {
    if (enabled()) options.telemetry = &tel_;
    return options;
  }

  [[nodiscard]] telemetry::Telemetry& sink() { return tel_; }

  /// Advances the trace clock past a run driven directly through
  /// run_training (run_scaled sequences its own runs), so the next run's
  /// spans start after this one on the shared timeline.
  void advance_timeline(double seconds) {
    tel_.advance_time_offset(util::Seconds{seconds});
  }

  /// Writes the trace/metrics files (idempotent; never throws — a failed
  /// write at exit only warns).
  void flush() noexcept {
    if (!enabled() || flushed_) return;
    flushed_ = true;
    try {
      if (!trace_path_.empty()) {
        tel_.tracer.write_chrome_json_file(trace_path_);
        std::printf("[trace] %s (%zu events)\n", trace_path_.c_str(), tel_.tracer.events().size());
      }
      if (!metrics_path_.empty()) {
        tel_.metrics.write_csv_file(metrics_path_);
        std::printf("[metrics] %s\n", metrics_path_.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "telemetry flush failed: %s\n", e.what());
    }
  }

 private:
  static std::string option(int argc, char** argv, std::string_view flag, const char* env) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (flag == argv[i]) return argv[i + 1];
    }
    const char* v = std::getenv(env);
    return v ? v : "";
  }

  telemetry::Telemetry tel_;
  std::string trace_path_;
  std::string metrics_path_;
  bool flushed_ = false;
};

struct ScaledResult {
  ddnn::TrainResult run;   ///< the simulated window (times already scaled)
  long full_iterations = 0;
  long simulated_iterations = 0;
  double scale = 1.0;
};

/// Runs `workload` for min(full_iterations, window) iterations and scales
/// the time aggregates to full_iterations. Loss is re-evaluated at the full
/// count from the workload's loss law. Utilizations/traces describe the
/// simulated window (they are intensive quantities).
inline ScaledResult run_scaled(const ddnn::ClusterSpec& cluster, const ddnn::WorkloadSpec& w,
                               long full_iterations, long window = 2000,
                               ddnn::TrainOptions options = {}) {
  ScaledResult out;
  out.full_iterations = full_iterations;
  out.simulated_iterations = std::min(full_iterations, window);
  options.iterations = out.simulated_iterations;
  out.run = ddnn::run_training(cluster, w, options);
  if (options.telemetry != nullptr) {
    // Sequence the next instrumented run after this one (unscaled window
    // time — that is how long the recorded spans actually cover). The
    // bundle call keeps the journal clock on the same composed timeline.
    options.telemetry->advance_time_offset(util::Seconds{out.run.total_time});
  }
  out.scale = static_cast<double>(full_iterations) / out.simulated_iterations;
  out.run.total_time *= out.scale;
  out.run.computation_time *= out.scale;
  out.run.communication_time *= out.scale;
  out.run.iterations = full_iterations;
  out.run.final_loss =
      ddnn::loss_model(w.loss(), w.sync, static_cast<double>(full_iterations), cluster.n_workers());
  return out;
}

/// Mean +/- stdev of the scaled total time over `reps` seeds (the paper
/// repeats every experiment three times).
struct TimedPoint {
  double mean = 0.0;
  double stddev = 0.0;
  ddnn::TrainResult representative;
};

inline TimedPoint repeat_scaled(const ddnn::ClusterSpec& cluster, const ddnn::WorkloadSpec& w,
                                long full_iterations, long window = 2000,
                                ddnn::TrainOptions options = {}, int reps = 3) {
  util::RunningStats stats;
  TimedPoint point;
  for (int i = 0; i < reps; ++i) {
    options.seed = 1 + static_cast<std::uint64_t>(i) * 7919;
    auto r = run_scaled(cluster, w, full_iterations, window, options);
    stats.add(r.run.total_time);
    if (i == 0) point.representative = std::move(r.run);
  }
  point.mean = stats.mean();
  point.stddev = stats.stddev();
  return point;
}

inline std::string fmt_mean_std(const TimedPoint& p, int precision = 0) {
  return util::Table::num(p.mean, precision) + " +/- " + util::Table::num(p.stddev, precision);
}

}  // namespace cynthia::bench
