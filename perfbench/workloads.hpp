// The benchmark's four workloads. Each one is a closed loop with one
// client: run_batch() runs one fixed-mix batch through the program's
// public entry points and keeps the outputs; check_batch() compares
// them with the workload's oracle outside the timed region and forgets
// them, so the process does not grow while it is measured.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/corpus.hpp"
#include "core/attack_analysis.hpp"
#include "core/report.hpp"
#include "core/trial_session.hpp"
#include "runner/bench_cli.hpp"
#include "tracer.hpp"

namespace perfbench {

/// The seed at which the attack campaign is also compared with the
/// results recorded in reference/attack_campaign_seed1.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::string reference_dir = "perfbench/reference";
  std::string work_dir = ".bench_build/run";  ///< checkpoints and traces
  /// Self-test: alter one value of the workload's oracle, so the run
  /// must report ok_frac < 1.
  bool corrupt_reference = false;
};

struct CheckResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::string first_failure;  ///< "" when every item passed

  void add(const CheckResult& other);
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t items_per_batch() const = 0;
  /// Compute what check_batch() compares against. Not part of set-up
  /// time: it runs the slow reference paths.
  virtual void prepare_oracle() = 0;
  /// One fixed-mix batch. `tracer` may be null (untraced run).
  virtual void run_batch(Tracer* tracer) = 0;
  /// Check the outputs kept since the last call; call it after every
  /// batch.
  virtual CheckResult check_batch() = 0;
};

/// Throws std::runtime_error for an unknown workload name or a missing
/// reference file.
std::unique_ptr<Workload> make_workload(const Options& options);

/// Sim-tier Fig. 7 capture trials and Table III password trials in the
/// full reproduction's 1,050 : 1,680 ratio (4 x (15 + 24) per batch),
/// one thread, one session.
class AttackCampaign final : public Workload {
 public:
  static constexpr std::size_t kCapture = 60;
  static constexpr std::size_t kPassword = 96;

  explicit AttackCampaign(const Options& options);
  [[nodiscard]] std::size_t items_per_batch() const override { return kCapture + kPassword; }
  void prepare_oracle() override;
  void run_batch(Tracer* tracer) override;
  CheckResult check_batch() override;

  /// Fresh-World encodings of every slot, capture trials first.
  [[nodiscard]] std::vector<std::string> fresh_world_encodings() const;
  [[nodiscard]] const std::vector<animus::core::CaptureTrialConfig>& capture() const {
    return capture_;
  }
  [[nodiscard]] animus::core::TrialSession& session() { return session_; }

 private:
  Options options_;
  std::vector<animus::core::CaptureTrialConfig> capture_;
  std::vector<animus::core::PasswordTrialConfig> password_;
  animus::core::TrialSession session_;
  std::vector<std::string> expected_;      ///< by slot
  std::vector<char> reference_ok_;         ///< by slot; 1 unless the reference disagrees
  std::vector<animus::core::CaptureTrialResult> capture_out_;
  std::vector<animus::core::PasswordTrialResult> password_out_;
};

/// Table II: the D-bound search over all 30 devices at --tier=auto,
/// kPasses times per batch, each pass in its own seed-shuffled order.
class DBoundTable final : public Workload {
 public:
  static constexpr std::size_t kPasses = 4;

  explicit DBoundTable(const Options& options);
  [[nodiscard]] std::size_t items_per_batch() const override { return configs_.size(); }
  void prepare_oracle() override;
  void run_batch(Tracer* tracer) override;
  CheckResult check_batch() override;

  [[nodiscard]] const std::vector<animus::core::DBoundTrialConfig>& configs() const {
    return configs_;
  }
  [[nodiscard]] const std::vector<animus::core::DBoundTrialResult>& last_results() const {
    return last_;
  }

 private:
  Options options_;
  std::vector<animus::core::DBoundTrialConfig> configs_;
  std::vector<int> paper_ms_;     ///< Table II value by slot
  std::vector<int> closed_form_;  ///< closed_form_d_upper_ms by slot
  double fallbacks_at_start_ = 0.0;
  animus::core::TrialSession session_;
  std::vector<animus::core::DBoundTrialResult> out_;
  std::vector<animus::core::DBoundTrialResult> last_;
};

/// The prevalence scan, 4 x 8,192 contiguous apps per batch, wrapping
/// around the 890,855-app corpus.
class PrevalenceScan final : public Workload {
 public:
  static constexpr std::size_t kShard = 4 * 8192;

  explicit PrevalenceScan(const Options& options);
  [[nodiscard]] std::size_t items_per_batch() const override { return kShard; }
  void prepare_oracle() override {}
  void run_batch(Tracer* tracer) override;
  CheckResult check_batch() override;

  [[nodiscard]] const animus::analysis::Corpus& corpus() const { return corpus_; }
  [[nodiscard]] std::size_t next_begin() const { return next_; }

 private:
  struct Done {
    std::size_t begin = 0;
    animus::analysis::CorpusCounts counts;
  };
  Options options_;
  animus::analysis::Corpus corpus_;
  std::size_t next_ = 0;
  std::size_t corrupt_app_ = static_cast<std::size_t>(-1);  ///< app whose truth is flipped
  std::vector<Done> out_;
};

/// 1,024 sim-tier outcome probes per run_campaign, on two forked shard
/// workers with auto-sized frames and a checkpoint file.
class ShardProbes final : public Workload {
 public:
  static constexpr std::size_t kProbes = 1024;

  explicit ShardProbes(const Options& options);
  [[nodiscard]] std::size_t items_per_batch() const override { return configs_.size(); }
  void prepare_oracle() override;
  void run_batch(Tracer* tracer) override;
  CheckResult check_batch() override;

  [[nodiscard]] const std::vector<animus::core::OutcomeProbeConfig>& configs() const {
    return configs_;
  }
  [[nodiscard]] const animus::runner::SweepStats& last_stats() const { return last_stats_; }
  [[nodiscard]] const std::vector<std::string>& last_encoded() const { return last_encoded_; }

 private:
  Options options_;
  std::vector<animus::core::OutcomeProbeConfig> configs_;
  animus::runner::BenchArgs args_;
  std::size_t campaigns_ = 0;
  std::vector<std::string> expected_;  ///< analytic-tier encodings by slot
  animus::runner::SweepResult<animus::core::OutcomeProbe> out_;
  animus::runner::SweepStats last_stats_;
  std::vector<std::string> last_encoded_;
};

/// A counter of obs::global_registry() summed over all its label sets.
double counter_total(std::string_view name);

/// Sum of animus_analytic_fallbacks_total over every scenario label.
inline double analytic_fallbacks_total() {
  return counter_total("animus_analytic_fallbacks_total");
}

}  // namespace perfbench
