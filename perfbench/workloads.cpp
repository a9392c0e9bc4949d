#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/analytic.hpp"
#include "core/trial_fields.hpp"
#include "device/registry.hpp"
#include "input/password.hpp"
#include "input/typist.hpp"
#include "obs/metrics.hpp"
#include "victim/catalog.hpp"

namespace perfbench {

using namespace animus;

void CheckResult::add(const CheckResult& other) {
  attempted += other.attempted;
  ok += other.ok;
  if (first_failure.empty()) first_failure = other.first_failure;
}

namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

template <typename R>
std::string encode(const R& value) {
  return runner::TrialCodec<R>::encode(value);
}

std::string slot_failure(const char* what, std::size_t slot) {
  return std::string(what) + " at slot " + std::to_string(slot);
}

}  // namespace

double counter_total(std::string_view name) {
  double total = 0.0;
  for (const auto& point : obs::global_registry().snapshot().points) {
    if (point.name == name) total += point.value;
  }
  return total;
}

// ------------------------------------------------------------ attack_campaign

AttackCampaign::AttackCampaign(const Options& options) : options_{options} {
  const auto panel = input::participant_panel();
  const auto devices = device::all_devices();
  const auto apps = victim::table_iv_apps();
  const int windows[] = {50, 75, 100, 125, 150, 175, 200};  // Fig. 7's D grid
  const std::size_t lengths[] = {4, 6, 8, 10, 12};          // Table III's lengths
  sim::Rng rng = sim::Rng{options.seed}.fork("attack_campaign");

  for (std::size_t i = 0; i < kCapture; ++i) {
    const std::size_t p = rng.index(panel.size());
    core::CaptureTrialConfig c;
    c.profile = devices[p % devices.size()];
    c.typist = panel[p];
    c.attacking_window = sim::ms(windows[i % std::size(windows)]);
    c.touches = 100;  // 10 strings x 10 characters
    c.seed = rng.next_u64();
    capture_.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < kPassword; ++i) {
    const std::size_t p = rng.index(panel.size());
    core::PasswordTrialConfig c;
    c.profile = devices[p % devices.size()];
    c.app = apps[p % apps.size()].spec;
    c.typist = panel[p];
    c.password = input::random_password(lengths[i % std::size(lengths)], rng);
    c.seed = rng.next_u64();
    password_.push_back(std::move(c));
  }
}

std::vector<std::string> AttackCampaign::fresh_world_encodings() const {
  std::vector<std::string> out;
  for (const auto& c : capture_) out.push_back(encode(core::run_capture_trial(c)));
  for (const auto& c : password_) out.push_back(encode(core::run_password_trial(c)));
  return out;
}

void AttackCampaign::prepare_oracle() {
  expected_ = fresh_world_encodings();
  reference_ok_.assign(expected_.size(), 1);
  if (options_.seed != kDefaultSeed) return;
  std::vector<std::string> reference =
      read_lines(options_.reference_dir + "/attack_campaign_seed1.txt");
  if (options_.corrupt_reference && !reference.empty()) reference[0] += "0";
  for (std::size_t slot = 0; slot < expected_.size(); ++slot) {
    reference_ok_[slot] = slot < reference.size() && reference[slot] == expected_[slot];
  }
}

void AttackCampaign::run_batch(Tracer* tracer) {
  for (const auto& c : capture_) {
    Scope span(tracer, "core.trial");
    capture_out_.push_back(session_.run(c));
  }
  for (const auto& c : password_) {
    Scope span(tracer, "core.trial");
    password_out_.push_back(session_.run(c));
  }
}

CheckResult AttackCampaign::check_batch() {
  CheckResult r;
  const auto judge = [&](std::size_t slot, const std::string& got) {
    ++r.attempted;
    if (got != expected_[slot]) {
      if (r.first_failure.empty()) r.first_failure = slot_failure("session != fresh World", slot);
    } else if (!reference_ok_[slot]) {
      if (r.first_failure.empty()) r.first_failure = slot_failure("reference mismatch", slot);
    } else {
      ++r.ok;
    }
  };
  for (std::size_t i = 0; i < capture_out_.size(); ++i) {
    judge(i % kCapture, encode(capture_out_[i]));
  }
  for (std::size_t i = 0; i < password_out_.size(); ++i) {
    judge(kCapture + i % kPassword, encode(password_out_[i]));
  }
  capture_out_.clear();
  password_out_.clear();
  return r;
}

// ------------------------------------------------------------ dbound_table

DBoundTable::DBoundTable(const Options& options) : options_{options} {
  const auto devices = device::all_devices();
  sim::Rng rng = sim::Rng{options.seed}.fork("dbound_table");
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    std::vector<std::size_t> order(devices.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.index(i)]);
    for (const std::size_t d : order) {
      core::DBoundTrialConfig c;
      c.profile = devices[d];
      c.seed = rng.next_u64();  // unused while deterministic, kept for replay
      c.tier = core::Tier::kAuto;
      configs_.push_back(std::move(c));
    }
  }
}

void DBoundTable::prepare_oracle() {
  // reference/table2_paper.txt: "<manufacturer>,<model>,<android>,<ms>"
  // per phone, the paper's Table II values.
  std::map<std::string, int> paper;
  for (const std::string& line : read_lines(options_.reference_dir + "/table2_paper.txt")) {
    const auto comma = line.rfind(',');
    if (comma == std::string::npos) throw std::runtime_error("bad table2 line: " + line);
    paper[line.substr(0, comma)] = std::stoi(line.substr(comma + 1));
  }
  paper_ms_.clear();
  closed_form_.clear();
  for (const auto& c : configs_) {
    const std::string key = c.profile.manufacturer + "," + c.profile.model + "," +
                            std::string(device::to_string(c.profile.version));
    const auto it = paper.find(key);
    if (it == paper.end()) throw std::runtime_error("no Table II value for " + key);
    paper_ms_.push_back(it->second);
    closed_form_.push_back(core::analytic::closed_form_d_upper_ms(c.profile, c.max_ms));
  }
  if (options_.corrupt_reference) ++paper_ms_[0];
  fallbacks_at_start_ = analytic_fallbacks_total();
}

void DBoundTable::run_batch(Tracer* tracer) {
  for (const auto& c : configs_) {
    Scope span(tracer, "core.trial");
    out_.push_back(session_.run(c));
  }
}

CheckResult DBoundTable::check_batch() {
  CheckResult r;
  const bool no_fallbacks = analytic_fallbacks_total() == fallbacks_at_start_;
  for (std::size_t i = 0; i < out_.size(); ++i) {
    const std::size_t slot = i % configs_.size();
    const auto& got = out_[i];
    ++r.attempted;
    const bool ok = no_fallbacks && got.probes > 0 && got.d_upper_ms == paper_ms_[slot] &&
                    got.d_upper_ms == closed_form_[slot];
    if (ok) {
      ++r.ok;
    } else if (r.first_failure.empty()) {
      r.first_failure = no_fallbacks ? slot_failure("d_upper_ms differs", slot)
                                     : std::string("analytic fallbacks were counted");
    }
  }
  if (out_.size() >= configs_.size()) {
    last_.assign(out_.end() - static_cast<std::ptrdiff_t>(configs_.size()), out_.end());
  }
  out_.clear();
  return r;
}

// ------------------------------------------------------------ prevalence_scan

PrevalenceScan::PrevalenceScan(const Options& options)
    : options_{options}, corpus_{2016} {
  sim::Rng rng = sim::Rng{options.seed}.fork("prevalence_scan");
  next_ = rng.index(corpus_.size());
  // The first app of the first batch after the warm-up one.
  if (options.corrupt_reference) corrupt_app_ = (next_ + kShard) % corpus_.size();
}

void PrevalenceScan::run_batch(Tracer* tracer) {
  const std::size_t n = corpus_.size();
  Done done;
  done.begin = next_;
  const std::size_t end = next_ + kShard;
  {
    Scope span(tracer, "analysis.range");
    done.counts = analysis::count_attack_prerequisites_range(corpus_, next_, std::min(end, n));
  }
  if (end > n) {
    Scope span(tracer, "analysis.range");
    const auto tail = analysis::count_attack_prerequisites_range(corpus_, 0, end - n);
    done.counts.total += tail.total;
    done.counts.saw_and_accessibility += tail.saw_and_accessibility;
    done.counts.addremove_and_saw += tail.addremove_and_saw;
    done.counts.custom_toast += tail.custom_toast;
    done.counts.parse_failures += tail.parse_failures;
  }
  next_ = end % n;
  out_.push_back(done);
}

CheckResult PrevalenceScan::check_batch() {
  CheckResult r;
  for (const Done& done : out_) {
    analysis::CorpusCounts truth;
    for (std::size_t k = 0; k < kShard; ++k) {
      const std::size_t i = (done.begin + k) % corpus_.size();
      ++truth.total;
      truth.saw_and_accessibility += corpus_.truth_saw_accessibility(i);
      truth.addremove_and_saw += corpus_.truth_saw_addremove(i);
      truth.custom_toast += corpus_.truth_custom_toast(i) != (i == corrupt_app_);
    }
    const auto& got = done.counts;
    r.attempted += kShard;
    if (got.total == truth.total && got.parse_failures == 0 &&
        got.saw_and_accessibility == truth.saw_and_accessibility &&
        got.addremove_and_saw == truth.addremove_and_saw &&
        got.custom_toast == truth.custom_toast) {
      r.ok += kShard;
    } else if (r.first_failure.empty()) {
      r.first_failure = "shard at app " + std::to_string(done.begin) + " differs from truth";
    }
  }
  out_.clear();
  return r;
}

// ------------------------------------------------------------ shard_probes

ShardProbes::ShardProbes(const Options& options) : options_{options} {
  const auto devices = device::all_devices();
  sim::Rng rng = sim::Rng{options.seed}.fork("shard_probes");
  for (std::size_t i = 0; i < kProbes; ++i) {
    core::OutcomeProbeConfig c;
    c.profile = devices[i % devices.size()];
    c.attacking_window = sim::ms(static_cast<int>(rng.uniform_int(40, 400)));
    c.duration = sim::seconds(3);
    c.deterministic = true;
    c.tier = core::Tier::kSim;
    configs_.push_back(std::move(c));
  }
  args_.run.root_seed = options.seed;
  args_.backend = "process";
  args_.shards = 2;
  args_.batch = 0;  // auto-sized frames
}

void ShardProbes::prepare_oracle() {
  expected_.clear();
  for (const auto& c : configs_) expected_.push_back(encode(core::analytic::run_probe(c)));
  if (options_.corrupt_reference) expected_[0] += "0";
}

void ShardProbes::run_batch(Tracer* tracer) {
  args_.checkpoint_out = options_.work_dir + "/shard-" + std::to_string(::getpid()) + "-" +
                         std::to_string(campaigns_++) + ".jsonl";
  {
    Scope span(tracer, "runner.campaign");
    out_ = runner::run_campaign(
        "shard_probes", configs_,
        [](const core::OutcomeProbeConfig& c, const runner::TrialContext&) {
          return core::TrialSession::local().run(c);
        },
        args_);
  }
  std::remove(args_.checkpoint_out.c_str());
}

CheckResult ShardProbes::check_batch() {
  CheckResult r;
  if (out_.results.empty()) return r;
  std::vector<char> failed(configs_.size(), 0);
  for (const auto& e : out_.errors) failed[e.index] = 1;
  last_encoded_.clear();
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    ++r.attempted;
    last_encoded_.push_back(encode(out_.results[i]));
    if (!failed[i] && last_encoded_.back() == expected_[i]) {
      ++r.ok;
    } else if (r.first_failure.empty()) {
      r.first_failure = slot_failure(failed[i] ? "trial error" : "probe != analytic", i);
    }
  }
  last_stats_ = out_.stats;
  out_ = {};
  return r;
}

// ------------------------------------------------------------ factory

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "attack_campaign") return std::make_unique<AttackCampaign>(options);
  if (options.workload == "dbound_table") return std::make_unique<DBoundTable>(options);
  if (options.workload == "prevalence_scan") return std::make_unique<PrevalenceScan>(options);
  if (options.workload == "shard_probes") return std::make_unique<ShardProbes>(options);
  throw std::runtime_error("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
