#include "ledger.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "analysis/dex.hpp"
#include "analysis/manifest.hpp"
#include "analysis/scanner.hpp"
#include "core/analytic.hpp"
#include "core/trial_fields.hpp"
#include "device/registry.hpp"
#include "input/typist.hpp"
#include "obs/metrics.hpp"
#include "runner/backend.hpp"
#include "runner/checkpoint.hpp"
#include "sim/event_loop.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace animus;

namespace {

// Fixed amounts of work per ledger section: large enough for a stable
// median, small enough that the whole ledger stays within a few seconds.
constexpr int kAttackBatches = 3;
constexpr int kDBoundBatches = 1;
constexpr int kCampaigns = 6;
constexpr std::size_t kApps = 4096;

struct SimCounters {
  double worlds = counter_total("animus_worlds_total");
  double executed = counter_total("animus_events_executed_total");
  double cancelled = counter_total("animus_events_cancelled_total");
  double windows = counter_total("animus_windows_added_total");
  double binder = counter_total("animus_binder_transactions_total");
};

/// Durations (ns) of the spans named `name` stored from index `from` on.
std::vector<double> span_ns(const Tracer& tracer, std::size_t from, std::string_view name) {
  std::vector<double> out;
  const auto& spans = tracer.spans();
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns));
    }
  }
  return out;
}

/// The kernel-only replay of a trial's event mix: `depth` interleaved
/// chains of events, each event scheduling its chain's next one, until
/// `steps` events have run; `cancels` decoy timeouts are spread evenly
/// along them and cancelled by the event after the one that armed them
/// (the draw-and-destroy alert timeout shape). `depth` is the measured
/// peak of pending events, so the heap is as deep as in a real trial.
struct KernelReplay {
  sim::EventLoop* loop;
  long steps;
  long cancels;
  long depth;
  long done = 0;
  long armed = 0;
  sim::EventLoop::EventId decoy{};
  bool decoy_armed = false;

  void step() {
    if (decoy_armed) {
      loop->cancel(decoy);
      decoy_armed = false;
    }
    ++done;
    if (done < steps && done * cancels / steps > armed) {
      ++armed;
      decoy = loop->schedule_after(sim::ms(1), [] {});
      decoy_armed = true;
    }
    if (done + depth <= steps) loop->schedule_after(sim::us(7 * depth), [this] { step(); });
  }

  void start() {
    for (long i = 0; i < std::min(depth, steps); ++i) {
      loop->schedule_at(sim::us(7 * i), [this] { step(); });
    }
  }
};

double kernel_ns_per_event(double executed_per_trial, double cancelled_per_trial,
                           double max_pending) {
  const long executed = std::max(1L, static_cast<long>(executed_per_trial + 0.5));
  const long cancelled = static_cast<long>(cancelled_per_trial + 0.5);
  const long depth = std::max(1L, static_cast<long>(max_pending + 0.5));
  constexpr int kTrials = 50;
  return ns_per_call(7, kTrials, [&](int) {
           sim::EventLoop loop;
           KernelReplay replay{&loop, executed, cancelled, depth};
           replay.start();
           loop.run_all();
         }) /
         static_cast<double>(executed);
}

/// The counter updates World::finish_epoch makes at the end of every
/// trial, replayed against `reg`.
void publish_epoch(obs::MetricsRegistry& reg) {
  reg.counter("animus_worlds_total").inc();
  reg.counter("animus_events_executed_total").add(2000.0);
  reg.counter("animus_events_cancelled_total").add(400.0);
  reg.gauge("animus_events_max_pending").set_max(32.0);
  reg.counter("animus_windows_added_total").add(60.0);
  reg.counter("animus_toasts_shown_total").add(0.0);
  reg.counter("animus_toasts_rejected_total").add(0.0);
  reg.counter("animus_overlays_rejected_total").add(0.0);
  reg.counter("animus_alert_shows_total").add(30.0);
  reg.counter("animus_alert_dismissals_total").add(30.0);
  reg.counter("animus_alert_completions_total").add(0.0);
  for (const char* method : {"addView", "removeView", "enqueueToast", "other"}) {
    reg.counter("animus_binder_transactions_total", {{"method", method}}).add(30.0);
  }
}

}  // namespace

std::vector<Metric> measure_layers(const Options& options, Tracer& tracer) {
  std::vector<Metric> out;
  const auto put = [&out](const char* name, const char* unit, double value) {
    out.push_back({name, unit, value});
  };

  // ---- core / sim / server / ipc on the attack_campaign mix.
  AttackCampaign attack{options};
  attack.prepare_oracle();
  attack.run_batch(nullptr);  // warm-up: builds the session World
  attack.check_batch();
  const SimCounters before;
  const std::size_t first_span = tracer.spans().size();
  {
    Scope section(&tracer, "ledger.attack");
    for (int b = 0; b < kAttackBatches; ++b) {
      tracer.set_batch(static_cast<std::uint32_t>(b));
      Scope batch(&tracer, "attack.batch");
      attack.run_batch(&tracer);
    }
  }
  attack.check_batch();
  const SimCounters after;
  const std::vector<double> trial_ns = span_ns(tracer, first_span, "core.trial");
  const double worlds = std::max(1.0, after.worlds - before.worlds);
  const double executed = after.executed - before.executed;
  const double cancelled = after.cancelled - before.cancelled;
  double trial_total_ns = 0.0;
  for (double ns : trial_ns) trial_total_ns += ns;
  const double insitu = executed > 0 ? trial_total_ns / executed : 0.0;
  double kernel = 0.0;
  {
    Scope span(&tracer, "sim.kernel_replay");
    const double max_pending = obs::global_registry().gauge("animus_events_max_pending").value();
    kernel = kernel_ns_per_event(executed / worlds, cancelled / worlds, max_pending);
  }
  put("core.trial_us_p50", "us", quantile(trial_ns, 0.5) / 1e3);
  put("core.trial_us_p90", "us", quantile(trial_ns, 0.9) / 1e3);
  put("sim.events_per_trial", "count", executed / worlds);
  put("sim.cancelled_per_trial", "count", cancelled / worlds);
  put("sim.insitu_ns_per_event", "ns", insitu);
  put("sim.kernel_ns_per_event", "ns", kernel);
  put("server.services_ns_per_event", "ns", insitu - kernel);
  put("server.windows_per_trial", "count", (after.windows - before.windows) / worlds);
  put("ipc.binder_tx_per_trial", "count", (after.binder - before.binder) / worlds);

  {
    Scope span(&tracer, "input.plan_taps");
    const auto& c = attack.capture().front();
    input::Typist typist{c.typist, sim::Rng{options.seed}.fork("typist")};
    std::size_t planned = 0;
    const double ns = ns_per_call(7, 200, [&](int) {
      planned += typist.plan_taps(ui::Rect{90, 900, 900, 600}, c.touches, sim::ms(1000)).size();
    });
    put("input.plan_us", "us", planned > 0 ? ns / 1e3 : 0.0);
  }

  // ---- core: the analytic tier on the dbound_table inputs.
  DBoundTable dbound{options};
  dbound.prepare_oracle();
  dbound.run_batch(nullptr);
  dbound.check_batch();
  const double fallbacks_before = analytic_fallbacks_total();
  {
    Scope section(&tracer, "ledger.dbound");
    for (int b = 0; b < kDBoundBatches; ++b) {
      Scope batch(&tracer, "dbound.batch");
      dbound.run_batch(&tracer);
    }
  }
  dbound.check_batch();
  double probes = 0.0;
  for (const auto& r : dbound.last_results()) probes += r.probes;
  put("core.probes_per_trial", "count",
      probes / static_cast<double>(std::max<std::size_t>(1, dbound.last_results().size())));

  ShardProbes shard{options};
  const auto& probe_configs = shard.configs();
  {
    // The probe sequence of the Table II search (analytic::run_d_bound):
    // D = 1, D = max, then bisection, each a 3 s probe.
    Scope span(&tracer, "core.replay_probe");
    double total_ns = 0.0;
    int calls = 0;
    for (const auto& config : dbound.configs()) {
      const auto lambda1 = [&](int d_ms) {
        core::OutcomeProbeConfig pc;
        pc.profile = config.profile;
        pc.attacking_window = sim::ms(d_ms);
        pc.duration = sim::seconds(3);
        pc.seed = config.seed;
        const auto t0 = Clock::now();
        const bool l1 = core::analytic::run_probe(pc).outcome == percept::LambdaOutcome::kL1;
        total_ns += seconds_between(t0, Clock::now()) * 1e9;
        ++calls;
        return l1;
      };
      int lo = 1;
      int hi = config.max_ms;
      if (!lambda1(lo) || lambda1(hi)) continue;
      while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        (lambda1(mid) ? lo : hi) = mid;
      }
    }
    put("core.replay_probe_us", "us", total_ns / std::max(1, calls) / 1e3);
  }
  {
    Scope span(&tracer, "core.closed_form");
    const auto& configs = dbound.configs();
    long sink = 0;
    const double ns = ns_per_call(7, 3000, [&](int i) {
      const auto& profile = configs[static_cast<std::size_t>(i) % configs.size()].profile;
      sink += core::analytic::closed_form_d_upper_ms(profile);
    });
    put("core.closed_form_us", "us", sink > 0 ? ns / 1e3 : 0.0);
  }
  put("core.analytic_fallbacks", "count", analytic_fallbacks_total() - fallbacks_before);

  // ---- server: World reset between two shard_probes trials.
  {
    Scope span(&tracer, "server.reset");
    core::TrialSession& session = attack.session();
    std::vector<double> reset_ns;
    for (std::size_t i = 0; i < 400; ++i) {
      core::OutcomeProbeConfig c = probe_configs[i % probe_configs.size()];
      session.run(c);  // leaves a populated World behind
      server::WorldConfig wc;
      wc.profile = c.profile;
      wc.seed = c.seed;
      wc.deterministic = c.deterministic;
      wc.trace_enabled = false;
      const auto t0 = Clock::now();
      session.begin_epoch(std::move(wc));
      reset_ns.push_back(seconds_between(t0, Clock::now()) * 1e9);
    }
    put("server.reset_us", "us", median(std::move(reset_ns)) / 1e3);
  }

  // ---- analysis: each stage of the prevalence pipeline on its own.
  {
    Scope section(&tracer, "ledger.analysis");
    const PrevalenceScan scan{options};
    const analysis::Corpus& corpus = scan.corpus();
    const std::size_t begin = scan.next_begin();
    std::vector<analysis::ApkInfo> apps(kApps);
    std::vector<std::string> xml(kApps);
    std::vector<std::string> dex(kApps);
    std::size_t ok = 0;
    const auto stage = [&](const char* name, auto&& fn) {
      Scope span(&tracer, name);
      return ns_per_call(3, static_cast<int>(kApps),
                         [&](int i) { fn(static_cast<std::size_t>(i)); });
    };
    put("analysis.generate_ns_per_app", "ns", stage("analysis.generate", [&](std::size_t i) {
          apps[i] = corpus.app((begin + i) % corpus.size());
        }));
    put("analysis.manifest_write_ns_per_app", "ns",
        stage("analysis.manifest_write",
              [&](std::size_t i) { xml[i] = analysis::write_manifest_xml(apps[i]); }));
    put("analysis.manifest_parse_ns_per_app", "ns",
        stage("analysis.manifest_parse",
              [&](std::size_t i) { ok += analysis::parse_manifest_xml(xml[i]).ok(); }));
    put("analysis.dex_write_ns_per_app", "ns",
        stage("analysis.dex_write",
              [&](std::size_t i) { dex[i] = analysis::write_dex_table(apps[i]); }));
    put("analysis.dex_parse_ns_per_app", "ns",
        stage("analysis.dex_parse",
              [&](std::size_t i) { ok += analysis::parse_dex_table(dex[i]).ok(); }));
    put("analysis.scan_ns_per_app", "ns", stage("analysis.scan", [&](std::size_t i) {
          ok += analysis::scan_apk(apps[i]).dex_ok;
        }));
    double bytes = 0.0;
    for (const auto& x : xml) bytes += static_cast<double>(x.size());
    put("analysis.xml_bytes_per_app", "bytes", ok > 0 ? bytes / kApps : 0.0);
  }

  // ---- runner: the shard_probes campaign and its parts.
  {
    Scope section(&tracer, "ledger.runner");
    shard.prepare_oracle();
    shard.run_batch(nullptr);
    shard.check_batch();
    std::vector<double> busy, wait, frames, bytes, encode_ms, flush_ms;
    for (int b = 0; b < kCampaigns; ++b) {
      shard.run_batch(&tracer);
      shard.check_batch();
      const runner::SweepStats& s = shard.last_stats();
      double wait_ms = 0.0;
      for (const auto& w : s.workers) wait_ms += w.wait_ms;
      const auto trials = static_cast<double>(std::max<std::uint64_t>(1, s.dispatch.trials));
      busy.push_back(s.utilization());
      wait.push_back(wait_ms);
      frames.push_back(static_cast<double>(s.dispatch.frames));
      bytes.push_back(static_cast<double>(s.dispatch.bytes_out + s.dispatch.bytes_in) / trials);
      encode_ms.push_back(s.dispatch.encode_ms);
      flush_ms.push_back(s.dispatch.flush_ms);
    }
    put("runner.busy_frac", "ratio", median(busy));
    put("runner.wait_ms_per_batch", "ms", median(wait));
    put("runner.frames_per_campaign", "count", median(frames));
    put("runner.bytes_per_trial", "bytes", median(bytes));
    put("runner.encode_ms", "ms", median(encode_ms));
    put("runner.flush_ms", "ms", median(flush_ms));

    {
      Scope span(&tracer, "runner.dispatch");
      runner::RunOptions run;
      run.jobs = 2;
      std::string error;
      const auto backend = runner::make_backend("process", run, 2, 0, &error);
      if (!backend) throw std::runtime_error("make_backend: " + error);
      std::vector<std::size_t> indices(ShardProbes::kProbes);
      for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
      const runner::EncodedBody body = [](const runner::TrialContext& ctx) {
        return runner::TrialCodec<double>::encode(static_cast<double>(ctx.index));
      };
      std::size_t produced = 0;
      const double ns = ns_per_call(5, 1, [&](int) {
        produced += backend->run_encoded(indices, indices.size(), body, nullptr).encoded.size();
      });
      put("runner.dispatch_ns_per_trial", "ns",
          produced > 0 ? ns / static_cast<double>(indices.size()) : 0.0);
    }
    const std::vector<std::string>& encoded = shard.last_encoded();
    const auto n = static_cast<int>(encoded.size());
    {
      Scope span(&tracer, "runner.codec");
      std::size_t round_trips = 0;
      const double ns = ns_per_call(7, n, [&](int i) {
        core::OutcomeProbe probe;
        const std::string& text = encoded[static_cast<std::size_t>(i)];
        if (runner::TrialCodec<core::OutcomeProbe>::decode(text, &probe)) {
          round_trips += runner::TrialCodec<core::OutcomeProbe>::encode(probe) == text;
        }
      });
      put("runner.codec_ns_per_trial", "ns", round_trips > 0 ? ns : 0.0);
    }
    {
      Scope span(&tracer, "runner.checkpoint_append");
      const std::string path =
          options.work_dir + "/ledger-" + std::to_string(::getpid()) + ".jsonl";
      runner::CheckpointHeader header;
      header.label = "ledger";
      header.total = encoded.size();
      header.root_seed = options.seed;
      std::vector<double> per_append;
      for (int r = 0; r < 5; ++r) {
        runner::CheckpointWriter writer{path, header, 64};
        const auto t0 = Clock::now();
        for (int i = 0; i < n; ++i) {
          const auto slot = static_cast<std::size_t>(i);
          writer.append(slot, slot, encoded[slot]);
        }
        writer.close();
        per_append.push_back(seconds_between(t0, Clock::now()) * 1e9 / n);
      }
      std::remove(path.c_str());
      put("runner.checkpoint_append_ns", "ns", median(per_append));
    }
  }

  // ---- obs: registry size and the per-trial publish.
  {
    Scope span(&tracer, "obs.epoch_publish");
    const obs::Snapshot snapshot = obs::global_registry().snapshot();
    obs::MetricsRegistry reg;
    reg.merge(snapshot);
    put("obs.series", "count", static_cast<double>(obs::global_registry().size()));
    put("obs.epoch_publish_us", "us", ns_per_call(7, 2000, [&](int) { publish_epoch(reg); }) / 1e3);
  }
  return out;
}

}  // namespace perfbench
