// The repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reference-dir DIR] [--work-dir DIR]
//             [--corrupt-reference] [--write-reference]
//
// Untraced (--trace 0): set the workload up 5 times and keep the median
// set-up time, then run fixed-mix batches back to back (closed loop, one
// client) for S seconds, checking every batch's outputs against the
// workload's oracle between batches, outside the timed region. The
// last stdout line is one JSON object with the end-to-end metrics.
//
// Traced (--trace 1): the same loop, alternating traced and untraced
// batches so their ratio is the tracing overhead, followed by the
// per-layer ledger (ledger.hpp). Spans are kept in memory and written
// to the work directory at exit; the last stdout line carries the
// per-layer metrics.
//
// --write-reference prints the attack campaign's fresh-World results at
// the default seed, the content of reference/attack_campaign_seed1.txt.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up runs this many times per run; the median is reported, so a
/// single slow set-up does not move setup_s.
constexpr int kSetupReps = 5;

struct Args {
  Options options;
  double seconds = 10.0;
  bool trace = false;
  bool write_reference = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reference-dir DIR] [--work-dir DIR] "
               "[--corrupt-reference] [--write-reference]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.options.workload = value();
    } else if (arg == "--seed") {
      a.options.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value());
    } else if (arg == "--trace") {
      a.trace = std::atoi(value()) != 0;
    } else if (arg == "--reference-dir") {
      a.options.reference_dir = value();
    } else if (arg == "--work-dir") {
      a.options.work_dir = value();
    } else if (arg == "--corrupt-reference") {
      a.options.corrupt_reference = true;
    } else if (arg == "--write-reference") {
      a.write_reference = true;
    } else {
      usage("unknown argument");
    }
  }
  if (!a.write_reference && a.options.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

/// CPU seconds (user + system) of this process and of its reaped
/// children (the shard workers).
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
  }
  return total;
}

/// Peak RSS of this process image (VmHWM, which unlike RUSAGE_SELF does
/// not count the launcher's memory before exec) and of the largest
/// reaped shard worker.
double peak_rss_mb() {
  long self_kb = 0;
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) self_kb = std::atol(line + 6);
    }
    std::fclose(status);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

void print_result(const CheckResult& check, bool correct, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", check.attempted, check.attempted - check.ok);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  // ---- set-up: inputs, the first World and one untimed warm-up batch,
  // repeated; the oracle's reference paths are excluded from the timing.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  CheckResult warm_up;
  for (int r = 0; r < kSetupReps; ++r) {
    workload.reset();
    const auto t0 = Clock::now();
    workload = make_workload(args.options);
    const auto t1 = Clock::now();
    workload->prepare_oracle();
    const auto t2 = Clock::now();
    workload->run_batch(nullptr);
    const auto t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t1) + seconds_between(t2, t3));
    warm_up.add(workload->check_batch());
  }

  // ---- timed phase.
  Tracer tracer;
  std::vector<double> batch_ms;
  std::vector<double> traced_ms;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  CheckResult check;
  const auto phase_start = Clock::now();
  for (std::uint32_t b = 0; seconds_between(phase_start, Clock::now()) < args.seconds; ++b) {
    const bool traced = args.trace && b % 2 == 1;
    tracer.set_batch(b);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      Scope span(traced ? &tracer : nullptr, "workload.batch");
      workload->run_batch(traced ? &tracer : nullptr);
    }
    const auto t1 = Clock::now();
    const double cpu1 = cpu_seconds();
    const double ms = seconds_between(t0, t1) * 1e3;
    (traced ? traced_ms : batch_ms).push_back(ms);
    if (!traced) {
      busy_s += ms / 1e3;
      cpu_s += cpu1 - cpu0;
    }
    check.add(workload->check_batch());
  }

  const bool correct = warm_up.ok == warm_up.attempted && check.attempted > 0 &&
                       check.ok == check.attempted;
  const std::size_t per_batch = workload->items_per_batch();
  const auto items = static_cast<double>(batch_ms.size() * per_batch);
  const double items_per_s = items / busy_s;
  std::printf("# %s seed %llu: %zu batches of %zu items, batch p50 %.3f ms, p90 %.3f ms, "
              "set-up median %.4f s, ok %zu/%zu%s%s\n",
              args.options.workload.c_str(), static_cast<unsigned long long>(args.options.seed),
              batch_ms.size(), per_batch, quantile(batch_ms, 0.5), quantile(batch_ms, 0.9),
              median(setup_s), check.ok, check.attempted,
              check.first_failure.empty() ? "" : ", first failure: ",
              check.first_failure.c_str());
  if (!warm_up.first_failure.empty()) {
    std::printf("# warm-up batch failed: %s\n", warm_up.first_failure.c_str());
  }
  if (batch_ms.size() < 100) {
    std::printf("# warning: %zu batches leave fewer than 10 beyond p90\n", batch_ms.size());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"items_per_s", "1/s", items_per_s},
        {"batch_p50_ms", "ms", quantile(batch_ms, 0.5)},
        {"batch_p90_ms", "ms", quantile(batch_ms, 0.9)},
        {"cpu_us_per_item", "us", cpu_s * 1e6 / items},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"ok_frac", "ratio",
         static_cast<double>(check.ok) /
             static_cast<double>(std::max<std::size_t>(1, check.attempted))},
        {"setup_s", "s", median(setup_s)},
    };
  } else {
    double traced_s = 0.0;
    for (const double ms : traced_ms) traced_s += ms / 1e3;
    const double traced_items_per_s =
        static_cast<double>(traced_ms.size() * per_batch) / traced_s;
    std::printf("# tracing overhead: items_per_s traced %.6g - untraced %.6g = %+.6g "
                "(%+.2f%%); batch p50 traced / untraced - 1 = %+.2f%%\n",
                traced_items_per_s, items_per_s, traced_items_per_s - items_per_s,
                100.0 * (traced_items_per_s / items_per_s - 1.0),
                100.0 * (quantile(traced_ms, 0.5) / quantile(batch_ms, 0.5) - 1.0));
    Tracer ledger_tracer;
    metrics = measure_layers(args.options, ledger_tracer);
    for (const Tracer* t : {&tracer, &ledger_tracer}) {
      for (const auto& [name, totals] : t->totals()) {
        std::printf("# span %-28s count %8llu  total %10.3f ms  self %10.3f ms\n", name.c_str(),
                    static_cast<unsigned long long>(totals.count), totals.total_ns / 1e6,
                    totals.self_ns / 1e6);
      }
    }
    const std::string stem = args.options.work_dir + "/trace-" + args.options.workload +
                              "-seed" + std::to_string(args.options.seed);
    if (!tracer.write_json(stem + ".loop.json") ||
        !ledger_tracer.write_json(stem + ".ledger.json")) {
      std::fprintf(stderr, "perfbench: cannot write traces under %s\n",
                   args.options.work_dir.c_str());
      return 1;
    }
  }
  print_result(check, correct, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.write_reference) {
      Options options = args.options;
      options.seed = kDefaultSeed;
      std::printf("# attack_campaign fresh-World results at seed %llu, one per slot\n",
                  static_cast<unsigned long long>(kDefaultSeed));
      for (const std::string& line : AttackCampaign{options}.fresh_world_encodings()) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
