// The repository benchmark's entry point.
//
//   perfbench --workload <counter_contended|counter_combining|store_mixed|
//                         explore_dpor>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints the host record and report lines (each starting with "# "), then
// one JSON object as the last line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// alternates plain and traced windows (for the tracing overhead), runs every
// layer row, reports the per-layer metrics and writes the spans under
// --trace-dir. Exits 1 when a correctness check fails or a positive control
// does not trip, 2 on bad arguments.
//
// The process always ends through std::_Exit: a stalled window leaves
// worker threads parked forever, and they cannot be joined.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "rt/atomic128.h"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void finish(int code) {
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(code);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  finish(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest decimal that round-trips: every digit as measured.
std::string number(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host() {
  const hi::rt::Atomic128 probe;
  std::printf(
      "# host {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"flags\": \"%s\", \"atomic128_lock_free\": %s}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_escape(__VERSION__).c_str(), json_escape(PERFBENCH_FLAGS).c_str(),
      probe.is_lock_free() ? "true" : "false");
}

RunArgs parse(int argc, char** argv) {
  RunArgs args;
  args.trace_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0) || args.seconds > 600) usage("bad --seconds");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunArgs args = parse(argc, argv);
  print_host();
  std::fflush(stdout);

  Result result;
  if (args.workload == "counter_contended") {
    result = run_counter_contended(args);
  } else if (args.workload == "counter_combining") {
    result = run_counter_combining(args);
  } else if (args.workload == "store_mixed") {
    result = run_store_mixed(args);
  } else if (args.workload == "explore_dpor") {
    result = run_explore_dpor(args);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace) {
    Tracer tracer;
    run_layer_rows(tracer, result);
    tracer.write(args.trace_dir + "/rows-" + args.workload + ".jsonl", result);
  }
  if (!watchdog_control_trips()) {
    result.fail_check("control: a never-returning op did not trip the watchdog");
  }

  std::string metrics;
  for (const Metric& m : result.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      result.fail_check("metric " + m.name + " is not finite");
      v = 0;
    }
    metrics += (metrics.empty() ? "" : ", ");
    metrics += "\"" + m.name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  finish(result.correct ? 0 : 1);
}
