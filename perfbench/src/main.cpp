// perfbench — the repository benchmark binary.
//
//   perfbench --workload paper-presets|many-tenants|online-admit
//             --seed N --seconds S --trace 0|1
//             [--scale F] [--shards K] [--spans PATH]
//
// Prints human-readable progress, counts and digests, then as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  Untraced
// runs report the end-to-end metrics, traced runs the per-layer metrics.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-presets|many-tenants|"
               "online-admit --seed N --seconds S --trace 0|1\n"
               "                 [--scale F] [--shards K] [--spans PATH]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::strtod(v, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) usage();
    } else if (std::strcmp(flag, "--scale") == 0) {
      a.scale = std::strtod(v, &end);
    } else if (std::strcmp(flag, "--shards") == 0) {
      a.shards = static_cast<int>(std::strtol(v, &end, 10));
    } else if (std::strcmp(flag, "--spans") == 0) {
      a.spans_out = v;
    } else {
      usage();
    }
    if (end != nullptr && *end != '\0') usage();
  }
  if (a.workload.empty() || !(a.seconds > 0) || !(a.scale > 0) ||
      a.scale > 1 || a.shards < 1 || a.shards > 64)
    usage();
  return a;
}

void print_json(Result& r) {
  for (auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.problems.push_back("metric " + m.name + " is not finite");
      m.value = 0;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  Result result;
  if (args.workload == "paper-presets")
    result = perfbench::run_paper_presets(args);
  else if (args.workload == "many-tenants")
    result = perfbench::run_many_tenants(args);
  else if (args.workload == "online-admit")
    result = perfbench::run_online_admit(args);
  else
    usage();
  if (result.attempted == 0) result.problems.push_back("nothing attempted");
  for (const auto& p : result.problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  std::fflush(stderr);
  print_json(result);
  std::fflush(stdout);
  return result.problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // The kernel carries a process's peak RSS (ru_maxrss) across execve, so a
  // benchmark started from a larger process, such as the Python running
  // run.py, would report that process's peak whenever its own is smaller.
  // The workload runs in a forked child instead, whose peak starts from
  // this small process's; the parent relays its exit status.
  const pid_t child = fork();
  if (child < 0) return run(args);  // cannot fork: measure in place
  if (child == 0) std::exit(run(args));
  int status = 0;
  while (waitpid(child, &status, 0) < 0)
    if (errno != EINTR) return 3;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
