// lt_sim: deterministic whole-system chaos simulation with an oracle.
//
// Runs a complete LittleTable deployment — DB, server, client, wire
// protocol — inside one process on a simulated network (sim::SimTransport)
// and simulated storage, while a seeded scheduler injects crashes,
// partitions, torn frames, ENOSPC, and mid-protocol kill points. After
// every simulated crash + reopen an oracle checks the paper's §3.1
// durability contract against a model of everything inserted.
//
// Usage:
//   lt_sim [--seed=N] [--ops=N] [--faults=RATE] [--devices=N]
//          [--seeds=N]        sweep seeds seed..seed+N-1, stop at first
//                             failure
//   lt_sim --cluster ...      multi-node mode: coordinator + two-node
//                             replicated shard groups (--groups=N) driven
//                             through the routing ClusterClient, with
//                             primary crashes, failovers, and replication
//                             link partitions in the fault mix
//   lt_sim --overload ...     overload mode: firehose queries, slow
//                             readers, cancels, and disconnects against
//                             tight admission/budget knobs; the oracle
//                             asserts bounded accounted memory and that
//                             every shed request got an explicit error
//   lt_sim --verify-seed=N    run seed N twice and require byte-identical
//                             event logs (and, with --sample-every,
//                             byte-identical __sys_metrics dumps — the
//                             determinism contract)
//   lt_sim --print-log ...    dump the event log after the run
//   lt_sim --sample-every=N   run the self-monitoring sampler in
//                             deterministic mode, one sample per N ops;
//                             the oracle then also checks the system
//                             tables' prefix durability across crashes
//   lt_sim --dump-sys-metrics print the surviving __sys_metrics rows
//
// Flags a mode would ignore are rejected: --groups needs --cluster;
// --sample-every and --dump-sys-metrics are single-node only; --overload
// takes neither --verify-seed (it promises no determinism) nor --faults.
//
// Every single-node and cluster run is a pure function of its seed: a
// failure printed as "FAIL seed=N ..." reproduces exactly with the printed
// `lt_sim ... --print-log` command.
// Exit status: 0 all oracles passed, 1 violation or harness failure, 2 bad
// usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/chaos.h"
#include "sim/cluster_chaos.h"
#include "sim/overload_chaos.h"

using namespace lt;

namespace {

enum class Mode { kSingle, kCluster, kOverload };

struct Args {
  Mode mode = Mode::kSingle;
  sim::ChaosOptions single;
  sim::ClusterChaosOptions cluster;
  sim::OverloadChaosOptions overload;
  bool print_log = false;
  bool dump_sys = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "lt_sim: %s\n", why);
  std::fprintf(stderr,
               "usage: lt_sim [--cluster [--groups=N] | --overload] "
               "[--seed=N] [--ops=N] [--faults=RATE] [--devices=N] "
               "[--seeds=N] [--sample-every=N] [--verify-seed=N] "
               "[--print-log] [--dump-sys-metrics]\n");
  return 2;
}

Status RunSeed(const Args& args, uint64_t seed, sim::ChaosReport* report) {
  switch (args.mode) {
    case Mode::kCluster: {
      sim::ClusterChaosOptions o = args.cluster;
      o.seed = seed;
      return sim::RunClusterChaos(o, report);
    }
    case Mode::kOverload: {
      sim::OverloadChaosOptions o = args.overload;
      o.seed = seed;
      return sim::RunOverloadChaos(o, report);
    }
    case Mode::kSingle:
      break;
  }
  sim::ChaosOptions o = args.single;
  o.seed = seed;
  return sim::RunChaos(o, report);
}

void PrintRepro(const Args& args, unsigned long long seed) {
  switch (args.mode) {
    case Mode::kSingle:
      std::printf("reproduce with: lt_sim --seed=%llu --ops=%d --faults=%g "
                  "--devices=%d --print-log\n",
                  seed, args.single.ops, args.single.fault_rate,
                  args.single.devices);
      return;
    case Mode::kCluster:
      std::printf("reproduce with: lt_sim --cluster --seed=%llu --ops=%d "
                  "--faults=%g --devices=%d --groups=%d --print-log\n",
                  seed, args.cluster.ops, args.cluster.fault_rate,
                  args.cluster.devices, args.cluster.groups);
      return;
    case Mode::kOverload:
      std::printf("reproduce with: lt_sim --overload --seed=%llu --ops=%d "
                  "--devices=%d --print-log\n",
                  seed, args.overload.ops, args.overload.devices);
      return;
  }
}

void PrintLog(const sim::ChaosReport& report) {
  for (const std::string& line : report.event_log) {
    std::printf("%s\n", line.c_str());
  }
}

void PrintCounters(const sim::ChaosReport& report, bool dump_sys) {
  for (const auto& [key, value] : report.counters) {
    std::printf("  %s=%llu", key.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
  if (dump_sys) {
    for (const std::string& line : report.sys_metrics) {
      std::printf("sys %s\n", line.c_str());
    }
  }
}

int RunOne(const Args& args, uint64_t seed) {
  const auto n = static_cast<unsigned long long>(seed);
  sim::ChaosReport report;
  Status s = RunSeed(args, seed, &report);
  if (!s.ok()) {
    std::printf("FAIL seed=%llu harness error: %s\n", n,
                s.ToString().c_str());
    return 1;
  }
  if (!report.ok) {
    std::printf("FAIL seed=%llu oracle: %s\n", n, report.failure.c_str());
    PrintRepro(args, n);
    // Overload runs make no determinism promise, so their log is the one
    // record of what the failing interleaving did: always dump it (the
    // nightly batch uploads it as its artifact).
    if (args.print_log || args.mode == Mode::kOverload) PrintLog(report);
    PrintCounters(report, args.dump_sys);
    return 1;
  }
  std::printf("ok seed=%llu events=%zu", n, report.event_log.size());
  if (args.print_log) {
    std::printf("\n");
    PrintLog(report);
  }
  PrintCounters(report, args.dump_sys);
  return 0;
}

int VerifySeed(const Args& args, uint64_t seed) {
  const auto n = static_cast<unsigned long long>(seed);
  sim::ChaosReport a, b;
  Status s = RunSeed(args, seed, &a);
  if (s.ok()) s = RunSeed(args, seed, &b);
  if (!s.ok()) {
    std::printf("FAIL seed=%llu harness error: %s\n", n,
                s.ToString().c_str());
    return 1;
  }
  if (a.sys_metrics != b.sys_metrics) {
    std::printf("FAIL seed=%llu nondeterministic: __sys_metrics dumps "
                "differ (%zu vs %zu rows)\n",
                n, a.sys_metrics.size(), b.sys_metrics.size());
    return 1;
  }
  if (a.event_log != b.event_log) {
    size_t i = 0;
    while (i < a.event_log.size() && i < b.event_log.size() &&
           a.event_log[i] == b.event_log[i]) {
      i++;
    }
    std::printf("FAIL seed=%llu nondeterministic: logs diverge at line %zu\n",
                n, i);
    std::printf("  run1: %s\n", i < a.event_log.size()
                                    ? a.event_log[i].c_str()
                                    : "<end of log>");
    std::printf("  run2: %s\n", i < b.event_log.size()
                                    ? b.event_log[i].c_str()
                                    : "<end of log>");
    return 1;
  }
  std::printf("ok seed=%llu deterministic (%zu log lines)\n", n,
              a.event_log.size());
  return a.ok && b.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  sim::ChaosOptions& opts = args.single;
  int seeds = 1;
  bool verify = false;
  bool cluster = false;
  bool overload = false;
  bool ops_set = false;
  bool groups_set = false;
  bool faults_set = false;
  bool sample_set = false;
  for (int i = 1; i < argc; i++) {
    std::string v;
    if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (ParseFlag(argv[i], "--groups", &v)) {
      args.cluster.groups = std::atoi(v.c_str());
      groups_set = true;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--ops", &v)) {
      opts.ops = std::atoi(v.c_str());
      ops_set = true;
    } else if (ParseFlag(argv[i], "--faults", &v)) {
      opts.fault_rate = std::atof(v.c_str());
      faults_set = true;
    } else if (ParseFlag(argv[i], "--devices", &v)) {
      opts.devices = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--seeds", &v)) {
      seeds = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--sample-every", &v)) {
      opts.sample_every_ops = std::atoi(v.c_str());
      sample_set = true;
    } else if (ParseFlag(argv[i], "--verify-seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
      verify = true;
    } else if (std::strcmp(argv[i], "--print-log") == 0) {
      args.print_log = true;
    } else if (std::strcmp(argv[i], "--dump-sys-metrics") == 0) {
      args.dump_sys = true;
    } else {
      return Usage(nullptr);
    }
  }
  // A flag the chosen mode would ignore is an error, not a silent no-op.
  if (cluster && overload) return Usage("--cluster and --overload conflict");
  if (groups_set && !cluster) return Usage("--groups needs --cluster");
  if ((cluster || overload) && (sample_set || args.dump_sys)) {
    return Usage("--sample-every and --dump-sys-metrics are single-node only");
  }
  if (overload && verify) {
    return Usage("--verify-seed: overload runs race real worker threads and "
                 "promise no determinism");
  }
  if (overload && faults_set) return Usage("--faults: overload injects none");

  // Every mode runs --devices devices, 3 unless set (the single-node
  // default) — also in the cluster and overload modes, whose library
  // defaults differ.
  if (cluster) {
    args.mode = Mode::kCluster;
    args.cluster.ops = opts.ops;
    args.cluster.fault_rate = opts.fault_rate;
    args.cluster.devices = opts.devices;
  } else if (overload) {
    args.mode = Mode::kOverload;
    if (ops_set) args.overload.ops = opts.ops;
    args.overload.devices = opts.devices;
  }
  if (verify) return VerifySeed(args, opts.seed);
  for (int i = 0; i < seeds; i++) {
    if (RunOne(args, opts.seed + static_cast<uint64_t>(i)) != 0) return 1;
  }
  return 0;
}
