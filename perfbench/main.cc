// mdbench: the end-to-end benchmark of the mdmatch library.
//
//   mdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--quick] [--trace-dir <dir>]
//
// Runs one workload in this process and prints, as its last line, one
// JSON object: the correctness verdict, the operations attempted and
// failed, and the metrics: every end-to-end metric on an untraced run,
// every per-layer metric on a traced run. See README.md.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace {

using mdmatch::perfbench::Args;
using mdmatch::perfbench::Report;
using mdmatch::perfbench::Tracer;
using Names = std::vector<std::pair<std::string, std::string>>;

const Names& EndToEndMetrics() {
  static const Names names = {
      {"setup_s", "s"},         {"records_per_s", "1/s"},
      {"visible_p50_ms", "ms"}, {"delivered_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},    {"precision", "ratio"},
      {"recall", "ratio"},
  };
  return names;
}

const Names& PerLayerMetrics() {
  static const Names names = {
      {"datagen.generate_s", "s"},
      {"core.deduce_s", "s"},
      {"api.plan.compile_s", "s"},
      {"match.fs_train_s", "s"},
      {"api.session.bulk_load_s", "s"},
      {"api.session.stage_us", "us"},
      {"api.session.flush_ms", "ms"},
      {"api.session.index_ms", "ms"},
      {"api.session.rerank_ms", "ms"},
      {"api.session.cluster_ms", "ms"},
      {"api.session.publish_ms", "ms"},
      {"api.session.publish_kb", "KB"},
      {"candidate.merge_ms", "ms"},
      {"candidate.scan_ms", "ms"},
      {"match.eval_ms", "ms"},
      {"match.pairs_evaluated", "count"},
      {"match.useful_ratio", "ratio"},
      {"api.session.flush_growth_4x", "ratio"},
      {"api.session.index_growth_4x", "ratio"},
      {"candidate.merge_growth_4x", "ratio"},
      {"candidate.scan_growth_4x", "ratio"},
      {"match.eval_growth_4x", "ratio"},
      {"api.session.rerank_growth_4x", "ratio"},
      {"api.session.cluster_growth_4x", "ratio"},
      {"api.session.publish_growth_4x", "ratio"},
      {"api.view.pin_ns", "ns"},
      {"api.view.lookup_ns", "ns"},
      {"stream.enqueue_us", "us"},
      {"stream.visible_ms", "ms"},
      {"stream.deliver_ms", "ms"},
      {"stream.diff_ms", "ms"},
      {"stream.queue_depth", "count"},
      {"stream.sat_ops_per_flush", "count"},
      {"api.executor.run_s", "s"},
      {"candidate.window_s", "s"},
      {"candidate.pairs", "count"},
      {"candidate.reduction_ratio", "ratio"},
      {"candidate.pairs_completeness", "ratio"},
      {"match.eval_s", "s"},
      {"match.cluster_s", "s"},
      {"match.eval_ns_per_pair", "ns"},
      {"sim.dl_ns", "ns"},
      {"sim.myers_ns", "ns"},
      {"sim.soundex_ns", "ns"},
      {"load.late_p90_ms", "ms"},
  };
  return names;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mdbench --workload "
               "<churn_window_rule|stream_window_rule|batch_window_fs> "
               "--seed <n> --seconds <s> --trace <0|1> [--quick] "
               "[--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage();
    }
  }
  int (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "churn_window_rule") {
    run = mdmatch::perfbench::RunChurn;
  } else if (args.workload == "stream_window_rule") {
    run = mdmatch::perfbench::RunStream;
  } else if (args.workload == "batch_window_fs") {
    run = mdmatch::perfbench::RunBatch;
  } else {
    return Usage();
  }

  if (args.trace) Tracer::Get().Enable();
  Report report;
  const int code = run(args, &report);
  if (code != 0) return code;
  if (args.trace) {
    const std::string path = args.trace_dir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".jsonl";
    auto st = Tracer::Get().Write(path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("spans: %s\n", path.c_str());
  }
  report.Print(args.trace ? PerLayerMetrics() : EndToEndMetrics());
  return 0;
}
