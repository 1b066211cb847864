// psfbench: one benchmark of the paper's role-view call (Table 4's single
// sign-on), end to end and layer by layer. See README.md.
//
//   psfbench --workload sso_read|mail_write|fanout_100k|session_churn
//            [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//   psfbench --layer seal|select_view|view_call|revoke [--seed N]
//   psfbench --smoke        every workload for ~1 s; non-zero on any failure
//   psfbench --self-test    serve the wrong views; the oracle must notice
//
// The last line of standard output is the JSON result.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using psfbench::Options;
using psfbench::RunResult;

int usage() {
  std::cerr
      << "usage: psfbench --workload NAME [--seed N] [--seconds S]\n"
         "                [--trace 0|1] [--trace-out FILE]\n"
         "       psfbench --layer seal|select_view|view_call|revoke "
         "[--seed N]\n"
         "       psfbench --smoke | --self-test\n"
         "workloads: sso_read mail_write fanout_100k session_churn\n";
  return 2;
}

RunResult run(const Options& options) {
  return psfbench::is_event_core_workload(options.workload)
             ? psfbench::run_event_core(options)
             : psfbench::run_churn(options);
}

bool known_workload(const std::string& name) {
  return psfbench::is_event_core_workload(name) || name == "session_churn";
}

/// Every workload, briefly, traced (which also runs the untraced slices).
int smoke() {
  int failures = 0;
  for (const char* workload :
       {"sso_read", "mail_write", "fanout_100k", "session_churn"}) {
    Options options;
    options.workload = workload;
    options.seconds = 1;
    options.smoke = true;
    options.trace = true;
    const RunResult result = run(options);
    result.report.print_table(std::cout, std::string("smoke ") + workload);
    std::cout << "  attempted " << result.attempted << ", failed "
              << result.failed << "\n";
    if (result.failed != 0 || result.attempted == 0) ++failures;
  }
  std::cout << (failures == 0 ? "smoke: ok\n" : "smoke: FAILED\n");
  return failures == 0 ? 0 : 1;
}

/// Serve Member principals the Partner view and vice versa on mail_write;
/// passing means the oracle flagged wrong answers.
int self_test() {
  Options options;
  options.workload = "mail_write";
  options.seconds = 1;
  options.smoke = true;
  options.swap_views = true;
  const RunResult result = run(options);
  if (result.failed == 0) {
    std::cout << "self-test: FAILED, swapped views went unnoticed\n";
    return 1;
  }
  std::cout << "self-test: ok, the oracle flagged " << result.failed << " of "
            << result.attempted << " calls on swapped views\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string layer;
  bool smoke_mode = false;
  bool self_test_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else if (arg == "--layer") {
        layer = value();
      } else if (arg == "--smoke") {
        smoke_mode = true;
      } else if (arg == "--self-test") {
        self_test_mode = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "psfbench: " << e.what() << "\n";
      return usage();
    }
  }

  try {
    if (smoke_mode) return smoke();
    if (self_test_mode) return self_test();
    if (!layer.empty()) return psfbench::run_layer(layer, options);
    if (!known_workload(options.workload) || !(options.seconds > 0)) {
      return usage();
    }
    const RunResult result = run(options);
    result.report.print_table(
        std::cout, options.workload + (options.trace ? " (traced)" : ""));
    result.report.print_result(std::cout, options.trace,
                               result.failed == 0,
                               result.attempted, result.failed);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "psfbench: " << e.what() << "\n";
    return 1;
  }
}
