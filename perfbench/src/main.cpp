// perfbench_bin: runs one benchmark workload in this process and prints two
// JSON lines on stdout, the host fingerprint and the result. perfbench/run.py
// builds it, runs it and turns the result into the benchmark's record.
//
//   perfbench_bin --workload mnist_select|vgg_frozen|serve_mix --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//                 [--scale full|tiny] [--inject nan_loss|corrupt_output]
//
// Exit status: 0 when every output check passed, 1 when one failed or the
// workload threw, 2 on bad flags.
#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "simd/dispatch.hpp"
#include "util/json.hpp"

namespace {

using dropback::util::json_escape;
using dropback::util::json_number;

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const std::size_t first = model.find_first_not_of(' ');
  const std::size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

std::string host_json() {
  dropback::util::JsonObject host;
  host.add("cpu", cpu_model())
      .add("simd", dropback::simd::target_name(
                       dropback::simd::active_target()))
      .add("hw_threads",
           static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("compiler", PERFBENCH_COMPILER);
  return host.str();
}

std::string string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

int usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_bin: %s\n", why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace = "0";
  std::string scale = "full";
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value;
      } else if (flag == "--scale") {
        scale = value;
      } else if (flag == "--inject") {
        options.inject = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  if (scale != "full" && scale != "tiny") {
    return usage("--scale takes full or tiny");
  }
  if (!options.inject.empty() && options.inject != "nan_loss" &&
      options.inject != "corrupt_output") {
    return usage("--inject takes nan_loss or corrupt_output");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  options.trace = trace == "1";
  options.tiny = scale == "tiny";

  perfbench::Result result;
  try {
    if (options.workload == "mnist_select") {
      result = perfbench::run_mnist_select(options);
    } else if (options.workload == "vgg_frozen") {
      result = perfbench::run_vgg_frozen(options);
    } else if (options.workload == "serve_mix") {
      result = perfbench::run_serve_mix(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::string metrics_json;
  for (const auto& [name, value] : result.metrics()) {
    metrics_json += metrics_json.empty() ? "{" : ",";
    metrics_json += "\"" + json_escape(name) + "\":" + json_number(value);
  }
  metrics_json += metrics_json.empty() ? "{}" : "}";
  std::printf("{\"host\":%s,\"notes\":%s}\n", host_json().c_str(),
              string_array(result.notes()).c_str());
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"failures\":%s,\"metrics\":%s}\n",
      result.correct() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted()),
      static_cast<unsigned long long>(result.failed()),
      string_array(result.failures()).c_str(), metrics_json.c_str());
  return result.correct() ? 0 : 1;
}
