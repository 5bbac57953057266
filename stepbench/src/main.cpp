// stepbench: one workload per process.
//
//   stepbench --workload airfoil_vec|tet3d_ranks|hazard_sweep --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   stepbench --list-metrics
//
// With --trace 0 the result line carries the end-to-end metrics, measured
// with every instrument off; with --trace 1 it carries the per-layer
// metrics of a traced run. The run record (host fingerprint, sample counts,
// output checks) is printed before the result line and written to DIR with
// the traced run's spans. The result line is always the last line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace stepbench;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string record_json(const Options& o, const Outcome& out, const std::string& result) {
  const Host& h = out.host;
  std::string r = "{\"workload\": " + quoted(o.workload) + ", \"seed\": " +
                  std::to_string(o.seed) + ", \"seconds\": " + json_number(o.seconds) +
                  ", \"trace\": " + (o.trace ? "1" : "0");
  r += ", \"host\": {\"nproc\": " + std::to_string(h.nproc) + ", \"isa\": " + quoted(h.isa) +
       ", \"lanes_double\": " + std::to_string(h.lanes_double) +
       ", \"lanes_float\": " + std::to_string(h.lanes_float) +
       ", \"triad_gbs\": " + json_number(h.triad_gbs) +
       ", \"triad_threads\": " + std::to_string(h.triad_threads) +
       ", \"triad_array_mib\": " + json_number(h.triad_array_mib) + ", \"cpu\": " + quoted(h.cpu) +
       "}";
  r += ", \"loop_bytes\": \"computed from KernelInfo useful values, not measured traffic\"";
  r += ", \"figures\": {";
  bool first = true;
  for (const auto& [k, v] : out.record) {
    r += (first ? "" : ", ") + quoted(k) + ": " + json_number(v);
    first = false;
  }
  r += "}, \"checks\": [";
  first = true;
  for (const std::string& c : out.checks) {
    r += (first ? "" : ", ") + quoted(c);
    first = false;
  }
  return r + "], \"result\": " + result + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n       stepbench --list-metrics\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string out_dir = ".bench_out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::printf("%s\n", metric_table_json().c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
        have_seconds = o.seconds > 0.0;
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
        have_trace = v == "0" || v == "1";
      } else if (a == "--out-dir") {
        out_dir = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage("--seed, --seconds and --trace are required");

  Outcome (*run)(const Options&, Tracer&) = nullptr;
  if (o.workload == "airfoil_vec") run = run_airfoil_vec;
  else if (o.workload == "tet3d_ranks") run = run_tet3d_ranks;
  else if (o.workload == "hazard_sweep") run = run_hazard_sweep;
  else return usage("unknown workload (airfoil_vec, tet3d_ranks, hazard_sweep)");

  try {
    Tracer tracer;
    const Outcome out = run(o, tracer);
    const std::string result =
        result_json(out.correct, out.attempted, out.failed, out.metrics, o.trace);
    const std::string record = record_json(o, out, result);

    std::filesystem::create_directories(out_dir);
    const std::string stem = out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                             "-trace" + (o.trace ? "1" : "0");
    std::ofstream(stem + ".json") << record << "\n";
    if (o.trace) tracer.write_chrome_trace(stem + ".spans.json");

    for (const std::string& c : out.checks) std::printf("check: %s\n", c.c_str());
    std::printf("record: %s\n%s\n", record.c_str(), result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
}
