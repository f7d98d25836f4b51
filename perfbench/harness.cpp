// perfbench_harness — in-process timing of the library layers that the
// `satpg` CLI runs, for the end-to-end benchmark in perfbench/run.py.
//
//   perfbench_harness setup --kind=atpg|fsim --reps=K [--seed=N]
//                           [--sequences=N] [--length=N] c1.bench ...
//     Times, K times over, the calls each CLI run makes before its main
//     work: read_bench_file (+ annotate_library, as the CLI's loader does),
//     collapse_faults, and StateValidityOracle::build (atpg) or
//     make_random_sequences (fsim), over every circuit. Prints one
//     "setup_s <seconds>" line per repetition.
//
//   perfbench_harness trace --kind=atpg|fsim --out=FILE [--engine=hitec|cdcl]
//                           [--budget=F] [--threads=N] [--seed=N]
//                           [--sequences=N] [--length=N]
//                           c1.bench[=tests_file] ...
//     One traced run. For atpg it runs a serial composition of the
//     parallel driver's own public calls per circuit (load, collapse,
//     oracle build; random-phase fsim; AtpgEngine::generate per undetected
//     fault with a drop fsim after each detection; final replay), then one
//     run_parallel_atpg call at --threads and the report write. For fsim it
//     grades random sequences against every fault and runs the same
//     sequences once more with no faults (the good machine alone). When a
//     tests file is given (the sequences a CLI run wrote), it is replayed
//     through run_fault_simulation and the detected + potential class
//     weight is recorded, so the caller can check it against the CLI's
//     report. Spans and counts stay in memory and are written as one JSON
//     document to --out at the end.
//
// The harness only wraps spans around calls into each layer's public
// functions; nothing inside the library is instrumented.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/reach.h"
#include "atpg/engine.h"
#include "atpg/parallel.h"
#include "base/json.h"
#include "fault/fault.h"
#include "fsim/fsim.h"
#include "harness/report.h"
#include "netlist/bench_io.h"
#include "synth/library.h"

using namespace satpg;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- spans ----

struct SpanRecord {
  std::string name;
  std::string run;  ///< per-run id: the circuit the span belongs to
  double start = 0.0, end = 0.0;
  int parent = -1;  ///< index into the span list, -1 = top level
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  int open(const std::string& name, const std::string& run) {
    SpanRecord s;
    s.name = name;
    s.run = run;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }
  double now() const { return seconds_between(t0_, Clock::now()); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& t, const std::string& name, const std::string& run)
      : t_(t), id_(t.open(name, run)) {}
  ~Span() { t_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- options ----

struct Options {
  std::string mode;
  std::string kind = "atpg";
  std::string engine = "hitec";
  std::string out;
  double budget = 1.0;
  unsigned threads = 1;
  std::uint64_t seed = 7;
  int sequences = 8192;
  int length = 64;
  int reps = 5;
  std::vector<std::string> circuits;
  std::vector<std::string> tests;  ///< parallel to circuits; may be empty
};

const char* flag_value(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

bool parse_args(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = flag_value(a, "--kind=")) {
      o->kind = v;
    } else if (const char* v1 = flag_value(a, "--engine=")) {
      o->engine = v1;
    } else if (const char* v2 = flag_value(a, "--out=")) {
      o->out = v2;
    } else if (const char* v3 = flag_value(a, "--budget=")) {
      o->budget = std::atof(v3);
    } else if (const char* v4 = flag_value(a, "--threads=")) {
      o->threads = static_cast<unsigned>(std::atoi(v4));
    } else if (const char* v5 = flag_value(a, "--seed=")) {
      o->seed = static_cast<std::uint64_t>(std::atoll(v5));
    } else if (const char* v6 = flag_value(a, "--sequences=")) {
      o->sequences = std::atoi(v6);
    } else if (const char* v7 = flag_value(a, "--length=")) {
      o->length = std::atoi(v7);
    } else if (const char* v8 = flag_value(a, "--reps=")) {
      o->reps = std::atoi(v8);
    } else if (a[0] == '-') {
      return false;
    } else {
      const std::string arg = a;
      const std::size_t eq = arg.find('=');
      o->circuits.push_back(arg.substr(0, eq));
      o->tests.push_back(eq == std::string::npos ? "" : arg.substr(eq + 1));
    }
  }
  return (o->mode == "setup" || o->mode == "trace") &&
         (o->kind == "atpg" || o->kind == "fsim") &&
         (o->engine == "hitec" || o->engine == "cdcl") && o->reps > 0 &&
         o->threads > 0 && !o->circuits.empty() &&
         (o->mode == "setup" || !o->out.empty());
}

Netlist load(const std::string& path) {
  Netlist nl = read_bench_file(path);
  annotate_library(nl);
  return nl;
}

std::vector<Fault> representatives(const std::vector<CollapsedFault>& cf) {
  std::vector<Fault> faults;
  faults.reserve(cf.size());
  for (const auto& c : cf) faults.push_back(c.representative);
  return faults;
}

// ---- setup mode ----

int run_setup(const Options& o) {
  for (int r = 0; r < o.reps; ++r) {
    const auto t0 = Clock::now();
    std::size_t sink = 0;  // keeps every result observably used
    for (const std::string& path : o.circuits) {
      const Netlist nl = load(path);
      const auto collapsed = collapse_faults(nl);
      sink += collapsed.size();
      if (o.kind == "atpg") {
        const auto oracle = StateValidityOracle::build(nl);
        sink += oracle.enabled() ? 1 : 0;
      } else {
        sink += make_random_sequences(nl, o.sequences, o.length, o.seed).size();
      }
    }
    const double s = seconds_between(t0, Clock::now());
    std::printf("setup_s %.9f %zu\n", s, sink);
  }
  return 0;
}

// ---- trace mode ----

/// Reads the `satpg atpg --tests=FILE` format: comment lines, then
/// "sequence k" headers each followed by one 0/1/X vector per cycle.
bool read_tests(const std::string& path, std::size_t width,
                std::vector<TestSequence>* out) {
  std::ifstream is(path);
  if (!is) return false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("sequence ", 0) == 0) {
      out->emplace_back();
      continue;
    }
    if (out->empty() || line.size() != width) return false;
    std::vector<V3> vec(width);
    for (std::size_t i = 0; i < width; ++i) {
      const char c = line[i];
      if (c != '0' && c != '1' && c != 'X') return false;
      vec[i] = c == '0' ? V3::kZero : c == '1' ? V3::kOne : V3::kX;
    }
    out->back().push_back(std::move(vec));
  }
  return true;
}

using Counts = std::map<std::string, double>;

/// Replays a CLI-written test set and returns the class weight detected or
/// potentially detected (the report's potential-credit rule), or -1 when
/// the file cannot be read.
double replay_verdict(Tracer& tr, const std::string& run, const Netlist& nl,
                      const std::vector<CollapsedFault>& collapsed,
                      const std::vector<Fault>& faults,
                      const std::string& tests_path) {
  Span sp(tr, "harness.verify", run);
  std::vector<TestSequence> tests;
  if (!read_tests(tests_path, nl.num_inputs(), &tests)) return -1.0;
  const FsimResult fr = run_fault_simulation(nl, faults, tests);
  double w = 0.0;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (fr.detected_at[i] >= 0 || fr.potential_at[i] >= 0)
      w += collapsed[i].class_size;
  return w;
}

void trace_atpg(const Options& o, Tracer& tr, const std::string& path,
                const std::string& tests_path, Counts& c) {
  const std::string run = path.substr(path.find_last_of('/') + 1);
  Netlist nl = [&] {
    Span sp(tr, "netlist.read", run);
    return load(path);
  }();
  const auto collapsed = [&] {
    Span sp(tr, "fault.collapse", run);
    return collapse_faults(nl);
  }();
  const std::vector<Fault> faults = representatives(collapsed);
  StateValidityOracle oracle;
  {
    Span sp(tr, "analysis.oracle_build", run);
    oracle = StateValidityOracle::build(nl);
  }
  c["analysis.valid_states"] += std::max(0.0, oracle.info().num_valid);

  ParallelAtpgOptions popts;
  AtpgRunOptions& ro = popts.run;
  ro.engine.kind = o.engine == "cdcl" ? EngineKind::kCdcl : EngineKind::kHitec;
  // Same scaling as `satpg atpg --budget=F`.
  ro.engine.eval_limit =
      static_cast<std::uint64_t>(ro.engine.eval_limit * o.budget);
  ro.engine.backtrack_limit =
      static_cast<std::uint64_t>(ro.engine.backtrack_limit * o.budget);
  ro.seed = o.seed;
  popts.num_threads = o.threads;

  // ---- serial composition of the driver's calls ----
  std::vector<bool> open(faults.size(), true);  // not yet detected/settled
  std::vector<TestSequence> tests;
  {
    const auto seqs = [&] {
      Span sp(tr, "fsim.make_sequences", run);
      return make_random_sequences(nl, ro.random_sequences, ro.random_length,
                                   ro.seed);
    }();
    Span sp(tr, "fsim.random_phase", run);
    const FsimResult fr = run_fault_simulation(nl, faults, seqs, ro.fsim);
    c["fsim.patterns"] += static_cast<double>(ro.random_sequences) *
                          ro.random_length;
    std::vector<bool> used(seqs.size(), false);
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (fr.detected_at[i] >= 0) {
        open[i] = false;
        used[static_cast<std::size_t>(fr.detected_at[i])] = true;
      }
    for (std::size_t s = 0; s < seqs.size(); ++s)
      if (used[s]) tests.push_back(seqs[s]);
  }
  std::optional<AtpgEngine> engine;
  {
    Span sp(tr, "atpg.engine_init", run);
    engine.emplace(nl, ro.engine);
    engine->set_validity_oracle(&oracle);
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!open[i]) continue;
    open[i] = false;
    FaultAttempt a = [&] {
      Span sp(tr, "atpg.generate", run);
      return engine->generate(faults[i]);
    }();
    const FaultSearchStats& st = a.stats;
    c["atpg.attempts"] += 1;
    c["atpg.backtracks"] += static_cast<double>(st.backtracks);
    c["atpg.implications"] += static_cast<double>(st.implications);
    c["atpg.justify_calls"] += static_cast<double>(st.justify_calls);
    c["atpg.justify_failures"] += static_cast<double>(st.justify_failures);
    c["atpg.invalid_evals"] += static_cast<double>(
        st.attribution
            .justify_evals[static_cast<std::size_t>(StateValidity::kInvalid)]);
    c["cdcl.propagations"] += static_cast<double>(st.propagations);
    c["cdcl.conflicts"] += static_cast<double>(st.conflicts);
    c["cdcl.restarts"] += static_cast<double>(st.restarts);
    c["cdcl.cube_exports"] += static_cast<double>(st.cube_exports);
    c["cdcl.cube_blocks"] += static_cast<double>(st.cube_blocks);
    if (a.status == FaultStatus::kAborted) {
      c["atpg.aborted"] += 1;
    } else if (a.status == FaultStatus::kDetected) {
      fill_x_with_zero(a.sequence);
      std::vector<Fault> remaining;
      std::vector<std::size_t> remap;
      for (std::size_t j = 0; j < faults.size(); ++j)
        if (j == i || open[j]) {
          remaining.push_back(faults[j]);
          remap.push_back(j);
        }
      Span sp(tr, "fsim.drop", run);
      const FsimResult fr =
          run_fault_simulation(nl, remaining, {a.sequence}, ro.fsim);
      c["fsim.drop_calls"] += 1;
      for (std::size_t k = 0; k < remaining.size(); ++k)
        if (fr.detected_at[k] >= 0) open[remap[k]] = false;
      tests.push_back(std::move(a.sequence));
    }
  }
  const std::uint64_t serial_evals = engine->total_evals();
  c["atpg.evals"] += static_cast<double>(serial_evals);
  engine.reset();
  if (!tests.empty()) {
    Span sp(tr, "fsim.replay", run);
    run_fault_simulation(nl, {}, tests, ro.fsim);
  }

  // ---- the parallel driver itself, then its report ----
  const ParallelAtpgResult pres = [&] {
    Span sp(tr, "parallel.run", run);
    return run_parallel_atpg(nl, popts);
  }();
  c["parallel.evals"] += static_cast<double>(pres.run.evals);
  c["parallel.serial_evals"] += static_cast<double>(serial_evals);
  for (std::size_t i = 0; i < pres.fault_stats.size(); ++i)
    if (pres.attempted[i])
      c["parallel.busy_s"] += pres.fault_stats[i].wall_seconds;
  {
    Span sp(tr, "harness.report", run);
    const std::string report = o.out + "." + run + ".report.json";
    if (!write_atpg_report_json(report, nl, popts, pres))
      throw std::runtime_error("cannot write " + report);
  }
  if (!tests_path.empty())
    c["verdict.replay_weight"] +=
        replay_verdict(tr, run, nl, collapsed, faults, tests_path);
}

void trace_fsim(const Options& o, Tracer& tr, const std::string& path,
                Counts& c) {
  const std::string run = path.substr(path.find_last_of('/') + 1);
  Netlist nl = [&] {
    Span sp(tr, "netlist.read", run);
    return load(path);
  }();
  const auto collapsed = [&] {
    Span sp(tr, "fault.collapse", run);
    return collapse_faults(nl);
  }();
  const std::vector<Fault> faults = representatives(collapsed);
  const auto seqs = [&] {
    Span sp(tr, "fsim.make_sequences", run);
    return make_random_sequences(nl, o.sequences, o.length, o.seed);
  }();
  FsimOptions fopts;
  fopts.num_threads = o.threads;
  const FsimResult fr = [&] {
    Span sp(tr, "fsim.grade", run);
    return run_fault_simulation(nl, faults, seqs, fopts);
  }();
  {
    Span sp(tr, "fsim.good", run);
    run_fault_simulation(nl, {}, seqs, fopts);
  }
  c["fsim.patterns"] += static_cast<double>(o.sequences) * o.length;
  c["fsim.detected_classes"] += static_cast<double>(fr.num_detected);
}

int run_trace(const Options& o) {
  Tracer tr;
  Counts c;
  for (std::size_t k = 0; k < o.circuits.size(); ++k) {
    if (o.kind == "atpg")
      trace_atpg(o, tr, o.circuits[k], o.tests[k], c);
    else
      trace_fsim(o, tr, o.circuits[k], c);
  }
  c["parallel.threads"] = o.threads;
  const double wall = tr.now();

  std::ostringstream os;
  os.precision(17);
  os << "{\"wall_s\": " << wall << ", \"counts\": {";
  bool first = true;
  for (const auto& [k, v] : c) {
    os << (first ? "" : ", ") << '"' << json_escape(k) << "\": " << v;
    first = false;
  }
  os << "}, \"spans\": [";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << json_escape(s.name)
       << "\", \"run\": \"" << json_escape(s.run) << "\", \"start\": "
       << s.start << ", \"end\": " << s.end << ", \"parent\": " << s.parent
       << '}';
  }
  os << "]}\n";
  std::ofstream f(o.out);
  f << os.str();
  return f ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness setup|trace --kind=atpg|fsim "
                 "[options] circuit.bench[=tests] ...\n");
    return 2;
  }
  try {
    return o.mode == "setup" ? run_setup(o) : run_trace(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
