// End-to-end benchmark of the cgpipe compiler on the paper applications.
//
// One client runs a closed loop: a pass compiles and runs six paper configs
// back to back, each through the public pipeline
//     compile_pipeline -> CompileResult::make_runner -> PipelineCompiler::run
//     -> simulate_run
// and checks every run's finals against the sequential interpreter (the
// oracle). Passes repeat while the next one fits in --seconds; a mix metric
// is the sum over the six configs of each config's median over passes.
//
//   --trace 0  prints the end-to-end metrics (e2e_s, setup_s, run_s, cpu_s,
//              sim_s, peak_rss_mb; error_rate is attempted/failed).
//   --trace 1  alternates untraced passes with traced ones, which call each
//              compiler layer's public entry point separately inside a span,
//              and prints the per-layer metrics plus trace_overhead. Spans
//              are kept in memory and written to --spans-out at the end.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. The exit code is 0 only when every checked run was correct.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/stage_class.h"
#include "apps/app_configs.h"
#include "apps/manual_filters.h"
#include "codegen/emitter.h"
#include "codegen/interp.h"
#include "codegen/packing.h"
#include "codegen/serialize.h"
#include "datacutter/transport.h"
#include "driver/compiler.h"
#include "driver/simulate.h"
#include "parser/parser.h"
#include "sema/sema.h"
#include "support/json.h"
#include "support/rng.h"

namespace cgp {
namespace {

using Clock = std::chrono::steady_clock;
using support::Json;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads and inputs
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  int width;    // transparent copies of the data and compute stages
  bool decomp;  // the compiler's placement; otherwise the paper's Default
  dc::TransportBackend backend;
  std::size_t batch;
};

// Why each workload exists is recorded in BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"paper-w1", 1, true, dc::TransportBackend::kThread, 1},
    {"paper-w2", 2, true, dc::TransportBackend::kThread, 1},
    {"default-proc", 1, false, dc::TransportBackend::kProc, 4},
};

using ManualRunner = PipelineRunResult (*)(
    const std::map<std::string, std::int64_t>&, const EnvironmentSpec&);

struct AppCase {
  apps::AppConfig config;
  std::string cls;                       // class whose main() the oracle runs
  std::vector<std::string> result_keys;  // compared structurally at width > 1
  /// Scalars the decomposition leaves on an upstream stage (mutated there,
  /// consumed by no later filter): the sink reports their initializer, so
  /// the byte comparison skips them (tests/test_conformance.cpp).
  std::vector<std::string> stage_local;
  ManualRunner manual = nullptr;  // hand-written pipeline, if the paper has one

  // Filled by the untimed set-up.
  std::map<std::string, Value> oracle;
  std::optional<std::vector<double>> stage_ops;  // count check (width 1)
  std::vector<std::int64_t> link_packet_bytes;
  std::int64_t packets = 0;
};

/// The six paper configs, with query constants drawn from `seed` in a
/// narrow range around the paper values: isovalue, knn query point, and
/// vmscope window position (window size fixed, shifts in whole subsample
/// steps). The program sees only the runtime_define_* constants; the cost
/// model's size bindings stay the paper config's.
std::vector<AppCase> make_cases(std::uint64_t seed) {
  Rng rng(seed);
  auto shift = [&](apps::AppConfig& c, const char* key, std::int64_t lo,
                   std::int64_t hi) {
    c.runtime_constants.at(key) += rng.next_int(lo, hi);
  };
  std::vector<AppCase> cases;
  for (bool active : {false, true}) {
    AppCase c;
    c.config = active ? apps::isosurface_active_pixels_config(false)
                      : apps::isosurface_zbuffer_config(false);
    c.cls = active ? "IsoActivePixels" : "IsoZBuffer";
    c.result_keys = {"checksum", "lit"};
    shift(c.config, "runtime_define_iso_mille", -20, 20);
    cases.push_back(std::move(c));
  }
  for (std::int64_t k : {3, 200}) {
    AppCase c;
    c.config = apps::knn_config(k);
    c.cls = "Knn";
    c.result_keys = {"kth", "dsum"};
    // The data host's point-synthesis PRNG cursor.
    c.stage_local = {"seed"};
    c.manual = &apps::run_knn_manual;
    for (const char* axis : {"runtime_define_qx_mille",
                             "runtime_define_qy_mille",
                             "runtime_define_qz_mille"})
      shift(c.config, axis, -25, 25);
    cases.push_back(std::move(c));
  }
  for (bool large : {false, true}) {
    AppCase c;
    c.config = apps::vmscope_config(large);
    c.cls = "VMScope";
    c.result_keys = {"total", "filled"};
    c.manual = &apps::run_vmscope_manual;
    auto& k = c.config.runtime_constants;
    const std::int64_t sub = k.at("runtime_define_subsample");
    const std::int64_t steps = large ? 3 : 16;  // stays inside the slide
    const std::int64_t dx = sub * rng.next_int(-steps, steps);
    const std::int64_t dy = sub * rng.next_int(-steps, steps);
    k.at("runtime_define_qx0") += dx;
    k.at("runtime_define_qx1") += dx;
    k.at("runtime_define_qy0") += dy;
    k.at("runtime_define_qy1") += dy;
    cases.push_back(std::move(c));
  }
  return cases;
}

CompileOptions compile_options(const AppCase& c, const Workload& w) {
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(w.width);
  options.runtime_constants = c.config.runtime_constants;
  options.size_bindings = c.config.size_bindings;
  options.n_packets = c.config.n_packets;
  options.backend = dc::backend_name(w.backend);
  options.batch_size = w.batch;
  return options;
}

const Placement& placement_of(const CompileResult& compiled,
                              const Workload& w) {
  return w.decomp ? compiled.decomposition.placement : compiled.baseline;
}

dc::RunnerConfig runner_config(const Workload& w) {
  dc::RunnerConfig config;
  config.backend = w.backend;
  config.batch_size = w.batch;
  return config;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  int id = 0;
  int parent = -1;
  int run = 0;   // all spans of one program run share it
  int pass = 0;  // traced pass the run belongs to
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder; a null Tracer* makes every Span a no-op.
class Tracer {
 public:
  int open(const char* name) {
    SpanRecord span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.run = run;
    span.pass = pass;
    span.start_s = now();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    stack_.pop_back();
  }

  /// Per traced pass: span name -> summed self time (duration minus the
  /// part of it covered by child spans).
  std::vector<std::map<std::string, double>> self_times(int passes) const {
    std::vector<double> self(spans_.size());
    for (const SpanRecord& s : spans_) {
      self[static_cast<std::size_t>(s.id)] += s.end_s - s.start_s;
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
    std::vector<std::map<std::string, double>> out(
        static_cast<std::size_t>(passes));
    for (const SpanRecord& s : spans_)
      out[static_cast<std::size_t>(s.pass)][s.name] +=
          self[static_cast<std::size_t>(s.id)];
    return out;
  }

  void write(const std::string& path) const {
    Json::Array rows;
    for (const SpanRecord& s : spans_) {
      rows.push_back(Json(Json::Object{{"run", s.run},
                                       {"pass", s.pass},
                                       {"id", s.id},
                                       {"parent", s.parent},
                                       {"name", s.name},
                                       {"start_s", s.start_s},
                                       {"end_s", s.end_s}}));
    }
    std::ofstream out(path);
    out << Json(Json::Object{{"spans", Json(std::move(rows))}}).dump(1)
        << "\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

  int run = 0;
  int pass = 0;

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// One program run
// ---------------------------------------------------------------------------

/// compile_pipeline, one layer at a time so each call gets its own span.
/// The traced set-up checks it emits the same source as compile_pipeline.
CompileResult compile_by_layer(std::string_view source,
                               const CompileOptions& options, Tracer& t) {
  CompileResult r;
  r.runtime_constants = options.runtime_constants;
  DiagnosticEngine diags;
  {
    Span span(&t, "parser.parse");
    r.program = Parser::parse(source, diags);
  }
  if (diags.has_errors()) {
    r.diagnostics = diags.render();
    return r;
  }
  {
    Span span(&t, "analysis.model");
    PipelineBuildOptions build;
    build.apply_fission = options.apply_fission;
    r.model = build_pipeline_model(*r.program, diags, build);
  }
  r.diagnostics = diags.render();
  if (diags.has_errors() || r.model.filters.empty()) return r;
  {
    Span span(&t, "analysis.classify");
    r.classification = classify_filters(r.model);
  }
  {
    Span span(&t, "decomp.solve");
    r.decomp_input = make_decomposition_input(r.model, options.env, options);
    r.dp_figure3 = decompose_dp(r.decomp_input);
    r.decomposition = decompose_bruteforce(
        r.decomp_input, Objective::PipelineTotal, options.n_packets);
    r.baseline = default_placement(r.decomp_input, /*compute_stage=*/1);
  }
  {
    Span span(&t, "codegen.plan");
    PipelineCompiler compiler(r.model, r.decomposition.placement, options.env,
                              options.runtime_constants);
    r.stage_plans = compiler.plans();
    r.generated_source = emit_datacutter_source(r.model, r.stage_plans);
  }
  r.ok = true;
  return r;
}

std::vector<unsigned char> value_bytes(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return std::vector<unsigned char>(data, data + buffer.size());
}

/// Compares a run's finals with the oracle. Width 1 is deterministic, so
/// every final must serialize to the oracle's bytes; with transparent
/// copies the replica merge may reorder float accumulation, so only the
/// app's result keys are compared, at tolerance 1e-9. Returns "" or the
/// first mismatch (config, key, both values).
std::string check_finals(const AppCase& c, const PipelineRunResult& run,
                         bool exact) {
  if (!run.completed) return "run did not complete: " + run.error;
  if (!run.faults.empty()) return "run recorded a fault: " + run.faults[0].what;
  if (run.finals.empty()) return "run returned no finals";
  auto mismatch = [&](const std::string& key, const Value& got,
                      const Value& want) {
    return "key " + key + " = " + value_to_string(got) + ", oracle " +
           value_to_string(want);
  };
  if (exact) {
    for (const auto& [key, value] : run.finals) {
      if (std::find(c.stage_local.begin(), c.stage_local.end(), key) !=
          c.stage_local.end())
        continue;
      auto it = c.oracle.find(key);
      if (it == c.oracle.end()) return "oracle lacks key " + key;
      if (value_bytes(value) != value_bytes(it->second))
        return mismatch(key, value, it->second);
    }
    return "";
  }
  for (const std::string& key : c.result_keys) {
    auto got = run.finals.find(key);
    if (got == run.finals.end()) return "run lacks key " + key;
    const Value& want = c.oracle.at(key);
    if (!value_equal(got->second, want, 1e-9))
      return mismatch(key, got->second, want);
  }
  return "";
}

struct ProgramRun {
  double setup_s = 0.0;  // compile_pipeline + make_runner
  double run_s = 0.0;    // PipelineCompiler::run
  double e2e_s = 0.0;    // source text to oracle-checked finals
  double sim_s = 0.0;    // simulate_run on the paper cluster
  double cpu_s = 0.0;    // user + sys of the process and reaped workers
  PipelineRunResult result;
  std::string error;     // "" when the finals matched the oracle
};

/// Compiles, runs, simulates and checks one program. With a tracer, the
/// compile goes layer by layer and every step records a span.
ProgramRun run_program(const AppCase& c, const Workload& w, Tracer* tracer) {
  ProgramRun out;
  const CompileOptions options = compile_options(c, w);
  const auto t0 = Clock::now();
  Span program(tracer, "program");
  CompileResult compiled = tracer
                               ? compile_by_layer(c.config.source, options,
                                                  *tracer)
                               : compile_pipeline(c.config.source, options);
  if (!compiled.ok)
    throw std::runtime_error("compile failed: " + compiled.diagnostics);
  std::optional<PipelineCompiler> runner;
  {
    Span span(tracer, "driver.make_runner");
    runner.emplace(compiled.make_runner(placement_of(compiled, w), options.env,
                                        {}, runner_config(w)));
  }
  const auto t1 = Clock::now();
  std::fflush(stdout);  // forked workers must not inherit buffered output
  {
    Span span(tracer, "datacutter.run");
    out.result = runner->run();
  }
  const auto t2 = Clock::now();
  {
    Span span(tracer, "driver.simulate");
    out.sim_s = simulate_run(out.result, options.env);
  }
  {
    Span span(tracer, "oracle.check");
    out.error = check_finals(c, out.result, w.width == 1);
  }
  const auto t3 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.e2e_s = seconds_between(t0, t3);
  return out;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total +=
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                   usage.ru_stime.tv_usec);
  }
  return total;
}

double peak_rss_mb() {
  long kb = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    kb = std::max(kb, usage.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

struct PassResult {
  double e2e_s = 0.0;    // summed over the cases
  double setup_s = 0.0;
  std::vector<ProgramRun> runs;  // one per case, in case order
};

/// A metric of the whole mix: the sum over cases of each case's median
/// over passes, so one slow program in a pass moves it less than the
/// median of per-pass sums would.
double mix_median(const std::vector<PassResult>& passes,
                  double ProgramRun::*field) {
  double total = 0.0;
  for (std::size_t i = 0; i < passes.front().runs.size(); ++i) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(p.runs[i].*field);
    total += median(v);
  }
  return total;
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    failures.push_back(what + ": " + error);
    std::cerr << "e2ebench: FAILED " << what << ": " << error << "\n";
  }
};

/// Width-1 runs are deterministic, so per-stage op counts and link packet
/// bytes must repeat exactly; the simulated figures are computed from them.
std::string check_counts(AppCase& c, const PipelineRunResult& run) {
  if (!c.stage_ops) {
    c.stage_ops = run.stage_ops;
    c.link_packet_bytes = run.link_packet_bytes;
    return "";
  }
  std::ostringstream drift;
  if (run.stage_ops != *c.stage_ops) {
    drift << "stage_ops drifted:";
    for (std::size_t s = 0; s < run.stage_ops.size(); ++s)
      drift << " " << run.stage_ops[s] << "/"
            << (s < c.stage_ops->size() ? (*c.stage_ops)[s] : -1.0);
  }
  if (run.link_packet_bytes != c.link_packet_bytes) {
    drift << " link_packet_bytes drifted:";
    for (std::size_t k = 0; k < run.link_packet_bytes.size(); ++k)
      drift << " " << run.link_packet_bytes[k] << "/"
            << (k < c.link_packet_bytes.size() ? c.link_packet_bytes[k] : -1);
  }
  return drift.str();
}

PassResult run_pass(std::vector<AppCase>& cases, const Workload& w,
                    Tracer* tracer, Tally& tally, const std::string& label) {
  PassResult pass;
  for (AppCase& c : cases) {
    ProgramRun run;
    const double cpu0 = cpu_seconds();
    try {
      run = run_program(c, w, tracer);
    } catch (const std::exception& e) {
      run.error = std::string("threw: ") + e.what();
    }
    run.cpu_s = cpu_seconds() - cpu0;
    if (run.error.empty() && w.width == 1)
      run.error = check_counts(c, run.result);
    if (run.error.empty()) c.packets = run.result.packets;
    tally.record(label + " " + c.config.name, run.error);
    if (tracer) ++tracer->run;
    pass.e2e_s += run.e2e_s;
    pass.setup_s += run.setup_s;
    pass.runs.push_back(std::move(run));
  }
  return pass;
}

/// One extra set-up round (compile_pipeline + make_runner for every case,
/// no run), so setup_s is a median over many samples spread across the
/// measured window, not only one per pass.
double setup_round(const std::vector<AppCase>& cases, const Workload& w) {
  double total = 0.0;
  for (const AppCase& c : cases) {
    const CompileOptions options = compile_options(c, w);
    const auto t0 = Clock::now();
    CompileResult compiled = compile_pipeline(c.config.source, options);
    if (!compiled.ok)
      throw std::runtime_error(c.config.name + ": compile failed");
    PipelineCompiler runner = compiled.make_runner(
        placement_of(compiled, w), options.env, {}, runner_config(w));
    total += seconds_between(t0, Clock::now());
  }
  return total;
}

// ---------------------------------------------------------------------------
// Untimed set-up: the oracle, and the codegen-layer probes of traced runs
// ---------------------------------------------------------------------------

struct OracleStats {
  double seconds = 0.0;
  double ops = 0.0;
};

OracleStats run_oracle(AppCase& c) {
  const auto t0 = Clock::now();
  DiagnosticEngine diags;
  auto program = Parser::parse(c.config.source, diags);
  Sema sema(*program, diags);
  SemaResult checked = sema.run();
  if (!checked.ok)
    throw std::runtime_error(c.config.name + ": " + diags.render());
  Interpreter interp(checked.registry, c.config.runtime_constants);
  Env env = interp.run(c.cls, "main");
  c.oracle = env.flatten();
  return {seconds_between(t0, Clock::now()), interp.ops()};
}

/// Resolves section-bound symbols the way the generated stages do: the
/// packet variable, integral locals, field paths, and len(path).
SymbolResolver make_resolver(Env& env, const ClassRegistry& registry,
                             const std::string& loop_var,
                             std::int64_t packet) {
  auto lookup = [&env, &registry](const std::string& path)
      -> std::optional<Value> {
    std::size_t dot = path.find('.');
    const std::string base = path.substr(0, dot);
    if (!env.has(base)) return std::nullopt;
    Value current = env.get(base);
    while (dot != std::string::npos) {
      const std::size_t next = path.find('.', dot + 1);
      const std::string step = path.substr(dot + 1, next - dot - 1);
      auto* obj = std::get_if<std::shared_ptr<Object>>(&current);
      if (!obj || !*obj) return std::nullopt;
      const ClassInfo* cls = registry.find((*obj)->class_name);
      const FieldInfo* field = cls ? cls->find_field(step) : nullptr;
      if (!field) return std::nullopt;
      current = (*obj)->fields[static_cast<std::size_t>(field->index)];
      dot = next;
    }
    return current;
  };
  return [lookup, loop_var, packet](
             const std::string& sym) -> std::optional<std::int64_t> {
    if (sym == loop_var) return packet;
    const bool is_len = sym.rfind("len(", 0) == 0 && sym.back() == ')';
    const std::optional<Value> v =
        lookup(is_len ? sym.substr(4, sym.size() - 5) : sym);
    if (!v) return std::nullopt;
    if (is_len) {
      const auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&*v);
      if (!arr || !*arr) return std::nullopt;
      return (*arr)->base_index +
             static_cast<std::int64_t>((*arr)->elems.size());
    }
    if (const auto* i = std::get_if<std::int64_t>(&*v)) return *i;
    return std::nullopt;
  };
}

struct CodegenProbe {
  double preloop_s = 0.0;  // pre-loop dataset synthesis
  double pack_s = 0.0;     // codec time, scaled to the run's packets
  double unpack_s = 0.0;
  double packed_bytes = 0.0;
};

struct StopAtLoop {};

/// Runs the compiled program's main() in the interpreter and stops it at
/// the PipelinedLoop, which times the pre-loop synthesis. At the stop, the
/// middle packet is pushed through the placement's stages in that
/// environment and each codec boundary's PacketCodec pack/unpack is timed
/// on it; the per-packet medians are scaled to `c.packets` packets.
CodegenProbe probe_codegen(const AppCase& c, const Workload& w) {
  const CompileOptions options = compile_options(c, w);
  CompileResult compiled = compile_pipeline(c.config.source, options);
  if (!compiled.ok)
    throw std::runtime_error(c.config.name + ": compile failed");
  const PipelineCompiler runner =
      compiled.make_runner(placement_of(compiled, w), options.env);
  const PipelineModel& model = compiled.model;
  CodegenProbe probe;
  Interpreter interp(model.registry, c.config.runtime_constants);
  const auto t0 = Clock::now();
  interp.set_pipelined_hook([&](const PipelinedLoopStmt& loop, Env& env) {
    probe.preloop_s = seconds_between(t0, Clock::now());
    const Value dom = interp.eval(*loop.domain, env);
    const auto* domain = std::get_if<RectDomainVal>(&dom);
    if (!domain) throw std::runtime_error("loop domain is not a rectdomain");
    const std::int64_t packet = (domain->lo + domain->hi) / 2;
    env.push();
    env.declare(model.loop_var, packet);
    const SymbolResolver resolve =
        make_resolver(env, model.registry, model.loop_var, packet);
    const auto& plans = runner.plans();
    for (std::size_t s = 0; s + 1 < plans.size(); ++s) {
      const StagePlan& plan = plans[s];
      interp.exec_stmts(plan.stmts, env);
      if (plan.relay) continue;  // forwards the arriving buffer verbatim
      const PacketCodec codec(model.registry, plan.output_layout);
      std::vector<double> pack_times, unpack_times;
      dc::Buffer packed;
      for (int rep = 0; rep < 15; ++rep) {
        dc::Buffer out;
        const auto a = Clock::now();
        codec.pack(env, resolve, out);
        pack_times.push_back(seconds_between(a, Clock::now()));
        packed = std::move(out);
      }
      for (int rep = 0; rep < 15; ++rep) {
        dc::Buffer in = packed;
        in.seek(0);
        Env receiver;
        const auto a = Clock::now();
        codec.unpack(in, receiver);
        unpack_times.push_back(seconds_between(a, Clock::now()));
      }
      const double n = static_cast<double>(c.packets);
      probe.pack_s += median(pack_times) * n;
      probe.unpack_s += median(unpack_times) * n;
      probe.packed_bytes += static_cast<double>(packed.size()) * n;
    }
    throw StopAtLoop{};
    return true;
  });
  try {
    interp.run(c.cls, "main");
  } catch (const StopAtLoop&) {
    return probe;
  }
  throw std::runtime_error(c.config.name + ": main() has no PipelinedLoop");
}

/// The layer-by-layer compile must stay the same compiler as
/// compile_pipeline, or the traced numbers describe something else.
void check_layered_compile(const AppCase& c, const Workload& w) {
  const CompileOptions options = compile_options(c, w);
  Tracer unused;
  const CompileResult layered =
      compile_by_layer(c.config.source, options, unused);
  const CompileResult whole = compile_pipeline(c.config.source, options);
  if (!layered.ok || !whole.ok ||
      layered.generated_source != whole.generated_source ||
      !(layered.baseline == whole.baseline) ||
      !(layered.decomposition.placement == whole.decomposition.placement))
    throw std::runtime_error(c.config.name +
                             ": layer-by-layer compile diverged from "
                             "compile_pipeline");
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or base, for the human-readable table
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json::Object out;
  for (const Metric& m : metrics)
    out.emplace_back(m.name, Json(Json::Object{{"value", m.value},
                                               {"unit", m.unit}}));
  return Json(std::move(out));
}

/// Times each hand-written pipeline (median of `reps`; NaN where the paper
/// has none) on the workload's width and checks its results against the
/// oracle at tolerance 1e-6 (the manual filters round differently from the
/// interpreter's op order).
std::vector<double> time_manual(const std::vector<AppCase>& cases,
                                const Workload& w, int reps, Tally& tally) {
  std::vector<double> out;
  const EnvironmentSpec env = EnvironmentSpec::paper_cluster(w.width);
  for (const AppCase& c : cases) {
    if (!c.manual) {
      out.push_back(std::nan(""));
      continue;
    }
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      PipelineRunResult run = c.manual(c.config.runtime_constants, env);
      times.push_back(seconds_between(t0, Clock::now()));
      std::string error;
      for (const std::string& key : c.result_keys) {
        auto got = run.finals.find(key);
        if (got == run.finals.end()) {
          error = "manual run lacks key " + key;
        } else if (!value_equal(got->second, c.oracle.at(key), 1e-6)) {
          error = "manual key " + key + " = " + value_to_string(got->second) +
                  ", oracle " + value_to_string(c.oracle.at(key));
        }
        if (!error.empty()) break;
      }
      tally.record("manual " + c.config.name, error);
    }
    out.push_back(median(times));
  }
  return out;
}

/// Per-config rows: wall run_s beside sim_s, and compiled / manual where a
/// hand-written pipeline exists. Returns the geometric mean of the ratios.
double print_config_rows(const std::vector<AppCase>& cases,
                          const std::vector<PassResult>& passes,
                          const std::vector<double>& manual,
                          std::vector<Metric>* per_layer) {
  std::printf("  %-26s %12s %12s %12s %12s\n", "config", "run_s(wall)",
              "sim_s", "manual_s", "comp/manual");
  double log_sum = 0.0;
  int ratios = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::vector<double> run_s, sim_s;
    for (const PassResult& p : passes) {
      run_s.push_back(p.runs[i].run_s);
      sim_s.push_back(p.runs[i].sim_s);
    }
    const std::string& name = cases[i].config.name;
    const double run = median(run_s);
    const double sim = median(sim_s);
    const double man = manual[i];
    const double ratio = std::isnan(man) ? man : run / man;
    std::printf("  %-26s %12.6f %12.6f %12.6f %12.2f\n", name.c_str(), run,
                sim, man, ratio);
    if (!std::isnan(ratio)) {
      log_sum += std::log(ratio);
      ++ratios;
    }
    if (per_layer) {
      const std::string n = std::to_string(passes.size()) + " passes";
      per_layer->push_back({"apps." + name + ".run_s", run, "s", n});
      per_layer->push_back({"apps." + name + ".sim_s", sim, "s", n});
    }
  }
  return ratios ? std::exp(log_sum / ratios) : 0.0;
}

/// Per-layer metrics of a traced run: span self times and run counters,
/// each the median over traced passes of the pass's sum over programs.
/// e2ebench/README.md says which end-to-end metric each should move.
std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const std::vector<PassResult>& traced,
                                  const OracleStats& oracle,
                                  const CodegenProbe& codegen) {
  const std::string nt = std::to_string(traced.size()) + " traced passes";
  const auto self = tracer.self_times(static_cast<int>(traced.size()));
  auto layer = [&](const char* span) {
    std::vector<double> v;
    for (const auto& pass : self) {
      auto it = pass.find(span);
      v.push_back(it == pass.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  auto counter = [&](auto get) {
    std::vector<double> v;
    for (const PassResult& p : traced) {
      double sum = 0.0;
      for (const ProgramRun& r : p.runs) sum += get(r.result);
      v.push_back(sum);
    }
    return median(v);
  };
  std::vector<Metric> out = {
      {"parser.parse_s", layer("parser.parse"), "s", nt},
      {"analysis.model_s", layer("analysis.model"), "s", nt},
      {"analysis.classify_s", layer("analysis.classify"), "s", nt},
      {"decomp.solve_s", layer("decomp.solve"), "s", nt},
      {"codegen.plan_s", layer("codegen.plan"), "s", nt},
      {"driver.make_runner_s", layer("driver.make_runner"), "s", nt},
      {"codegen.oracle_s", oracle.seconds, "s", "1 sequential run per config"},
      {"codegen.oracle_ops", oracle.ops, "ops", "1 sequential run per config"},
      {"codegen.preloop_s", codegen.preloop_s, "s", "1 run per config"},
      {"codegen.pack_s", codegen.pack_s, "s", "median of 15, x packets"},
      {"codegen.unpack_s", codegen.unpack_s, "s", "median of 15, x packets"},
      {"codegen.packed_bytes", codegen.packed_bytes, "bytes", "x packets"},
  };
  using F = support::FilterMetrics;
  struct StageField {
    const char* name;
    double (*get)(const F&);
  };
  const StageField stage_fields[] = {
      {"busy_s", [](const F& m) { return m.busy_seconds(); }},
      {"stall_in_s", [](const F& m) { return m.stall_input_seconds; }},
      {"stall_out_s", [](const F& m) { return m.stall_output_seconds; }},
  };
  for (std::size_t s = 0; s < 3; ++s) {
    for (const StageField& f : stage_fields) {
      out.push_back({"datacutter.stage" + std::to_string(s) + "." + f.name,
                     counter([&](const PipelineRunResult& r) {
                       return s < r.stage_metrics.size()
                                  ? f.get(r.stage_metrics[s])
                                  : 0.0;
                     }),
                     "s", nt});
    }
  }
  using L = support::LinkMetrics;
  struct LinkField {
    const char* name;
    const char* unit;
    double (*get)(const L&);
  };
  const LinkField link_fields[] = {
      {"bytes", "bytes", [](const L& m) { return double(m.bytes); }},
      {"buffers", "count", [](const L& m) { return double(m.buffers); }},
      {"batches", "count", [](const L& m) { return double(m.batches); }},
      {"producer_block_s", "s",
       [](const L& m) { return m.producer_block_seconds; }},
      {"consumer_block_s", "s",
       [](const L& m) { return m.consumer_block_seconds; }},
      {"frames", "count", [](const L& m) { return double(m.frames); }},
      {"wire_bytes", "bytes", [](const L& m) { return double(m.wire_bytes); }},
      {"send_wait_s", "s", [](const L& m) { return m.send_wait_seconds; }},
      {"recv_wait_s", "s", [](const L& m) { return m.recv_wait_seconds; }},
  };
  for (std::size_t k = 0; k < 2; ++k) {
    for (const LinkField& f : link_fields) {
      out.push_back({"datacutter.link" + std::to_string(k) + "." + f.name,
                     counter([&](const PipelineRunResult& r) {
                       return k < r.link_metrics.size()
                                  ? f.get(r.link_metrics[k])
                                  : 0.0;
                     }),
                     f.unit, nt});
    }
  }
  const double acquires = counter(
      [](const PipelineRunResult& r) { return double(r.pool.acquires); });
  const double hits =
      counter([](const PipelineRunResult& r) { return double(r.pool.hits); });
  out.push_back({"datacutter.pool.hit_rate",
                 acquires > 0 ? hits / acquires : 0.0, "ratio",
                 "base: datacutter.pool.acquires"});
  out.push_back({"datacutter.pool.acquires", acquires, "count", nt});
  return out;
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

int run_benchmark(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (!workload)
    throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *workload;

  // Untimed set-up: oracle runs, probes and one warm-up pass.
  std::vector<AppCase> cases = make_cases(args.seed);
  OracleStats oracle;
  for (AppCase& c : cases) {
    const OracleStats s = run_oracle(c);
    oracle.seconds += s.seconds;
    oracle.ops += s.ops;
  }
  // Warm-up runs are checked like timed ones; they count only if one fails.
  Tally warmup;
  run_pass(cases, w, nullptr, warmup, "warm-up");
  Tally tally = warmup.failed > 0 ? warmup : Tally{};
  CodegenProbe codegen;
  if (args.trace) {
    for (const AppCase& c : cases) {
      check_layered_compile(c, w);
      const CodegenProbe p = probe_codegen(c, w);
      codegen.preloop_s += p.preloop_s;
      codegen.pack_s += p.pack_s;
      codegen.unpack_s += p.unpack_s;
      codegen.packed_bytes += p.packed_bytes;
    }
  }

  // Timed passes, while the next one is expected to fit in --seconds. The
  // traced mode alternates untraced and traced passes so trace_overhead
  // compares the two under the same conditions. Each untraced pass is
  // followed by up to 8 set-up rounds (capped at 5% of the pass's time).
  std::vector<PassResult> untraced, traced;
  std::vector<double> setups;
  Tracer tracer;
  const auto start = Clock::now();
  for (int n = 0;; ++n) {
    const double elapsed = seconds_between(start, Clock::now());
    const bool done = !untraced.empty() && (!args.trace || !traced.empty());
    if (done && elapsed + elapsed / n > args.seconds) break;
    const bool trace_this = args.trace && traced.size() < untraced.size();
    if (trace_this) {
      tracer.pass = static_cast<int>(traced.size());
      traced.push_back(run_pass(cases, w, &tracer, tally, "traced pass"));
    } else {
      untraced.push_back(run_pass(
          cases, w, nullptr, tally,
          "pass " + std::to_string(untraced.size())));
      const PassResult& pass = untraced.back();
      setups.push_back(pass.setup_s);
      double spent = 0.0;
      for (int r = 0; r < 8 && spent < 0.05 * pass.e2e_s; ++r) {
        setups.push_back(setup_round(cases, w));
        spent += setups.back();
      }
    }
    const PassResult& last = trace_this ? traced.back() : untraced.back();
    std::fprintf(stderr, "e2ebench: %s pass: e2e_s %.4f\n",
                 trace_this ? "traced" : "untraced", last.e2e_s);
  }
  const std::vector<double> manual = time_manual(cases, w, 5, tally);

  const std::string n_passes =
      "sum of per-config medians of " + std::to_string(untraced.size()) +
      " passes";

  std::printf("workload %s: closed loop, 1 client, width %d (%s), %s backend, "
              "%s placement, batch %zu, seed %llu\n",
              w.name, w.width, w.width == 1 ? "1-1-1" : "2-2-1",
              dc::backend_name(w.backend), w.decomp ? "Decomp" : "Default",
              w.batch, static_cast<unsigned long long>(args.seed));
  std::vector<Metric> per_layer;
  const double comp_over_manual = print_config_rows(
      cases, args.trace ? traced : untraced, manual,
      args.trace ? &per_layer : nullptr);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"e2e_s", mix_median(untraced, &ProgramRun::e2e_s), "s", n_passes},
        {"setup_s", median(setups), "s",
         "median of " + std::to_string(setups.size()) + " set-up rounds"},
        {"run_s", mix_median(untraced, &ProgramRun::run_s), "s", n_passes},
        {"cpu_s", mix_median(untraced, &ProgramRun::cpu_s), "s", n_passes},
        {"sim_s", mix_median(untraced, &ProgramRun::sim_s), "s", n_passes},
        {"peak_rss_mb", peak_rss_mb(), "MB", "process and reaped workers"},
    };
  } else {
    metrics = layer_metrics(tracer, traced, oracle, codegen);
    metrics.insert(metrics.end(), per_layer.begin(), per_layer.end());
    double manual_s = 0.0;
    for (double t : manual)
      if (!std::isnan(t)) manual_s += t;
    metrics.push_back(
        {"apps.manual_s", manual_s, "s", "median of 5 per config"});
    metrics.push_back({"apps.comp_over_manual", comp_over_manual, "ratio",
                       "geometric mean over knn-k3, knn-k200, vmscope-small, "
                       "vmscope-large"});
    const double plain = mix_median(untraced, &ProgramRun::e2e_s);
    metrics.push_back({"trace_overhead",
                       (mix_median(traced, &ProgramRun::e2e_s) - plain) / plain,
                       "ratio",
                       "traced vs untraced e2e_s, " +
                           std::to_string(traced.size()) + " traced passes"});
    if (!args.spans_out.empty()) tracer.write(args.spans_out);
  }
  print_metrics(metrics);
  std::printf("  %-36s %16.6f %-6s %lld failed of %lld runs\n", "error_rate",
              tally.attempted ? double(tally.failed) / double(tally.attempted)
                              : 0.0,
              "ratio", static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  for (const std::string& f : tally.failures)
    std::printf("  FAILED %s\n", f.c_str());

  const bool correct = tally.failed == 0;
  std::printf("%s\n",
              Json(Json::Object{{"correct", correct},
                                {"attempted", tally.attempted},
                                {"failed", tally.failed},
                                {"metrics", metrics_json(metrics)}})
                  .dump()
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cgp

int main(int argc, char** argv) {
  try {
    return cgp::run_benchmark(cgp::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
