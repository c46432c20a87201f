#include "codegen/compiled_pipeline.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <unordered_map>

#include "analysis/fission.h"
#include "analysis/may_write.h"
#include "ast/walk.h"
#include "codegen/serialize.h"

namespace cgp {

namespace {

enum class BufferKind : std::uint8_t { Packet = 0, Replica = 1 };

/// Root bases of every store target below a statement (`a[i].f = ...`
/// and `x++` write `a` and `x`).
void collect_written_bases(const Stmt& stmt, std::set<std::string>& out) {
  walk(stmt, [&out](const Expr& e) {
    const Expr* target = store_target(e);
    if (!target) return;
    std::string root = root_base(*target);
    if (!root.empty()) out.insert(std::move(root));
  });
}

/// True for expressions free of calls, allocations and writes that read no
/// field or element (data unavailable off the source stage).
bool scalar_pure(const Expr& expr) {
  auto reads_data = [](const Expr& e) {
    return e.kind == NodeKind::FieldAccess || e.kind == NodeKind::Index;
  };
  return is_pure_expr(expr) && !any_expr(expr, reads_data);
}

/// Names a packing layout binds on the receiving side.
std::set<std::string> layout_bound_names(const PackingLayout& layout) {
  std::set<std::string> out;
  for (const PackedItem& item : layout.header) out.insert(item.id.base);
  for (const PackGroup& group : layout.groups) {
    std::string base = group.collection;
    std::size_t dot = base.find('.');
    if (dot != std::string::npos) base = base.substr(0, dot);
    out.insert(base);
  }
  return out;
}

void write_string(dc::Buffer& out, const std::string& s) {
  out.write<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
  out.write_bytes(s.data(), s.size());
}

std::string read_string(dc::Buffer& in) {
  std::uint32_t n = in.read<std::uint32_t>();
  std::string s(n, '\0');
  in.read_bytes(s.data(), n);
  return s;
}

}  // namespace

void PipelineRunResult::set_counters(
    const std::vector<dc::StageCounters>& counters) {
  const std::size_t m = counters.size();
  stage_ops.assign(m, 0.0);
  stage_replica_ops.assign(m, 0.0);
  link_packet_bytes.assign(m > 0 ? m - 1 : 0, 0);
  link_replica_bytes.assign(m > 0 ? m - 1 : 0, 0);
  for (std::size_t i = 0; i < m; ++i) {
    stage_ops[i] = counters[i].ops;
    stage_replica_ops[i] = counters[i].replica_ops;
    if (i + 1 < m) {
      link_packet_bytes[i] = counters[i].packet_bytes;
      link_replica_bytes[i] = counters[i].replica_bytes;
    }
  }
  packets = m > 0 ? counters.front().packets : 0;
}

std::vector<double> PipelineRunResult::mean_stage_ops() const {
  std::vector<double> out(stage_ops.size(), 0.0);
  if (packets <= 0) return out;
  for (std::size_t i = 0; i < stage_ops.size(); ++i)
    out[i] = stage_ops[i] / static_cast<double>(packets);
  return out;
}

support::PipelineTrace PipelineRunResult::trace() const {
  support::PipelineTrace trace;
  trace.wall_seconds = wall_seconds;
  trace.packets = packets;
  trace.filters = stage_metrics;
  trace.links = link_metrics;
  trace.faults = faults;
  trace.fault_policy = fault_policy;
  trace.batch_size = batch_size;
  trace.pool = pool;
  trace.stage_replicas = stage_replicas;
  trace.checkpoints = checkpoints;
  trace.respawns = respawns;
  trace.heartbeats = heartbeats;
  trace.degraded = degraded;
  trace.completed = completed;
  trace.error = error;
  return trace;
}

std::vector<double> PipelineRunResult::mean_link_bytes() const {
  std::vector<double> out(link_packet_bytes.size(), 0.0);
  if (packets <= 0) return out;
  for (std::size_t i = 0; i < link_packet_bytes.size(); ++i)
    out[i] = static_cast<double>(link_packet_bytes[i]) /
             static_cast<double>(packets);
  return out;
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

namespace {

/// The source stage's state after its pre-loop code: what every source copy
/// of the process builds its frame from. Never written once built.
struct SourceSetup {
  struct Binding {
    int slot = -1;
    Value value;
    bool shared = false;  // copies take the pointer (else a deep clone)
  };
  std::vector<Binding> bindings;  // every base-scope slot bound by `before`
  RectDomainVal domain;           // the packet domain
};

/// Deep copy of `value`'s reachable objects and arrays. `memo` maps each
/// original already copied to its copy, so aliasing inside the copied graph
/// is kept; seeding it with an object maps that object to itself.
Value clone_value(const Value& value,
                  std::unordered_map<const void*, Value>& memo) {
  if (const auto* obj = std::get_if<std::shared_ptr<Object>>(&value)) {
    if (!*obj) return value;
    auto [it, fresh] = memo.try_emplace(obj->get());
    if (!fresh) return it->second;
    auto copy = std::make_shared<Object>();
    it->second = copy;  // before the fields: cycles resolve to the copy
    copy->class_name = (*obj)->class_name;
    copy->fields.reserve((*obj)->fields.size());
    for (const Value& field : (*obj)->fields)
      copy->fields.push_back(clone_value(field, memo));
    return copy;
  }
  if (const auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&value)) {
    if (!*arr) return value;
    auto [it, fresh] = memo.try_emplace(arr->get());
    if (!fresh) return it->second;
    auto copy = std::make_shared<ArrayVal>();
    it->second = copy;
    copy->element_type = (*arr)->element_type;
    copy->base_index = (*arr)->base_index;
    if ((*arr)->element_type && (*arr)->element_type->is_primitive()) {
      copy->elems = (*arr)->elems;
    } else {
      copy->elems.reserve((*arr)->elems.size());
      for (const Value& elem : (*arr)->elems)
        copy->elems.push_back(clone_value(elem, memo));
    }
    return copy;
  }
  return value;  // scalars, strings and domains are values
}

}  // namespace

struct PipelineCompiler::Shared {
  std::mutex mutex;
  std::map<std::string, Value> finals;  // the sink's bindings
  /// Once-latch over the source setup: the first source copy of the
  /// process runs `before` holding `setup_mutex`; the others wait on it and
  /// take the snapshot, or the error the synthesis threw.
  std::mutex setup_mutex;
  bool setup_ran = false;
  std::exception_ptr setup_error;
  SourceSetup setup;
};

// ---------------------------------------------------------------------------
// Stage filter
// ---------------------------------------------------------------------------

namespace {

class StageFilter : public dc::Filter {
 public:
  StageFilter(const PipelineModel& model, const StagePlan& plan,
              std::shared_ptr<const lowered::LoweredPipeline> code,
              const PackCost& pack_cost, int n_stages,
              std::shared_ptr<PipelineCompiler::Shared> shared)
      : model_(model),
        plan_(plan),
        lowered_(std::move(code)),
        code_(lowered_->stages[static_cast<std::size_t>(plan.stage)]),
        pack_cost_(pack_cost),
        n_stages_(n_stages),
        shared_(std::move(shared)),
        exec_(*lowered_->program),
        frame_(lowered_->frame),
        codec_(model.registry, plan.output_layout) {
    route_of_out_.assign(plan_.output_layout.groups.size(), -1);
    for (std::size_t r = 0; r < plan_.passthrough.size(); ++r) {
      const StagePlan::PassthroughRoute& route = plan_.passthrough[r];
      route_of_out_[static_cast<std::size_t>(route.out_group)] =
          static_cast<int>(r);
      route_of_in_[route.in_group] = static_cast<int>(r);
    }
  }

  void init(dc::FilterContext& ctx) override;
  void process(dc::FilterContext& ctx) override;
  void finalize(dc::FilterContext& ctx) override;
  bool snapshot_state(dc::Buffer& out) override;
  void restore_state(dc::Buffer& in) override;

  void set_input_layout(const PackingLayout& layout) {
    input_codec_.emplace(model_.registry, layout);
  }

 private:
  bool is_source() const { return plan_.stage == 0; }
  bool is_sink() const { return plan_.stage == n_stages_ - 1; }

  /// The process's source setup, synthesized by the first caller.
  const SourceSetup& source_setup();
  void emit_packet(dc::FilterContext& ctx,
                   const std::vector<PackedView>* views = nullptr);
  void handle_replica_buffer(dc::Buffer& in, dc::FilterContext& ctx);
  SymbolResolver make_resolver(std::int64_t packet);

  const PipelineModel& model_;
  const StagePlan& plan_;
  /// The pipeline's lowered bodies, shared read-only by every copy.
  std::shared_ptr<const lowered::LoweredPipeline> lowered_;
  const lowered::StageCode& code_;
  PackCost pack_cost_;
  int n_stages_;
  std::shared_ptr<PipelineCompiler::Shared> shared_;
  Executor exec_;
  StageFrame frame_;
  PacketCodec codec_;
  std::optional<PacketCodec> input_codec_;
  RectDomainVal packet_domain_;
  std::int64_t current_packet_ = 0;
  std::vector<std::string> replica_names_;  // owned replicas in decl order
  double packet_ops_ = 0.0;
  double replica_ops_ = 0.0;
  std::int64_t sent_packet_bytes_ = 0;
  std::int64_t sent_replica_bytes_ = 0;
  /// Counters of the instances before the snapshot this one restored
  /// (zero unless restore_state ran); finalize reports them plus its own.
  dc::StageCounters restored_;
  std::int64_t packets_seen_ = 0;
  std::size_t last_packet_capacity_ = 0;  // pool size hint for emit_packet
  /// Passthrough route tables (built from plan_.passthrough): per output
  /// group the route index or -1; per routed input group the route index.
  std::vector<int> route_of_out_;
  std::map<int, int> route_of_in_;
};

const SourceSetup& StageFilter::source_setup() {
  PipelineCompiler::Shared& shared = *shared_;
  {
    std::lock_guard lock(shared.setup_mutex);
    if (!shared.setup_ran) {
      shared.setup_ran = true;
      try {
        // Pre-loop setup: input data materialization on the data host,
        // then the packet domain in the setup environment.
        StageFrame frame(lowered_->frame);
        exec_.exec_stmts(code_.before, frame);
        const Value dom = exec_.eval(*code_.domain, frame);
        const auto* d = std::get_if<RectDomainVal>(&dom);
        if (!d)
          throw std::runtime_error("PipelinedLoop domain is not a rectdomain");
        SourceSetup& setup = shared.setup;
        setup.domain = *d;
        const lowered::FrameLayout& layout = lowered_->frame;
        for (int s = 0; s < layout.named(); ++s) {
          if (!frame.bound(s)) continue;
          setup.bindings.push_back(
              {s, std::move(frame.values()[s]),
               plan_.shared_setup.count(
                   layout.names[static_cast<std::size_t>(s)]) > 0});
        }
      } catch (...) {
        shared.setup_error = std::current_exception();
      }
    }
  }
  if (shared.setup_error) std::rethrow_exception(shared.setup_error);
  return shared.setup;
}

void StageFilter::init(dc::FilterContext& ctx) {
  (void)ctx;
  if (is_source()) {
    const SourceSetup& setup = source_setup();
    packet_domain_ = setup.domain;
    // Shared bindings map to themselves, so a cloned object that points
    // into shared data keeps pointing there.
    std::unordered_map<const void*, Value> memo;
    for (const SourceSetup::Binding& b : setup.bindings) {
      if (!b.shared) continue;
      if (const auto* obj = std::get_if<std::shared_ptr<Object>>(&b.value))
        memo.emplace(obj->get(), b.value);
      if (const auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&b.value))
        memo.emplace(arr->get(), b.value);
    }
    for (const SourceSetup::Binding& b : setup.bindings) {
      frame_.declare_slot(b.slot,
                          b.shared ? b.value : clone_value(b.value, memo));
    }
  }
  // Scalar preamble on non-source stages (runtime-constant-derived values
  // replica constructors and pack sections may reference).
  for (std::size_t i = 0; i < plan_.preamble.size(); ++i) {
    if (!frame_.has(plan_.preamble[i]->name))
      exec_.exec_stmt(*code_.preamble[i], frame_);
  }
  // Replica accumulators (on the source they already exist via `before`).
  for (const auto& [name, decl] : code_.replicas) {
    replica_names_.push_back(name);
    if (!frame_.has(name)) exec_.exec_stmt(*decl, frame_);
  }
  // Setup cost (dataset synthesis stands in for the disk read) is not
  // charged as pipeline compute.
  exec_.reset_ops();
}

SymbolResolver StageFilter::make_resolver(std::int64_t packet) {
  return section_resolver(frame_, model_.registry, model_.loop_var, packet);
}

void StageFilter::emit_packet(dc::FilterContext& ctx,
                              const std::vector<PackedView>* views) {
  // Recycled storage sized by the largest packet this stage has produced:
  // a monotone hint keeps every acquire in one size class, so the same
  // storage cycles through the pool instead of migrating between classes
  // as per-packet selectivity varies.
  dc::Buffer out = ctx.acquire_buffer(last_packet_capacity_);
  out.write<std::uint8_t>(static_cast<std::uint8_t>(BufferKind::Packet));
  std::size_t routed_bytes = 0;
  if (views && !plan_.passthrough.empty()) {
    // Passthrough-aware pack: header and non-routed groups go through the
    // codec; routed groups are copied verbatim from the arriving buffer
    // (flag byte patched when the boundaries disagree on layout).
    const PackingLayout& layout = codec_.layout();
    codec_.pack_header(frame_, out);
    out.write<std::uint32_t>(static_cast<std::uint32_t>(layout.groups.size()));
    const SymbolResolver resolve = make_resolver(current_packet_);
    for (std::size_t og = 0; og < layout.groups.size(); ++og) {
      const int route = route_of_out_[og];
      if (route < 0) {
        codec_.pack_group(og, frame_, resolve, out);
        continue;
      }
      const std::size_t before = out.size();
      const PackedView& view = (*views)[static_cast<std::size_t>(route)];
      const bool patch =
          plan_.passthrough[static_cast<std::size_t>(route)].patch_flag;
      view.append_to(out, patch ? std::optional<bool>(
                                      layout.groups[og].instancewise)
                                : std::nullopt);
      routed_bytes += out.size() - before;
    }
  } else {
    codec_.pack(frame_, make_resolver(current_packet_), out);
  }
  const double pack_ops =
      pack_cost_.ops_per_buffer +
      pack_cost_.ops_per_byte *
          static_cast<double>(out.size() - routed_bytes) +
      pack_cost_.passthrough_ops_per_byte * static_cast<double>(routed_bytes);
  exec_.add_external_ops(pack_ops);
  sent_packet_bytes_ += static_cast<std::int64_t>(out.size());
  last_packet_capacity_ = std::max(last_packet_capacity_, out.capacity());
  ctx.emit(std::move(out));
}

void StageFilter::handle_replica_buffer(dc::Buffer& in,
                                        dc::FilterContext& ctx) {
  const double before_ops = exec_.ops();
  std::uint32_t count = in.read<std::uint32_t>();
  std::vector<std::pair<std::string, Value>> incoming;
  incoming.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = read_string(in);
    incoming.emplace_back(std::move(name), read_value(in));
  }
  for (auto& [name, value] : incoming) {
    if (frame_.has(name)) {
      Value& mine = frame_.slot(name);
      auto* obj = std::get_if<std::shared_ptr<Object>>(&mine);
      if (obj && *obj) {
        exec_.call_method((*obj)->class_name, "merge", *obj, {value});
        continue;
      }
      mine = std::move(value);
    } else {
      frame_.declare_global(name, std::move(value));
      if (std::find(replica_names_.begin(), replica_names_.end(), name) ==
          replica_names_.end()) {
        replica_names_.push_back(name);
      }
    }
  }
  (void)ctx;
  replica_ops_ += exec_.ops() - before_ops;
}

void StageFilter::process(dc::FilterContext& ctx) {
  if (is_source()) {
    const std::int64_t lo = packet_domain_.lo;
    const std::int64_t hi = packet_domain_.hi;
    for (std::int64_t p = lo; p <= hi; ++p) {
      if ((p - lo) % ctx.copy_count() != ctx.copy_index()) continue;
      current_packet_ = p;
      frame_.push();
      frame_.declare_slot(code_.loop_var, p);
      exec_.add_external_ops(pack_cost_.source_io_ops);  // storage read
      exec_.exec_stmts(code_.stmts, frame_);
      if (ctx.has_output()) emit_packet(ctx);
      frame_.pop();
      ++packets_seen_;
    }
    packet_ops_ = exec_.ops() - replica_ops_;
    return;
  }

  // Consuming stages.
  while (auto buffer = ctx.read()) {
    dc::Buffer in = std::move(*buffer);
    const std::size_t in_size = in.size();
    std::uint8_t kind = in.read<std::uint8_t>();
    if (kind == static_cast<std::uint8_t>(BufferKind::Replica)) {
      if (plan_.relay) {
        sent_replica_bytes_ += static_cast<std::int64_t>(in_size);
        in.seek(0);
        ctx.emit(std::move(in));
        continue;
      }
      handle_replica_buffer(in, ctx);
      ctx.recycle(std::move(in));
      continue;
    }
    if (plan_.relay) {
      sent_packet_bytes_ += static_cast<std::int64_t>(in_size);
      ++packets_seen_;
      in.seek(0);
      ctx.emit(std::move(in));
      continue;
    }
    ++packets_seen_;
    frame_.push();
    // The upstream codec for OUR input is the upstream stage's output
    // codec; decode with our input layout. Routed groups stay packed: a
    // PackedView records where each one sits in the arriving buffer so
    // emit_packet can forward it verbatim.
    std::vector<PackedView> views(plan_.passthrough.size());
    std::size_t routed_bytes = 0;
    if (plan_.passthrough.empty()) {
      input_codec_->unpack(in, frame_);
    } else {
      const PackingLayout& in_layout = input_codec_->layout();
      input_codec_->unpack_header(in, frame_);
      const std::uint32_t n_groups = in.read<std::uint32_t>();
      if (n_groups != in_layout.groups.size())
        throw std::runtime_error("unpack: group arity mismatch");
      for (std::size_t gi = 0; gi < in_layout.groups.size(); ++gi) {
        const auto route = route_of_in_.find(static_cast<int>(gi));
        if (route == route_of_in_.end()) {
          input_codec_->unpack_group(gi, in, frame_);
          continue;
        }
        PackedView view = PackedView::parse(in, in.read_pos());
        in.seek(view.end_offset());
        routed_bytes += sizeof(std::uint64_t) + view.block_size();
        views[static_cast<std::size_t>(route->second)] = std::move(view);
      }
    }
    exec_.add_external_ops(
        pack_cost_.ops_per_buffer +
        pack_cost_.ops_per_byte * static_cast<double>(in_size - routed_bytes) +
        pack_cost_.passthrough_ops_per_byte *
            static_cast<double>(routed_bytes));
    // Bind the packet id when transmitted.
    if (frame_.bound(code_.loop_var)) {
      const Value& v = frame_.values()[code_.loop_var];
      if (const auto* i = std::get_if<std::int64_t>(&v)) current_packet_ = *i;
    }
    // Recreate dead-in allocations this stage overwrites, and grow
    // received partial slices to their declared allocation size.
    for (const lowered::StageCode::Materialize& m : code_.materialize) {
      if (!frame_.bound(m.slot)) {
        exec_.exec_stmt(*m.decl, frame_);
        continue;
      }
      if (!m.length) continue;
      Value& bound = frame_.values()[m.slot];
      auto* arr = std::get_if<std::shared_ptr<ArrayVal>>(&bound);
      if (!arr || !*arr || (*arr)->base_index != 0) continue;
      const std::int64_t want = as_int(exec_.eval(*m.length, frame_));
      if (static_cast<std::int64_t>((*arr)->elems.size()) < want) {
        (*arr)->elems.resize(static_cast<std::size_t>(want),
                             default_value(m.element_type));
      }
    }
    // Without passthrough the packet is fully decoded into frame_ and its
    // backing storage can go straight back to the pool for the next packet
    // somebody packs. With passthrough the views alias the buffer, so the
    // recycle waits until the outgoing packet has copied them out.
    const bool views_alive = !plan_.passthrough.empty();
    if (!views_alive) ctx.recycle(std::move(in));
    exec_.exec_stmts(code_.stmts, frame_);
    if (ctx.has_output()) emit_packet(ctx, views_alive ? &views : nullptr);
    if (views_alive) {
      views.clear();
      ctx.recycle(std::move(in));
    }
    if (is_sink()) {
      // Persist values the post-loop code needs.
      for (const std::string& name : plan_.carry) {
        if (frame_.has(name)) frame_.declare_global(name, frame_.get(name));
      }
    }
    frame_.pop();
  }
  packet_ops_ = exec_.ops() - replica_ops_;
}

void StageFilter::finalize(dc::FilterContext& ctx) {
  if (!is_sink() && !plan_.relay && ctx.has_output() &&
      !replica_names_.empty()) {
    const double before_ops = exec_.ops();
    dc::Buffer out;
    out.write<std::uint8_t>(static_cast<std::uint8_t>(BufferKind::Replica));
    out.write<std::uint32_t>(static_cast<std::uint32_t>(replica_names_.size()));
    for (const std::string& name : replica_names_) {
      write_string(out, name);
      write_value(out, frame_.get(name));
    }
    exec_.add_external_ops(pack_cost_.ops_per_buffer +
                             pack_cost_.ops_per_byte *
                                 static_cast<double>(out.size()));
    sent_replica_bytes_ += static_cast<std::int64_t>(out.size());
    ctx.emit(std::move(out));
    replica_ops_ += exec_.ops() - before_ops;
  }
  if (is_sink()) {
    const double before_ops = exec_.ops();
    exec_.exec_stmts(code_.after, frame_);
    replica_ops_ += exec_.ops() - before_ops;
  }

  // Publish telemetry (and sink results).
  dc::StageCounters& counters = ctx.counters();
  counters.ops += restored_.ops + packet_ops_;
  counters.replica_ops += restored_.replica_ops + replica_ops_;
  counters.packet_bytes += restored_.packet_bytes + sent_packet_bytes_;
  counters.replica_bytes += restored_.replica_bytes + sent_replica_bytes_;
  if (is_source()) counters.packets += packets_seen_;
  if (is_sink()) {
    std::lock_guard lock(shared_->mutex);
    for (auto& [name, value] : frame_.flatten()) shared_->finals[name] = value;
  }
}

bool StageFilter::snapshot_state(dc::Buffer& out) {
  // Called between packets (read boundary), where frame_ holds only base
  // bindings: preamble scalars, replica accumulators, carried sink values.
  // The serializer round-trips every Value kind the executor produces, so
  // the whole frame, by name, is the state.
  const std::map<std::string, Value> bindings = frame_.flatten();
  out.write<std::uint32_t>(static_cast<std::uint32_t>(bindings.size()));
  for (const auto& [name, value] : bindings) {
    write_string(out, name);
    write_value(out, value);
  }
  // replica_names_ grows at runtime (handle_replica_buffer adopts upstream
  // replicas), so it must ride along with the bindings.
  out.write<std::uint32_t>(static_cast<std::uint32_t>(replica_names_.size()));
  for (const std::string& name : replica_names_) write_string(out, name);
  out.write<std::int64_t>(packets_seen_);
  // The counters so far ride along, so a restored instance reports the
  // work before the snapshot too (process() sets packet_ops_ only at its
  // end, hence the live executor count).
  out.write<double>(restored_.ops + (exec_.ops() - replica_ops_));
  out.write<double>(restored_.replica_ops + replica_ops_);
  out.write<std::int64_t>(restored_.packet_bytes + sent_packet_bytes_);
  out.write<std::int64_t>(restored_.replica_bytes + sent_replica_bytes_);
  return true;
}

void StageFilter::restore_state(dc::Buffer& in) {
  const std::uint32_t n_bindings = in.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_bindings; ++i) {
    std::string name = read_string(in);
    Value value = read_value(in);
    frame_.declare_global(name, std::move(value));
  }
  replica_names_.clear();
  const std::uint32_t n_replicas = in.read<std::uint32_t>();
  replica_names_.reserve(n_replicas);
  for (std::uint32_t i = 0; i < n_replicas; ++i)
    replica_names_.push_back(read_string(in));
  packets_seen_ = in.read<std::int64_t>();
  restored_.ops = in.read<double>();
  restored_.replica_ops = in.read<double>();
  restored_.packet_bytes = in.read<std::int64_t>();
  restored_.replica_bytes = in.read<std::int64_t>();
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

PipelineCompiler::PipelineCompiler(
    const PipelineModel& model, const Placement& placement,
    const EnvironmentSpec& env,
    std::map<std::string, std::int64_t> runtime_constants, PackCost pack_cost)
    : model_(model),
      placement_(placement),
      env_(env),
      runtime_constants_(std::move(runtime_constants)),
      pack_cost_(pack_cost) {
  const int m = env_.stages();
  const int n_filters = static_cast<int>(model_.filters.size());
  if (static_cast<int>(placement_.unit_of_filter.size()) != n_filters)
    throw std::invalid_argument("placement/filter arity mismatch");

  // Per-stage cons sets (for packing planning).
  std::vector<ValueSet> stage_cons(static_cast<std::size_t>(m));
  for (int f = 0; f < n_filters; ++f) {
    int s = placement_.unit_of_filter[static_cast<std::size_t>(f)];
    stage_cons[static_cast<std::size_t>(s)].add_all(
        model_.sets[static_cast<std::size_t>(f)].cons);
  }
  // The view stage also consumes the post-loop set.
  stage_cons[static_cast<std::size_t>(m - 1)].add_all(model_.req_comm.back());

  std::vector<int> cuts = placement_.cuts(m);
  plans_.resize(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    plan.stage = s;
    if (!placement_.replicas.empty()) plan.copies = placement_.replicas_of(s);
    for (int f = 0; f < n_filters; ++f) {
      if (placement_.unit_of_filter[static_cast<std::size_t>(f)] != s) continue;
      plan.filter_indices.push_back(f);
      const AtomicFilter& filter = model_.filters[static_cast<std::size_t>(f)];
      plan.stmts.insert(plan.stmts.end(), filter.stmts.begin(),
                        filter.stmts.end());
      for (const std::string& red :
           model_.sets[static_cast<std::size_t>(f)].reductions) {
        if (std::find(plan.replicas.begin(), plan.replicas.end(), red) ==
            plan.replicas.end())
          plan.replicas.push_back(red);
      }
    }
    plan.relay = plan.filter_indices.empty() && s > 0 && s < m - 1;
    if (s == m - 1) {
      for (const std::string& red : model_.after_reductions) {
        if (std::find(plan.replicas.begin(), plan.replicas.end(), red) ==
            plan.replicas.end())
          plan.replicas.push_back(red);
      }
      for (const auto& [id, entry] : model_.req_comm.back().items()) {
        plan.carry.push_back(id.base);
      }
    }
    if (s < m - 1) {
      const ValueSet& boundary =
          cuts[static_cast<std::size_t>(s)] >= 0
              ? model_.req_comm[static_cast<std::size_t>(
                    cuts[static_cast<std::size_t>(s)])]
              : model_.input_req;
      std::vector<ValueSet> downstream;
      for (int t = s + 1; t < m; ++t)
        downstream.push_back(stage_cons[static_cast<std::size_t>(t)]);
      plan.output_layout = plan_packing(boundary, downstream, model_.registry);
    }
  }
  // Input layout for each consuming stage = output layout of the nearest
  // non-relay upstream stage. Relays forward verbatim, so the effective
  // input layout of stage s is the output layout of stage s-1 (relay output
  // layout is a copy of its input's).
  for (int s = 1; s < m - 1; ++s) {
    if (plans_[static_cast<std::size_t>(s)].relay) {
      plans_[static_cast<std::size_t>(s)].output_layout =
          plans_[static_cast<std::size_t>(s - 1)].output_layout;
    }
  }

  // Scalar preamble: pre-loop decls computable from runtime constants and
  // earlier preamble scalars alone; re-run on non-source stages.
  std::vector<const VarDeclStmt*> preamble;
  {
    std::set<std::string> available;
    for (const Stmt* s : model_.before) {
      if (s->kind != NodeKind::VarDeclStmt) continue;
      const auto* decl = static_cast<const VarDeclStmt*>(s);
      if (!decl->declared_type || !decl->declared_type->is_primitive())
        continue;
      if (!decl->init || !scalar_pure(*decl->init)) continue;
      std::set<std::string> refs;
      collect_var_refs(*decl->init, refs);
      bool ok = true;
      for (const std::string& name : refs) {
        if (available.count(name)) continue;
        if (name.rfind("runtime_define_", 0) == 0) continue;
        ok = false;
        break;
      }
      if (!ok) continue;
      preamble.push_back(decl);
      available.insert(decl->name);
    }
  }
  for (int s = 1; s < m; ++s) {
    plans_[static_cast<std::size_t>(s)].preamble = preamble;
  }

  // Source setup sharing: the pre-loop bindings no store of the source
  // stage's code can reach (a single-stage pipeline also runs the post-loop
  // code there). Reduction replicas are always per copy.
  {
    StagePlan& source = plans_.front();
    std::vector<const Stmt*> code = source.stmts;
    if (m == 1)
      code.insert(code.end(), model_.after.begin(), model_.after.end());
    source.shared_setup = unwritten_preloop_bindings(model_, code);
    for (const auto& [name, decl] : model_.reduction_decls)
      source.shared_setup.erase(name);
  }

  // Materialization: loop-body declarations whose storage a stage writes
  // but neither declares nor receives (their contents are dead-in, so
  // ReqComm correctly omits them; only the allocation is recreated).
  for (int s = 1; s < m; ++s) {
    StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    if (plan.relay || plan.stmts.empty()) continue;
    std::set<std::string> written;
    for (const Stmt* stmt : plan.stmts) collect_written_bases(*stmt, written);
    std::set<std::string> declared;
    for (const Stmt* stmt : plan.stmts) {
      if (stmt->kind == NodeKind::VarDeclStmt)
        declared.insert(static_cast<const VarDeclStmt*>(stmt)->name);
    }
    std::set<std::string> received = layout_bound_names(
        plans_[static_cast<std::size_t>(s - 1)].output_layout);
    for (const AtomicFilter& filter : model_.filters) {
      for (const Stmt* stmt : filter.stmts) {
        if (stmt->kind != NodeKind::VarDeclStmt) continue;
        const auto* decl = static_cast<const VarDeclStmt*>(stmt);
        // Received names still qualify: the unpacked slice may be smaller
        // than the declared allocation this stage writes into.
        (void)received;
        if (!written.count(decl->name) || declared.count(decl->name))
          continue;
        if (std::find(plan.stmts.begin(), plan.stmts.end(), stmt) !=
            plan.stmts.end())
          continue;
        plan.materialize.push_back(decl);
      }
    }
  }

  // Passthrough routing: an output group whose collection the stage never
  // mentions, carrying the same item list and section expression as an
  // input group, is forwarded verbatim (StagePlan::PassthroughRoute).
  // Forwarding the arrived block is a superset of repacking it: a repack
  // re-resolves the (equal) section against this stage's environment and
  // can only intersect down to the arrived slice, so every element the
  // repack path would ship rides along in the copy, and downstream's
  // unpack tolerates the wider coverage. "Never mentions" must see every
  // node position, as collect_var_refs does: a missed mention is unsound.
  for (int s = 1; s < m - 1; ++s) {
    StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    if (plan.relay) continue;
    const PackingLayout& in_layout =
        plans_[static_cast<std::size_t>(s - 1)].output_layout;
    const PackingLayout& out_layout = plan.output_layout;
    std::set<std::string> touched;
    for (const Stmt* stmt : plan.stmts) collect_var_refs(*stmt, touched);
    for (const VarDeclStmt* decl : plan.materialize) {
      touched.insert(decl->name);
      if (decl->init) collect_var_refs(*decl->init, touched);
    }
    std::set<std::size_t> routed_inputs;  // each input group feeds one route
    for (std::size_t og = 0; og < out_layout.groups.size(); ++og) {
      const PackGroup& out_group = out_layout.groups[og];
      std::string base = out_group.collection;
      const std::size_t dot = base.find('.');
      if (dot != std::string::npos) base = base.substr(0, dot);
      if (touched.count(base)) continue;
      for (std::size_t gi = 0; gi < in_layout.groups.size(); ++gi) {
        const PackGroup& in_group = in_layout.groups[gi];
        if (routed_inputs.count(gi)) continue;
        if (in_group.collection != out_group.collection) continue;
        if (in_group.section != out_group.section) continue;
        if (in_group.items.size() != out_group.items.size()) continue;
        bool same_items = true;
        for (std::size_t k = 0; k < in_group.items.size(); ++k) {
          const PackedItem& a = in_group.items[k];
          const PackedItem& b = out_group.items[k];
          if (!(a.id == b.id) || !same_type(a.type, b.type)) {
            same_items = false;
            break;
          }
        }
        if (!same_items) continue;
        const bool flags_match = in_group.instancewise == out_group.instancewise;
        if (!flags_match && in_group.items.size() != 1) continue;
        StagePlan::PassthroughRoute route;
        route.out_group = static_cast<int>(og);
        route.in_group = static_cast<int>(gi);
        route.patch_flag = !flags_match;
        plan.passthrough.push_back(route);
        routed_inputs.insert(gi);
        break;
      }
    }
  }
}

std::vector<dc::FilterGroup> PipelineCompiler::build_groups(
    std::shared_ptr<Shared> shared) {
  std::vector<dc::FilterGroup> groups;
  const int m = env_.stages();
  if (!lowered_) lowered_ = lower_pipeline(model_, plans_, runtime_constants_);
  for (int s = 0; s < m; ++s) {
    const StagePlan& plan = plans_[static_cast<std::size_t>(s)];
    const StagePlan* input_plan =
        s > 0 ? &plans_[static_cast<std::size_t>(s - 1)] : nullptr;
    dc::FilterGroup group;
    group.name = "stage" + std::to_string(s);
    group.stage = s;
    // The compiler's replica plan, when present, supersedes the
    // environment's one-knob-per-unit copies setting.
    group.copies = placement_.replicas.empty()
                       ? env_.units[static_cast<std::size_t>(s)].copies
                       : placement_.replicas_of(s);
    const PipelineModel* model = &model_;
    PackCost pack_cost = pack_cost_;
    group.factory = [model, plan_ptr = &plan, input_plan, code = lowered_,
                     pack_cost, m, shared]() -> std::unique_ptr<dc::Filter> {
      auto filter = std::make_unique<StageFilter>(*model, *plan_ptr, code,
                                                  pack_cost, m, shared);
      if (input_plan) filter->set_input_layout(input_plan->output_layout);
      return filter;
    };
    groups.push_back(std::move(group));
  }
  return groups;
}

PipelineRunResult PipelineCompiler::run() {
  auto shared = std::make_shared<Shared>();
  const int m = env_.stages();
  std::vector<dc::FilterGroup> groups = build_groups(shared);
  PipelineRunResult result;
  result.stage_replicas.assign(static_cast<std::size_t>(m), 1);
  for (int s = 0; s < m; ++s)
    result.stage_replicas[static_cast<std::size_t>(s)] =
        groups[static_cast<std::size_t>(s)].copies;
  dc::PipelineRunner runner(std::move(groups), config_, policy_);
  if (hook_) runner.set_packet_hook(hook_);
  if (checkpoint_hook_) runner.set_checkpoint_hook(checkpoint_hook_);
  if (marker_hook_) runner.set_marker_hook(marker_hook_);
  dc::RunOutcome outcome = runner.run_supervised();
  if (outcome.error && policy_.action == dc::FaultAction::kFailFast)
    std::rethrow_exception(outcome.error);
  dc::RunStats& stats = outcome.stats;
  result.finals = std::move(shared->finals);
  result.set_counters(stats.group_counters);
  result.wall_seconds = stats.wall_seconds;
  result.stage_metrics = std::move(stats.group_metrics);
  result.link_metrics = std::move(stats.link_metrics);
  result.faults = std::move(stats.faults);
  result.fault_policy = stats.fault_policy;
  result.batch_size = stats.batch_size;
  result.pool = stats.pool;
  result.checkpoints = std::move(stats.checkpoints);
  result.respawns = std::move(stats.respawns);
  result.heartbeats = std::move(stats.heartbeats);
  result.degraded = stats.degraded;
  result.completed = stats.completed;
  result.error = stats.error;
  return result;
}

}  // namespace cgp
