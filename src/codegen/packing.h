// Packing layouts for inter-filter packets (§5).
//
// At a boundary, the ReqComm entries split into:
//   * header items — scalars and whole values, serialized tagged;
//   * element groups — per-element fields of collections.
//
// "For each filter that has an output stream, we sort the fields of classes
// by the first filter whose Cons set they belong to. The fields that are
// used for the first time in the same filter are packed in the instance-wise
// fashion. For the fields that are used for the first time in different
// filters, we use the field-wise fashion, sorting by the order in which they
// are first read."
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/value_set.h"
#include "codegen/value.h"
#include "datacutter/buffer.h"
#include "sema/registry.h"

namespace cgp {

struct PackedItem {
  ValueId id;
  TypePtr type;  // leaf type
  std::optional<RectSection> section;
  /// Downstream stage (0 = immediately receiving stage) that first consumes
  /// this item; INT_MAX when never directly consumed (kept for safety).
  int first_consumer = 0;
};

struct PackGroup {
  /// Path of the collection (the id rendered up to, excluding, "[]").
  std::string collection;
  /// Field steps after "[]" for each item (parallel with items).
  std::vector<PackedItem> items;
  bool instancewise = true;
  std::optional<RectSection> section;  // union section for the group
};

struct PackingLayout {
  std::vector<PackedItem> header;  // scalars / whole values
  std::vector<PackGroup> groups;

  bool empty() const { return header.empty() && groups.empty(); }
  std::string to_string() const;
};

/// Plans the §5 layout for one boundary. `downstream_cons[k]` is the merged
/// Cons set of the k-th stage after this boundary. The registry expands
/// whole-element entries into per-field raw items (the reduced class T-hat)
/// when the element class has only primitive / nested-class fields.
/// Planner normalizations beyond the paper's text:
///   * `x.length` pseudo-entries are dropped (the receiver reconstructs
///     lengths from the transmitted group counts);
///   * header entries that name fields of a root object (e.g. `pz.depth`)
///     are collapsed into one whole-root item so the receiver can rebuild
///     the object without a pre-existing skeleton.
PackingLayout plan_packing(const ValueSet& req_comm,
                           const std::vector<ValueSet>& downstream_cons,
                           const ClassRegistry& registry);

/// Resolves symbols in section bounds at pack time: the packet-loop
/// variable, runtime_define constants, collection lengths, and in-scope
/// integral locals.
using SymbolResolver =
    std::function<std::optional<std::int64_t>(const std::string&)>;

/// The resolver over `env` at packet `packet`: `loop_var` is the packet,
/// `len(path)` the logical end of the array at a dotted field path, and any
/// other symbol an integral binding or field path (`zbuf.w`). Unresolvable
/// symbols give nullopt. `env` must outlive the resolver.
SymbolResolver section_resolver(const Bindings& env,
                                const ClassRegistry& registry,
                                const std::string& loop_var,
                                std::int64_t packet);

/// One resolved leaf of a compiled group plan: the field-index chain below
/// the element (no string lookups in the steady state), the primitive kind,
/// and its fixed wire width. `nested[i]` / `nested_types[i]` describe the
/// object entered by `chain[i]` for every non-final step, so unpacking can
/// materialize skeletons exactly as the interpreted path does.
struct PlanLeaf {
  std::vector<int> chain;
  std::vector<const ClassInfo*> nested;  // size chain.size() - 1
  std::vector<TypePtr> nested_types;     // declared types of nested objects
  PrimKind kind = PrimKind::Void;
  std::size_t width = 0;
  std::size_t offset = 0;  // byte offset inside an instance-wise record
};

/// Flat pack plan for one (group, element class) pair: offsets, strides
/// and widths resolved once, so the steady-state inner loop is raw
/// pointer gather/scatter over the buffer instead of per-element Value
/// construction. `eligible` is false when any leaf is non-primitive or a
/// whole-element transfer — those groups keep the interpreted codec.
struct GroupPlan {
  bool eligible = false;
  std::vector<PlanLeaf> leaves;
  std::size_t stride = 0;  // per-element byte footprint
};

/// Compiles `group` against a concrete element class. Returns an
/// ineligible plan when a field chain does not resolve or a leaf is not a
/// fixed-width primitive.
GroupPlan compile_group_plan(const ClassRegistry& registry,
                             const PackGroup& group,
                             const std::string& elem_class);

/// Zero-copy handle over one packed element group inside an arriving
/// buffer: the wire header parsed, the payload left in place. Reads go
/// through the owning buffer's span() — valid only until that buffer is
/// written to, moved, or recycled, so a stage holding views must defer
/// recycling until it has dropped them (docs/PERFORMANCE.md).
class PackedView {
 public:
  /// Parses the group whose size slot starts at `slot_offset`.
  static PackedView parse(const dc::Buffer& in, std::size_t slot_offset);

  const std::string& collection() const { return collection_; }
  const std::string& elem_class() const { return elem_class_; }
  bool instancewise() const { return instancewise_; }
  std::int64_t lo() const { return lo_; }
  std::int64_t count() const { return count_; }
  std::uint32_t n_items() const { return n_items_; }
  /// Offset of the first payload byte (past the group header).
  std::size_t payload_offset() const { return payload_offset_; }
  /// Offset just past the group (start of the next size slot).
  std::size_t end_offset() const { return data_offset_ + block_size_; }
  /// Group block size in bytes, excluding the size slot itself.
  std::size_t block_size() const { return block_size_; }

  /// In-place pointer to leaf `item` of element index `i` (absolute, i.e.
  /// in [lo, lo+count)), given the per-item wire widths. Handles both the
  /// instance-wise (interleaved) and field-wise (contiguous-run) layouts.
  const std::byte* field_ptr(std::size_t item, std::int64_t index,
                             const std::vector<std::size_t>& widths) const;

  /// Appends the group verbatim (size slot + block) to `out`. When
  /// `force_instancewise` differs from the stored flag the single byte is
  /// patched in the copy — legal only for single-item groups, whose
  /// instance-wise and field-wise serializations are otherwise identical.
  void append_to(dc::Buffer& out,
                 std::optional<bool> force_instancewise = std::nullopt) const;

 private:
  const dc::Buffer* buffer_ = nullptr;
  std::size_t slot_offset_ = 0;
  std::size_t data_offset_ = 0;     // first byte after the size slot
  std::size_t payload_offset_ = 0;  // first byte after the group header
  std::size_t block_size_ = 0;
  std::string collection_;
  std::string elem_class_;
  bool instancewise_ = true;
  std::int64_t lo_ = 0;
  std::int64_t count_ = 0;
  std::uint32_t n_items_ = 0;
};

/// Serializes/deserializes environments along a PackingLayout. The whole
/// packet paths (pack/unpack) use compiled per-group plans when a group's
/// leaves are fixed-width primitives, falling back to the interpreted
/// per-Value codec otherwise; both produce byte-identical wire data.
class PacketCodec {
 public:
  PacketCodec(const ClassRegistry& registry, PackingLayout layout)
      : registry_(&registry), layout_(std::move(layout)) {}
  PacketCodec(const PacketCodec& other)
      : registry_(other.registry_), layout_(other.layout_) {}
  PacketCodec& operator=(const PacketCodec& other) {
    registry_ = other.registry_;
    layout_ = other.layout_;
    return *this;
  }

  const PackingLayout& layout() const { return layout_; }

  /// Packs values from `env` into `out`; section bounds are evaluated with
  /// `resolve`. Throws InterpError on missing bindings.
  void pack(Bindings& env, const SymbolResolver& resolve,
            dc::Buffer& out) const;

  /// Unpacks a buffer into `env` (declaring bindings in the current scope).
  void unpack(dc::Buffer& in, Bindings& env) const;

  /// Force the interpreted per-Value path (reference semantics for the
  /// compiled plans' property tests; byte-identical to pack/unpack).
  void pack_interpreted(Bindings& env, const SymbolResolver& resolve,
                        dc::Buffer& out) const;
  void unpack_interpreted(dc::Buffer& in, Bindings& env) const;

  // Split entry points for passthrough-aware stages (compiled_pipeline):
  // a stage that forwards some groups verbatim packs/unpacks the header
  // and the remaining groups individually, in layout order.
  void pack_header(Bindings& env, dc::Buffer& out) const;
  void pack_group(std::size_t gi, Bindings& env, const SymbolResolver& resolve,
                  dc::Buffer& out) const;
  void unpack_header(dc::Buffer& in, Bindings& env) const;
  void unpack_group(std::size_t gi, dc::Buffer& in, Bindings& env) const;

 private:
  Value read_path(Bindings& env, const ValueId& id,
                  std::int64_t elem_index) const;
  void write_leaf(dc::Buffer& out, const TypePtr& type, const Value& v) const;
  Value read_leaf(dc::Buffer& in, const TypePtr& type) const;
  void pack_group_impl(const PackGroup& group, Bindings& env,
                       const SymbolResolver& resolve, dc::Buffer& out,
                       bool compiled) const;
  void unpack_group_impl(const PackGroup& group, dc::Buffer& in, Bindings& env,
                         bool compiled) const;
  /// Cached per-(group, element class) plan; compiled lazily on first use.
  const GroupPlan& plan_for(const PackGroup& group,
                            const std::string& elem_class) const;

  const ClassRegistry* registry_;
  PackingLayout layout_;
  /// Plans are keyed by group identity (pointer into layout_) + class.
  /// Guarded for the rare shared-codec case; uncontended per filter copy.
  mutable std::mutex plans_mutex_;
  mutable std::map<std::pair<const PackGroup*, std::string>, GroupPlan>
      plans_;
};

}  // namespace cgp
