#include "datacutter/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json.h"

namespace cgp::dc {
namespace {

constexpr const char* kSchema = "cgpipe-checkpoint-v3";

std::string hex_encode(const std::vector<std::byte>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::byte b : bytes) {
    const auto v = static_cast<unsigned>(b);
    out.push_back(digits[v >> 4]);
    out.push_back(digits[v & 0xf]);
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  // Reason only: load_checkpoint prefixes the offending file path.
  throw std::runtime_error("invalid hex digit in stage state");
}

std::vector<std::byte> hex_decode(const std::string& text) {
  if (text.size() % 2 != 0)
    throw std::runtime_error("odd-length hex stage state");
  std::vector<std::byte> out;
  out.reserve(text.size() / 2);
  for (std::size_t i = 0; i < text.size(); i += 2)
    out.push_back(static_cast<std::byte>((hex_nibble(text[i]) << 4) |
                                         hex_nibble(text[i + 1])));
  return out;
}

struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
};

std::string hex_u64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

void fsync_or_throw(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0)
    throw std::runtime_error("checkpoint: cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0)
    throw std::runtime_error("checkpoint: fsync failed: " + path);
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

std::uint64_t checkpoint_checksum(const RunCheckpoint& checkpoint) {
  // Canonical serialization of the parsed content (not the JSON text), so
  // the hash survives formatting differences but catches any corruption of
  // a field the loader would actually hand to the runner. at_seconds is
  // informational and excluded: doubles need not round-trip through JSON
  // bit-exactly.
  Fnv1a h;
  h.str(kSchema);
  h.i64(checkpoint.id);
  h.i64(checkpoint.source_delivered);
  h.i64(static_cast<std::int64_t>(checkpoint.source_copies.size()));
  for (const std::int64_t d : checkpoint.source_copies) h.i64(d);
  h.i64(static_cast<std::int64_t>(checkpoint.group_copies.size()));
  for (const int c : checkpoint.group_copies) h.i64(c);
  h.i64(static_cast<std::int64_t>(checkpoint.stages.size()));
  for (const StageSnapshot& stage : checkpoint.stages) {
    h.str(stage.group);
    h.i64(stage.copy);
    h.i64(static_cast<std::int64_t>(stage.state.size()));
    h.bytes(stage.state.data(), stage.state.size());
  }
  return h.hash;
}

void save_checkpoint(const RunCheckpoint& checkpoint,
                     const std::string& path) {
  support::Json root{support::Json::Object{}};
  root.set("schema", support::Json(kSchema));
  root.set("id", support::Json(checkpoint.id));
  root.set("source_delivered", support::Json(checkpoint.source_delivered));
  root.set("at_seconds", support::Json(checkpoint.at_seconds));
  root.set("source_copies",
           support::Json(support::Json::Array(checkpoint.source_copies.begin(),
                                              checkpoint.source_copies.end())));
  root.set("group_copies",
           support::Json(support::Json::Array(checkpoint.group_copies.begin(),
                                              checkpoint.group_copies.end())));
  support::Json::Array stages;
  for (const StageSnapshot& stage : checkpoint.stages) {
    support::Json js{support::Json::Object{}};
    js.set("group", support::Json(stage.group));
    js.set("copy", support::Json(static_cast<std::int64_t>(stage.copy)));
    js.set("state", support::Json(hex_encode(stage.state)));
    stages.push_back(std::move(js));
  }
  root.set("stages", support::Json(std::move(stages)));
  root.set("checksum", support::Json(hex_u64(checkpoint_checksum(checkpoint))));

  // Temp-file + rename so a crash mid-write never clobbers the previous
  // good cut — the file either holds the old checkpoint or the new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot open " + tmp);
    out << root.dump(2) << '\n';
    if (!out) throw std::runtime_error("checkpoint: write failed: " + tmp);
  }
  // Durability: the temp file's bytes must be on disk before the rename
  // publishes it, and the rename itself must be persisted via the
  // directory — otherwise a host crash right after "save" can leave a
  // zero-length committed checkpoint.
  fsync_or_throw(tmp, O_WRONLY | O_CLOEXEC);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("checkpoint: rename failed: " + path);
  fsync_or_throw(dirname_of(path), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
}

RunCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  support::Json root{support::Json::Object{}};
  try {
    root = support::Json::parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("checkpoint: " + path +
                             " is corrupt or truncated: " + e.what());
  }
  if (!root.is_object() || !root.contains("schema"))
    throw std::runtime_error("checkpoint: " + path +
                             " is not a cgpipe checkpoint file");
  const std::string schema = root.at("schema").as_string();
  if (schema != kSchema)
    throw std::runtime_error("checkpoint: " + path +
                             " has unknown schema '" + schema + "'");
  RunCheckpoint checkpoint;
  try {
    checkpoint.id = root.at("id").as_int();
    checkpoint.source_delivered = root.at("source_delivered").as_int();
    checkpoint.at_seconds = root.at("at_seconds").as_number();
    if (root.contains("source_copies"))
      for (const support::Json& js : root.at("source_copies").as_array())
        checkpoint.source_copies.push_back(js.as_int());
    if (root.contains("group_copies"))
      for (const support::Json& js : root.at("group_copies").as_array())
        checkpoint.group_copies.push_back(static_cast<int>(js.as_int()));
    for (const support::Json& js : root.at("stages").as_array()) {
      StageSnapshot stage;
      stage.group = js.at("group").as_string();
      if (js.contains("copy"))
        stage.copy = static_cast<int>(js.at("copy").as_int());
      stage.state = hex_decode(js.at("state").as_string());
      checkpoint.stages.push_back(std::move(stage));
    }
  } catch (const std::exception& e) {
    // Every rejection names the offending file and the reason: field and
    // hex-state errors from the helpers above carry only the reason, so
    // the path is grafted on here, once, for all of them.
    throw std::runtime_error("checkpoint: " + path + " is malformed: " +
                             e.what());
  }
  if (!root.contains("checksum"))
    throw std::runtime_error("checkpoint: " + path +
                             " is truncated (missing checksum)");
  const std::string stored = root.at("checksum").as_string();
  const std::string computed = hex_u64(checkpoint_checksum(checkpoint));
  if (stored != computed)
    throw std::runtime_error(
        "checkpoint: " + path + " failed checksum verification (stored " +
        stored + ", computed " + computed +
        ") — the file is corrupt; refusing to resume from it");
  if (checkpoint.source_copies.empty())
    checkpoint.source_copies = {checkpoint.source_delivered};
  return checkpoint;
}

}  // namespace cgp::dc
