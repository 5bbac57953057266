// Checkpoint containers for the resilience layer (ISSUE/ROADMAP: "instance
// checkpoint/restore so a long sweep survives restarts").
//
// A Checkpoint is an ordered list of named byte sections. Producers append
// sections; consumers look them up by name and decode with the bounds-checked
// ByteReader. Two producers exist today:
//
//   * LocalCtx::snapshot() (core/context.hpp) appends one "dat/NNN/<name>"
//     section per declared dat, holding its declaration-order AoS bytes —
//     the same canonical form fetch() returns, so a snapshot taken from a
//     renumbered SoA context restores bit-exactly into an untouched AoS one.
//   * serve::Checkpointable implementations append app-level globals
//     (timestep state, reduction accumulators) as extra sections.
//
// The in-memory types here are deliberately dumb data: serialization to the
// OPVK container (magic/version/CRC32 per section) lives in mesh/io, and the
// scheduler-facing retry machinery in serve/resilience.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace opv {

/// Append-only little packing buffer for checkpoint section payloads.
class ByteWriter {
 public:
  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "ByteWriter::put: need a trivially copyable type");
    std::memcpy(extend(sizeof(T)), &v, sizeof(T));
  }
  /// Append n zero bytes and return where they start, for a producer that
  /// writes them in place (valid until the next append).
  unsigned char* extend(std::size_t n) {
    const auto at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  std::vector<unsigned char> take() { return std::move(buf_); }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked unpacking cursor over a section payload. Overruns throw
/// opv::Error naming the section and the byte offset — corrupt checkpoints
/// fail loudly, never read out of bounds.
class ByteReader {
 public:
  ByteReader(const std::vector<unsigned char>& bytes, std::string what)
      : p_(bytes.data()), n_(bytes.size()), what_(std::move(what)) {}

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>, "ByteReader::get: need a trivially copyable type");
    require(sizeof(T));
    T v;
    std::memcpy(&v, p_ + at_, sizeof(T));
    at_ += sizeof(T);
    return v;
  }
  /// Borrow `n` bytes without copying (valid while the section lives).
  const unsigned char* view(std::size_t n) {
    require(n);
    const unsigned char* v = p_ + at_;
    at_ += n;
    return v;
  }

 private:
  void require(std::size_t n) const {
    OPV_REQUIRE(n <= n_ - at_, "checkpoint section '" << what_ << "': truncated payload (need " << n
                                                      << " bytes at offset " << at_ << ", have "
                                                      << (n_ - at_) << ")");
  }
  const unsigned char* p_;
  std::size_t n_;
  std::size_t at_ = 0;
  std::string what_;
};

/// One instance's full recoverable state: ordered named byte sections.
struct Checkpoint {
  struct Section {
    std::string name;
    std::vector<unsigned char> bytes;
  };
  std::vector<Section> sections;

  void add(std::string name, std::vector<unsigned char> bytes) {
    sections.push_back({std::move(name), std::move(bytes)});
  }
  [[nodiscard]] const Section* find(std::string_view name) const {
    for (const auto& s : sections)
      if (s.name == name) return &s;
    return nullptr;
  }
  [[nodiscard]] Section* find(std::string_view name) {
    for (auto& s : sections)
      if (s.name == name) return &s;
    return nullptr;
  }
  /// Payload bytes across all sections (names and framing excluded).
  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& s : sections) n += s.bytes.size();
    return n;
  }
};

/// A whole ensemble's recoverable state: per-instance checkpoints plus the
/// scheduling progress needed to resume an interrupted sweep (steps done so
/// far; retired instances keep their error instead of state). Serialized to
/// the OPVK container by mesh/io write_checkpoint/read_checkpoint.
struct EnsembleCheckpoint {
  static constexpr std::uint32_t kVersion = 1;

  struct InstanceState {
    int id = -1;
    std::int64_t steps_done = 0;  ///< cumulative steps at checkpoint time
    std::string error;            ///< non-empty: instance was retired
    Checkpoint state;             ///< empty for retired instances
  };

  std::uint32_t version = kVersion;
  std::int64_t target_steps = 0;  ///< the sweep's goal (run_to target; 0 = unknown)
  std::vector<InstanceState> instances;
};

// Dat sections (appended by LocalCtx::snapshot) carry a fixed header before
// the row payload: [i64 rows][i32 dim][u32 value_bytes][rows*dim*value_bytes].
inline constexpr std::size_t kDatSectionHeaderBytes = 16;

/// Overwrite value `index` (row-major over rows*dim values) of the dat
/// section whose name ends in "/<dat>" with a quiet NaN of the section's
/// value width — the deterministic state-corruption hook FaultyInstance and
/// the fault-injection tests use. Returns false when no such section exists;
/// throws opv::Error for a non-floating value width or out-of-range index.
inline bool poison_dat_section(Checkpoint& c, std::string_view dat, std::size_t index) {
  const std::string suffix = "/" + std::string(dat);
  for (auto& s : c.sections) {
    if (s.name.size() < suffix.size() ||
        s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    ByteReader r(s.bytes, s.name);
    const auto rows = r.get<std::int64_t>();
    const auto dim = r.get<std::int32_t>();
    const auto vb = r.get<std::uint32_t>();
    const std::size_t nvalues = static_cast<std::size_t>(rows) * static_cast<std::size_t>(dim);
    OPV_REQUIRE(index < nvalues, "poison_dat_section('" << s.name << "'): value index " << index
                                                        << " out of range (have " << nvalues << ")");
    unsigned char* at = s.bytes.data() + kDatSectionHeaderBytes + index * vb;
    if (vb == sizeof(float)) {
      const float nan = std::numeric_limits<float>::quiet_NaN();
      std::memcpy(at, &nan, sizeof(nan));
    } else if (vb == sizeof(double)) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      std::memcpy(at, &nan, sizeof(nan));
    } else {
      OPV_REQUIRE(false, "poison_dat_section('" << s.name << "'): value width " << vb
                                                << " is not a floating type");
    }
    return true;
  }
  return false;
}

}  // namespace opv
