#include "mesh/io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "mesh/generators.hpp"

namespace opv::mesh {

namespace {

/// Sanity cap on every element/node count read from a file: large enough
/// for any real mesh, small enough that count*arity*sizeof(T) can never
/// overflow, and that a corrupt count fails fast instead of attempting a
/// multi-terabyte allocation.
constexpr long long kMaxCount = 1LL << 30;
constexpr long long kMaxNameLen = 1LL << 20;

// ===========================================================================
// Binary containers (OPVM / OPVT)
// ===========================================================================

constexpr std::uint64_t kMagic = 0x4d56504f31303030ULL;     // "OPVM1000" (LE)
constexpr std::uint64_t kMagicTet = 0x5456504f31303030ULL;  // "OPVT1000" (LE)

struct Header {
  std::uint64_t magic;
  std::int64_t nnodes, ncells, nedges, nbedges;
  std::int32_t nodes_per_cell;
  std::int32_t periodic;
  double period_x, period_y;
  std::int64_t name_len;
};

struct TetHeader {
  std::uint64_t magic;
  std::int64_t nnodes, ncells, nfaces, nbfaces;
  std::int64_t name_len;
};

template <class T>
void write_vec(std::ofstream& os, const aligned_vector<T>& v) {
  const std::uint64_t n = v.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  os.write(reinterpret_cast<const char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
}

/// Checked binary reads: every short read, count mismatch or trailing
/// garbage raises a descriptive opv::Error instead of leaving the stream
/// (and the half-filled mesh) in an undefined state.
class BinReader {
 public:
  explicit BinReader(const std::string& path) : is_(path, std::ios::binary), path_(path) {
    OPV_REQUIRE(is_.good(), "cannot open '" << path << "' for reading");
  }

  void read(void* dst, std::size_t bytes, const char* what) {
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    OPV_REQUIRE(static_cast<std::size_t>(is_.gcount()) == bytes,
                "truncated file '" << path_ << "': short read in " << what << " at byte offset "
                                   << offset_ << " (got " << is_.gcount() << " of " << bytes
                                   << " bytes)");
    offset_ += bytes;
  }

  /// Bytes consumed so far — validation errors name it so a corrupt file
  /// can be inspected at the exact failing record.
  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Read a length-prefixed array whose length must equal `expected`
  /// (derived from the already-validated header — a corrupt prefix cannot
  /// trigger an outsized allocation).
  template <class T>
  void read_vec(aligned_vector<T>& v, std::size_t expected, const char* what) {
    std::uint64_t n = 0;
    read(&n, sizeof n, what);
    OPV_REQUIRE(n == expected, "'" << path_ << "': section " << what << " holds " << n
                                   << " values, expected " << expected);
    v.resize(static_cast<std::size_t>(n));
    if (n > 0) read(v.data(), static_cast<std::size_t>(n) * sizeof(T), what);
  }

  void expect_eof() {
    is_.peek();
    OPV_REQUIRE(is_.eof(), "'" << path_ << "': trailing bytes after the last section (at byte offset "
                               << offset_ << ")");
  }

 private:
  std::ifstream is_;
  std::string path_;
  std::size_t offset_ = 0;
};

void check_count(std::int64_t n, const char* what, const std::string& path) {
  OPV_REQUIRE(n >= 0 && n <= kMaxCount,
              "'" << path << "': implausible " << what << " count " << n);
}

}  // namespace

void write_mesh(const UnstructuredMesh& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  OPV_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  Header h{};
  h.magic = kMagic;
  h.nnodes = m.nnodes;
  h.ncells = m.ncells;
  h.nedges = m.nedges;
  h.nbedges = m.nbedges;
  h.nodes_per_cell = m.nodes_per_cell;
  h.periodic = m.periodic ? 1 : 0;
  h.period_x = m.period_x;
  h.period_y = m.period_y;
  h.name_len = static_cast<std::int64_t>(m.name.size());
  os.write(reinterpret_cast<const char*>(&h), sizeof h);
  os.write(m.name.data(), static_cast<std::streamsize>(m.name.size()));
  write_vec(os, m.node_xy);
  write_vec(os, m.cell_nodes);
  write_vec(os, m.edge_nodes);
  write_vec(os, m.edge_cells);
  write_vec(os, m.bedge_nodes);
  write_vec(os, m.bedge_cell);
  write_vec(os, m.bedge_bound);
  OPV_REQUIRE(os.good(), "write failed for '" << path << "'");
}

UnstructuredMesh read_mesh(const std::string& path) {
  BinReader r(path);
  Header h{};
  r.read(&h, sizeof h, "header");
  OPV_REQUIRE(h.magic == kMagic, "'" << path << "' is not an OPVM mesh file");
  check_count(h.nnodes, "node", path);
  check_count(h.ncells, "cell", path);
  check_count(h.nedges, "edge", path);
  check_count(h.nbedges, "boundary-edge", path);
  OPV_REQUIRE(h.nodes_per_cell == 3 || h.nodes_per_cell == 4,
              "'" << path << "': nodes_per_cell must be 3 or 4, got " << h.nodes_per_cell);
  OPV_REQUIRE(h.periodic == 0 || h.periodic == 1,
              "'" << path << "': corrupt periodic flag " << h.periodic);
  OPV_REQUIRE(h.name_len >= 0 && h.name_len <= kMaxNameLen,
              "'" << path << "': implausible name length " << h.name_len);

  UnstructuredMesh m;
  m.nnodes = static_cast<idx_t>(h.nnodes);
  m.ncells = static_cast<idx_t>(h.ncells);
  m.nedges = static_cast<idx_t>(h.nedges);
  m.nbedges = static_cast<idx_t>(h.nbedges);
  m.nodes_per_cell = h.nodes_per_cell;
  m.periodic = h.periodic != 0;
  m.period_x = h.period_x;
  m.period_y = h.period_y;
  m.name.resize(static_cast<std::size_t>(h.name_len));
  if (h.name_len > 0) r.read(m.name.data(), static_cast<std::size_t>(h.name_len), "name");
  r.read_vec(m.node_xy, static_cast<std::size_t>(m.nnodes) * 2, "node_xy");
  r.read_vec(m.cell_nodes, static_cast<std::size_t>(m.ncells) * m.nodes_per_cell, "cell_nodes");
  r.read_vec(m.edge_nodes, static_cast<std::size_t>(m.nedges) * 2, "edge_nodes");
  r.read_vec(m.edge_cells, static_cast<std::size_t>(m.nedges) * 2, "edge_cells");
  r.read_vec(m.bedge_nodes, static_cast<std::size_t>(m.nbedges) * 2, "bedge_nodes");
  r.read_vec(m.bedge_cell, static_cast<std::size_t>(m.nbedges), "bedge_cell");
  r.read_vec(m.bedge_bound, static_cast<std::size_t>(m.nbedges), "bedge_bound");
  r.expect_eof();
  m.validate();
  return m;
}

void write_tet_mesh(const TetMesh& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  OPV_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  TetHeader h{};
  h.magic = kMagicTet;
  h.nnodes = m.nnodes;
  h.ncells = m.ncells;
  h.nfaces = m.nfaces;
  h.nbfaces = m.nbfaces;
  h.name_len = static_cast<std::int64_t>(m.name.size());
  os.write(reinterpret_cast<const char*>(&h), sizeof h);
  os.write(m.name.data(), static_cast<std::streamsize>(m.name.size()));
  write_vec(os, m.node_xyz);
  write_vec(os, m.cell_nodes);
  write_vec(os, m.face_nodes);
  write_vec(os, m.face_cells);
  write_vec(os, m.bface_nodes);
  write_vec(os, m.bface_cell);
  write_vec(os, m.bface_bound);
  OPV_REQUIRE(os.good(), "write failed for '" << path << "'");
}

TetMesh read_tet_mesh(const std::string& path) {
  BinReader r(path);
  TetHeader h{};
  r.read(&h, sizeof h, "header");
  OPV_REQUIRE(h.magic == kMagicTet, "'" << path << "' is not an OPVT mesh file");
  check_count(h.nnodes, "node", path);
  check_count(h.ncells, "cell", path);
  check_count(h.nfaces, "face", path);
  check_count(h.nbfaces, "boundary-face", path);
  OPV_REQUIRE(h.name_len >= 0 && h.name_len <= kMaxNameLen,
              "'" << path << "': implausible name length " << h.name_len);

  TetMesh m;
  m.nnodes = static_cast<idx_t>(h.nnodes);
  m.ncells = static_cast<idx_t>(h.ncells);
  m.nfaces = static_cast<idx_t>(h.nfaces);
  m.nbfaces = static_cast<idx_t>(h.nbfaces);
  m.name.resize(static_cast<std::size_t>(h.name_len));
  if (h.name_len > 0) r.read(m.name.data(), static_cast<std::size_t>(h.name_len), "name");
  r.read_vec(m.node_xyz, static_cast<std::size_t>(m.nnodes) * 3, "node_xyz");
  r.read_vec(m.cell_nodes, static_cast<std::size_t>(m.ncells) * 4, "cell_nodes");
  r.read_vec(m.face_nodes, static_cast<std::size_t>(m.nfaces) * 3, "face_nodes");
  r.read_vec(m.face_cells, static_cast<std::size_t>(m.nfaces) * 2, "face_cells");
  r.read_vec(m.bface_nodes, static_cast<std::size_t>(m.nbfaces) * 3, "bface_nodes");
  r.read_vec(m.bface_cell, static_cast<std::size_t>(m.nbfaces), "bface_cell");
  r.read_vec(m.bface_bound, static_cast<std::size_t>(m.nbfaces), "bface_bound");
  r.expect_eof();
  m.validate();
  return m;
}

// ===========================================================================
// Ensemble checkpoints (OPVK)
// ===========================================================================

namespace {

constexpr std::uint64_t kMagicChk = 0x4b56504f31303030ULL;  // "OPVK1000" (LE)

/// Caps on OPVK counts: one checkpoint section holds at most one dat's
/// bytes (kMaxCount rows x kMaxDim x 8B stays under 2^36; a single section
/// cap of 2^33 still admits a billion-value dat while making a corrupt
/// length fail fast), and instance/section counts are bounded far above
/// any real sweep.
constexpr std::uint64_t kMaxChkInstances = 1ULL << 20;
constexpr std::uint64_t kMaxChkSections = 1ULL << 16;
constexpr std::uint64_t kMaxChkSectionBytes = 1ULL << 33;

struct ChkHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t ninstances;
  std::int64_t target_steps;
};

template <class T>
void write_pod(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_str(std::ofstream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_str(BinReader& r, std::uint64_t max_len, const char* what) {
  std::uint32_t n = 0;
  r.read(&n, sizeof n, what);
  OPV_REQUIRE(n <= max_len, "'" << r.path() << "': implausible " << what << " length " << n
                                << " at byte offset " << r.offset());
  std::string s(n, '\0');
  if (n > 0) r.read(s.data(), n, what);
  return s;
}

}  // namespace

void write_checkpoint(const EnsembleCheckpoint& c, const std::string& path) {
  OPV_REQUIRE(c.instances.size() <= kMaxChkInstances,
              "write_checkpoint: implausible instance count " << c.instances.size());
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  OPV_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  ChkHeader h{};
  h.magic = kMagicChk;
  h.version = EnsembleCheckpoint::kVersion;
  h.ninstances = static_cast<std::uint32_t>(c.instances.size());
  h.target_steps = c.target_steps;
  write_pod(os, h);
  for (const auto& inst : c.instances) {
    write_pod(os, static_cast<std::int32_t>(inst.id));
    write_pod(os, inst.steps_done);
    write_str(os, inst.error);
    OPV_REQUIRE(inst.state.sections.size() <= kMaxChkSections,
                "write_checkpoint: instance " << inst.id << " has implausible section count "
                                              << inst.state.sections.size());
    write_pod(os, static_cast<std::uint32_t>(inst.state.sections.size()));
    for (const auto& sec : inst.state.sections) {
      OPV_REQUIRE(sec.bytes.size() <= kMaxChkSectionBytes,
                  "write_checkpoint: section '" << sec.name << "' is implausibly large ("
                                                << sec.bytes.size() << " bytes)");
      write_str(os, sec.name);
      write_pod(os, static_cast<std::uint64_t>(sec.bytes.size()));
      os.write(reinterpret_cast<const char*>(sec.bytes.data()),
               static_cast<std::streamsize>(sec.bytes.size()));
      write_pod(os, crc32(sec.bytes.data(), sec.bytes.size()));
    }
  }
  os.flush();
  OPV_REQUIRE(os.good(), "write failed for '" << path << "'");
}

EnsembleCheckpoint read_checkpoint(const std::string& path) {
  BinReader r(path);
  ChkHeader h{};
  r.read(&h, sizeof h, "header");
  OPV_REQUIRE(h.magic == kMagicChk,
              "'" << path << "' is not an OPVK checkpoint file (bad magic at byte offset 0)");
  OPV_REQUIRE(h.version == EnsembleCheckpoint::kVersion,
              "'" << path << "': unsupported OPVK version " << h.version << " (have "
                  << EnsembleCheckpoint::kVersion << ")");
  OPV_REQUIRE(h.ninstances <= kMaxChkInstances,
              "'" << path << "': implausible instance count " << h.ninstances
                  << " at byte offset " << r.offset());

  EnsembleCheckpoint c;
  c.version = h.version;
  c.target_steps = h.target_steps;
  c.instances.reserve(h.ninstances);
  for (std::uint32_t i = 0; i < h.ninstances; ++i) {
    EnsembleCheckpoint::InstanceState inst;
    std::int32_t id = 0;
    r.read(&id, sizeof id, "instance id");
    inst.id = id;
    r.read(&inst.steps_done, sizeof inst.steps_done, "instance steps");
    OPV_REQUIRE(inst.steps_done >= 0, "'" << path << "': negative step count for instance " << id
                                          << " at byte offset " << r.offset());
    inst.error = read_str(r, kMaxNameLen, "instance error");
    std::uint32_t nsections = 0;
    r.read(&nsections, sizeof nsections, "section count");
    OPV_REQUIRE(nsections <= kMaxChkSections, "'" << path << "': implausible section count "
                                                  << nsections << " at byte offset " << r.offset());
    inst.state.sections.reserve(nsections);
    for (std::uint32_t s = 0; s < nsections; ++s) {
      Checkpoint::Section sec;
      sec.name = read_str(r, kMaxNameLen, "section name");
      std::uint64_t len = 0;
      r.read(&len, sizeof len, "section length");
      OPV_REQUIRE(len <= kMaxChkSectionBytes, "'" << path << "': implausible section '" << sec.name
                                                  << "' length " << len << " at byte offset "
                                                  << r.offset());
      sec.bytes.resize(static_cast<std::size_t>(len));
      const std::size_t payload_at = r.offset();
      if (len > 0) r.read(sec.bytes.data(), static_cast<std::size_t>(len), "section payload");
      std::uint32_t crc = 0;
      r.read(&crc, sizeof crc, "section crc");
      const std::uint32_t have = crc32(sec.bytes.data(), sec.bytes.size());
      OPV_REQUIRE(have == crc, "'" << path << "': CRC mismatch in section '" << sec.name
                                   << "' (payload at byte offset " << payload_at << ": stored "
                                   << crc << ", computed " << have << ") — checkpoint is corrupt");
      inst.state.sections.push_back(std::move(sec));
    }
    c.instances.push_back(std::move(inst));
  }
  r.expect_eof();
  return c;
}

// ===========================================================================
// Gmsh MSH (ASCII v2.2 / v4.1)
// ===========================================================================

namespace {

/// Whitespace tokenizer over an istream that tracks the line number of the
/// token it last produced, so every parse error carries "label:line".
class Tok {
 public:
  Tok(std::istream& in, std::string label) : in_(in), label_(std::move(label)) {}

  [[noreturn]] void fail(const std::string& msg) const {
    OPV_REQUIRE(false, label_ << ":" << tok_line_ << ": " << msg);
    std::abort();  // unreachable; OPV_REQUIRE(false) always throws
  }

  bool next(std::string& tok) {
    tok.clear();
    int ch;
    while ((ch = in_.get()) != EOF) {
      if (ch == '\n') ++line_;
      if (!std::isspace(static_cast<unsigned char>(ch))) break;
    }
    if (ch == EOF) {
      tok_line_ = line_;
      return false;
    }
    tok_line_ = line_;
    tok.push_back(static_cast<char>(ch));
    while ((ch = in_.get()) != EOF && !std::isspace(static_cast<unsigned char>(ch)))
      tok.push_back(static_cast<char>(ch));
    if (ch == '\n') ++line_;
    return true;
  }

  std::string require(const char* what) {
    std::string t;
    if (!next(t)) fail(std::string("unexpected end of file, expected ") + what);
    return t;
  }

  void expect(const char* literal) {
    const std::string t = require(literal);
    if (t != literal) fail("expected " + std::string(literal) + ", got '" + t + "'");
  }

  long long integer(const char* what, long long lo, long long hi) {
    const std::string t = require(what);
    long long v = 0;
    const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc{} || p != t.data() + t.size())
      fail("expected an integer for " + std::string(what) + ", got '" + t + "'");
    if (v < lo || v > hi) {
      std::ostringstream os;
      os << what << " " << v << " out of range [" << lo << "," << hi << "]";
      fail(os.str());
    }
    return v;
  }

  double real(const char* what) {
    const std::string t = require(what);
    double v = 0;
    const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc{} || p != t.data() + t.size())
      fail("expected a number for " + std::string(what) + ", got '" + t + "'");
    // from_chars accepts nan/inf; no mesh quantity may be non-finite.
    if (!std::isfinite(v)) fail("non-finite " + std::string(what) + " '" + t + "'");
    return v;
  }

  /// A double-quoted string (possibly containing spaces, single line).
  std::string quoted(const char* what) {
    int ch;
    while ((ch = in_.get()) != EOF) {
      if (ch == '\n') ++line_;
      if (!std::isspace(static_cast<unsigned char>(ch))) break;
    }
    tok_line_ = line_;
    if (ch != '"') fail("expected a quoted string for " + std::string(what));
    std::string out;
    while ((ch = in_.get()) != EOF && ch != '"') {
      if (ch == '\n') fail("unterminated quoted string for " + std::string(what));
      out.push_back(static_cast<char>(ch));
    }
    if (ch == EOF) fail("unterminated quoted string for " + std::string(what));
    return out;
  }

 private:
  std::istream& in_;
  std::string label_;
  int line_ = 1;      ///< current scan position
  int tok_line_ = 1;  ///< line the last token started on
};

/// Nodes-per-element of the supported gmsh element types.
int npe_of(long long type) {
  switch (type) {
    case 1: return 2;   // 2-node line
    case 2: return 3;   // 3-node triangle
    case 3: return 4;   // 4-node quadrangle
    case 4: return 4;   // 4-node tetrahedron
    case 15: return 1;  // 1-node point (parsed, discarded)
    default: return 0;
  }
}

GmshMesh::Elems* elems_of(GmshMesh& g, long long type) {
  switch (type) {
    case 1: return &g.lines;
    case 2: return &g.tris;
    case 3: return &g.quads;
    case 4: return &g.tets;
    default: return nullptr;  // points and anything unsupported
  }
}

using TagMap = std::unordered_map<long long, idx_t>;
using EntityPhys = std::map<std::pair<int, long long>, idx_t>;

void parse_physical_names(Tok& t, GmshMesh& g) {
  const long long n = t.integer("physical-name count", 0, kMaxCount);
  for (long long i = 0; i < n; ++i) {
    GmshPhysical p;
    p.dim = static_cast<int>(t.integer("physical dimension", 0, 3));
    p.tag = static_cast<idx_t>(t.integer("physical tag", 1, kMaxCount));
    p.name = t.quoted("physical name");
    for (const auto& q : g.physicals)
      if (q.dim == p.dim && q.tag == p.tag) t.fail("duplicate physical group");
    g.physicals.push_back(std::move(p));
  }
  t.expect("$EndPhysicalNames");
}

/// v4.1 $Entities: record the first physical tag of each model entity so
/// element blocks (which reference entities, not physicals) can be labeled.
void parse_entities(Tok& t, EntityPhys& ent) {
  const long long counts[4] = {t.integer("point count", 0, kMaxCount),
                               t.integer("curve count", 0, kMaxCount),
                               t.integer("surface count", 0, kMaxCount),
                               t.integer("volume count", 0, kMaxCount)};
  for (int dim = 0; dim < 4; ++dim) {
    for (long long i = 0; i < counts[dim]; ++i) {
      const long long tag = t.integer("entity tag", -kMaxCount, kMaxCount);
      // Points carry one xyz triple; higher-dim entities a bounding box.
      const int ncoord = dim == 0 ? 3 : 6;
      for (int k = 0; k < ncoord; ++k) t.real("entity bounding box");
      const long long nphys = t.integer("physical-tag count", 0, kMaxCount);
      for (long long k = 0; k < nphys; ++k) {
        const long long phys = t.integer("physical tag", -kMaxCount, kMaxCount);
        if (k == 0) ent[{dim, tag}] = static_cast<idx_t>(phys);
      }
      if (dim > 0) {
        const long long nb = t.integer("bounding-entity count", 0, kMaxCount);
        for (long long k = 0; k < nb; ++k) t.integer("bounding entity tag", -kMaxCount, kMaxCount);
      }
    }
  }
  t.expect("$EndEntities");
}

void add_node_tag(Tok& t, TagMap& tags, long long tag, idx_t index) {
  const auto [it, inserted] = tags.emplace(tag, index);
  (void)it;
  if (!inserted) {
    std::ostringstream os;
    os << "duplicate node tag " << tag;
    t.fail(os.str());
  }
}

void parse_nodes_v2(Tok& t, GmshMesh& g, TagMap& tags) {
  const long long n = t.integer("node count", 0, kMaxCount);
  g.node_xyz.reserve(static_cast<std::size_t>(n) * 3);
  for (long long i = 0; i < n; ++i) {
    const long long tag = t.integer("node tag", -kMaxCount * 4, kMaxCount * 4);
    add_node_tag(t, tags, tag, static_cast<idx_t>(i));
    g.node_xyz.push_back(t.real("node x"));
    g.node_xyz.push_back(t.real("node y"));
    g.node_xyz.push_back(t.real("node z"));
  }
  g.nnodes = static_cast<idx_t>(n);
  t.expect("$EndNodes");
}

void parse_nodes_v4(Tok& t, GmshMesh& g, TagMap& tags) {
  const long long nblocks = t.integer("node entity-block count", 0, kMaxCount);
  const long long total = t.integer("node count", 0, kMaxCount);
  t.integer("min node tag", 0, kMaxCount * 4);
  t.integer("max node tag", 0, kMaxCount * 4);
  g.node_xyz.reserve(static_cast<std::size_t>(total) * 3);
  long long seen = 0;
  std::vector<long long> block_tags;
  for (long long b = 0; b < nblocks; ++b) {
    t.integer("entity dimension", 0, 3);
    t.integer("entity tag", -kMaxCount, kMaxCount);
    const long long parametric = t.integer("parametric flag", 0, 1);
    if (parametric != 0) t.fail("parametric nodes are not supported");
    const long long nb = t.integer("block node count", 0, kMaxCount);
    if (seen + nb > total) t.fail("node blocks exceed the declared node count");
    block_tags.clear();
    for (long long i = 0; i < nb; ++i) {
      const long long tag = t.integer("node tag", -kMaxCount * 4, kMaxCount * 4);
      add_node_tag(t, tags, tag, static_cast<idx_t>(seen + i));
      block_tags.push_back(tag);
    }
    for (long long i = 0; i < nb; ++i) {
      g.node_xyz.push_back(t.real("node x"));
      g.node_xyz.push_back(t.real("node y"));
      g.node_xyz.push_back(t.real("node z"));
    }
    seen += nb;
  }
  if (seen != total) {
    std::ostringstream os;
    os << "node blocks hold " << seen << " nodes, header declared " << total;
    t.fail(os.str());
  }
  g.nnodes = static_cast<idx_t>(total);
  t.expect("$EndNodes");
}

idx_t resolve_node(Tok& t, const TagMap& tags, long long tag) {
  const auto it = tags.find(tag);
  if (it == tags.end()) {
    std::ostringstream os;
    os << "element references undeclared node tag " << tag;
    t.fail(os.str());
  }
  return it->second;
}

void append_elem(Tok& t, GmshMesh& g, const TagMap& tags, long long type, idx_t phys) {
  const int npe = npe_of(type);
  GmshMesh::Elems* e = elems_of(g, type);
  for (int k = 0; k < npe; ++k) {
    const long long tag = t.integer("element node tag", -kMaxCount * 4, kMaxCount * 4);
    if (e) e->nodes.push_back(resolve_node(t, tags, tag));
  }
  if (e) {
    e->phys.push_back(phys);
    ++e->count;
  }
}

void parse_elements_v2(Tok& t, GmshMesh& g, const TagMap& tags) {
  const long long n = t.integer("element count", 0, kMaxCount);
  for (long long i = 0; i < n; ++i) {
    t.integer("element tag", -kMaxCount * 4, kMaxCount * 4);
    const long long type = t.integer("element type", 1, 140);
    if (npe_of(type) == 0) {
      std::ostringstream os;
      os << "unsupported element type " << type
         << " (supported: 1=line, 2=tri, 3=quad, 4=tet, 15=point)";
      t.fail(os.str());
    }
    const long long ntags = t.integer("element tag count", 0, 64);
    idx_t phys = 0;
    for (long long k = 0; k < ntags; ++k) {
      const long long tag = t.integer("element tag value", -kMaxCount, kMaxCount);
      if (k == 0) phys = static_cast<idx_t>(tag);
    }
    append_elem(t, g, tags, type, phys);
  }
  t.expect("$EndElements");
}

void parse_elements_v4(Tok& t, GmshMesh& g, const TagMap& tags, const EntityPhys& ent) {
  const long long nblocks = t.integer("element entity-block count", 0, kMaxCount);
  const long long total = t.integer("element count", 0, kMaxCount);
  t.integer("min element tag", 0, kMaxCount * 4);
  t.integer("max element tag", 0, kMaxCount * 4);
  long long seen = 0;
  for (long long b = 0; b < nblocks; ++b) {
    const int dim = static_cast<int>(t.integer("entity dimension", 0, 3));
    const long long etag = t.integer("entity tag", -kMaxCount, kMaxCount);
    const long long type = t.integer("element type", 1, 140);
    if (npe_of(type) == 0) {
      std::ostringstream os;
      os << "unsupported element type " << type
         << " (supported: 1=line, 2=tri, 3=quad, 4=tet, 15=point)";
      t.fail(os.str());
    }
    const long long nb = t.integer("block element count", 0, kMaxCount);
    if (seen + nb > total) t.fail("element blocks exceed the declared element count");
    const auto it = ent.find({dim, etag});
    const idx_t phys = it != ent.end() ? it->second : 0;
    for (long long i = 0; i < nb; ++i) {
      t.integer("element tag", -kMaxCount * 4, kMaxCount * 4);
      append_elem(t, g, tags, type, phys);
    }
    seen += nb;
  }
  if (seen != total) {
    std::ostringstream os;
    os << "element blocks hold " << seen << " elements, header declared " << total;
    t.fail(os.str());
  }
  t.expect("$EndElements");
}

void skip_section(Tok& t, const std::string& opener) {
  const std::string closer = "$End" + opener.substr(1);
  std::string tok;
  while (t.next(tok)) {
    if (tok == closer) return;
    if (tok.size() > 1 && tok[0] == '$')
      t.fail("section " + opener + " not closed before '" + tok + "' (expected " + closer + ")");
  }
  t.fail("unexpected end of file inside section " + opener + " (expected " + closer + ")");
}

}  // namespace

bool operator==(const GmshMesh& a, const GmshMesh& b) {
  return a.nnodes == b.nnodes && a.node_xyz == b.node_xyz && a.physicals == b.physicals &&
         a.lines == b.lines && a.tris == b.tris && a.quads == b.quads && a.tets == b.tets;
}

std::string GmshMesh::physical_name(int dim, idx_t tag) const {
  for (const auto& p : physicals)
    if (p.dim == dim && p.tag == tag) return p.name;
  return "";
}

void GmshMesh::validate() const {
  OPV_REQUIRE(nnodes >= 0, "negative node count");
  OPV_REQUIRE(node_xyz.size() == static_cast<std::size_t>(nnodes) * 3, "node_xyz size mismatch");
  const auto check = [this](const Elems& e, int npe, const char* what) {
    OPV_REQUIRE(e.count >= 0, what << " count negative");
    OPV_REQUIRE(e.nodes.size() == static_cast<std::size_t>(e.count) * npe,
                what << " node array size mismatch");
    OPV_REQUIRE(e.phys.size() == static_cast<std::size_t>(e.count),
                what << " physical-tag array size mismatch");
    for (std::size_t i = 0; i < e.nodes.size(); ++i)
      OPV_REQUIRE(e.nodes[i] >= 0 && e.nodes[i] < nnodes,
                  what << " element " << i / npe << " references node " << e.nodes[i]
                       << " out of range [0," << nnodes << ")");
  };
  check(lines, 2, "line");
  check(tris, 3, "triangle");
  check(quads, 4, "quadrangle");
  check(tets, 4, "tetrahedron");
}

GmshMesh read_msh(std::istream& in, const std::string& label) {
  Tok t(in, label);
  GmshMesh g;
  g.name = label;

  std::string tok;
  if (!t.next(tok)) t.fail("empty file");
  if (tok != "$MeshFormat") t.fail("expected $MeshFormat as the first section, got '" + tok + "'");
  const std::string ver = t.require("MSH version");
  int version = 0;
  if (ver == "2.2") version = 2;
  else if (ver == "4.1") version = 4;
  else t.fail("unsupported MSH version '" + ver + "' (supported: ASCII 2.2 and 4.1)");
  const long long ftype = t.integer("file-type", 0, 1);
  if (ftype != 0) t.fail("binary MSH files are not supported (re-export as ASCII)");
  t.integer("data-size", 1, 64);
  t.expect("$EndMeshFormat");

  TagMap tags;
  EntityPhys ent;
  bool saw_nodes = false, saw_elems = false;
  while (t.next(tok)) {
    if (tok == "$PhysicalNames") {
      parse_physical_names(t, g);
    } else if (tok == "$Entities" && version == 4) {
      parse_entities(t, ent);
    } else if (tok == "$Nodes") {
      if (saw_nodes) t.fail("duplicate $Nodes section");
      if (version == 2) parse_nodes_v2(t, g, tags);
      else parse_nodes_v4(t, g, tags);
      saw_nodes = true;
    } else if (tok == "$Elements") {
      if (saw_elems) t.fail("duplicate $Elements section");
      if (!saw_nodes) t.fail("$Elements before $Nodes");
      if (version == 2) parse_elements_v2(t, g, tags);
      else parse_elements_v4(t, g, tags, ent);
      saw_elems = true;
    } else if (tok.size() > 1 && tok[0] == '$' && tok.compare(0, 4, "$End") != 0) {
      skip_section(t, tok);  // $Comments, $Periodic, $NodeData, ...
    } else {
      t.fail("unexpected token '" + tok + "' (expected a $Section header)");
    }
  }
  if (!saw_nodes) t.fail("missing $Nodes section");
  if (!saw_elems) t.fail("missing $Elements section");
  g.validate();
  return g;
}

GmshMesh read_msh(const std::string& path) {
  std::ifstream is(path);
  OPV_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  GmshMesh g = read_msh(is, path);
  g.name = std::filesystem::path(path).stem().string();
  return g;
}

namespace {

void write_physical_names(std::FILE* f, const GmshMesh& g) {
  if (g.physicals.empty()) return;
  std::fprintf(f, "$PhysicalNames\n%zu\n", g.physicals.size());
  for (const auto& p : g.physicals)
    std::fprintf(f, "%d %d \"%s\"\n", p.dim, p.tag, p.name.c_str());
  std::fprintf(f, "$EndPhysicalNames\n");
}

struct TypedElems {
  int type;
  int dim;
  const GmshMesh::Elems* e;
};

std::vector<TypedElems> typed_elems(const GmshMesh& g) {
  return {{1, 1, &g.lines}, {2, 2, &g.tris}, {3, 2, &g.quads}, {4, 3, &g.tets}};
}

void write_msh_v2(std::FILE* f, const GmshMesh& g) {
  std::fprintf(f, "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n");
  write_physical_names(f, g);
  std::fprintf(f, "$Nodes\n%d\n", g.nnodes);
  for (idx_t n = 0; n < g.nnodes; ++n)
    std::fprintf(f, "%d %.17g %.17g %.17g\n", n + 1, g.node_xyz[3 * static_cast<std::size_t>(n)],
                 g.node_xyz[3 * static_cast<std::size_t>(n) + 1],
                 g.node_xyz[3 * static_cast<std::size_t>(n) + 2]);
  std::fprintf(f, "$EndNodes\n");

  idx_t total = g.lines.count + g.tris.count + g.quads.count + g.tets.count;
  std::fprintf(f, "$Elements\n%d\n", total);
  idx_t id = 1;
  for (const auto& [type, dim, e] : typed_elems(g)) {
    const int npe = npe_of(type);
    for (idx_t i = 0; i < e->count; ++i) {
      // Two tags, the gmsh v2 convention: physical id then elementary id.
      std::fprintf(f, "%d %d 2 %d %d", id++, type, e->phys[i], e->phys[i]);
      for (int k = 0; k < npe; ++k)
        std::fprintf(f, " %d", e->nodes[static_cast<std::size_t>(i) * npe + k] + 1);
      std::fprintf(f, "\n");
    }
  }
  std::fprintf(f, "$EndElements\n");
}

void write_msh_v4(std::FILE* f, const GmshMesh& g) {
  std::fprintf(f, "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n");
  write_physical_names(f, g);

  // One model entity per (dim, physical tag) in first-appearance order;
  // element blocks reference them. Nodes hang off the first entity (a
  // dedicated point entity when there are no elements at all).
  std::map<std::pair<int, idx_t>, idx_t> entity_tag;  // (dim, phys) -> tag
  std::vector<std::pair<int, idx_t>> order;           // insertion order
  int ndim[4] = {0, 0, 0, 0};
  for (const auto& [type, dim, e] : typed_elems(g))
    for (idx_t i = 0; i < e->count; ++i) {
      const auto key = std::make_pair(dim, e->phys[i]);
      if (entity_tag.emplace(key, ndim[dim] + 1).second) {
        ++ndim[dim];
        order.push_back(key);
      }
    }
  const bool dummy_point = order.empty();
  std::fprintf(f, "$Entities\n%d %d %d %d\n", dummy_point ? 1 : 0, ndim[1], ndim[2], ndim[3]);
  if (dummy_point) std::fprintf(f, "1 0 0 0 0\n");
  for (int dim = 1; dim <= 3; ++dim)
    for (const auto& key : order) {
      if (key.first != dim) continue;
      std::fprintf(f, "%d 0 0 0 0 0 0", entity_tag.at(key));
      if (key.second != 0) std::fprintf(f, " 1 %d", key.second);
      else std::fprintf(f, " 0");
      std::fprintf(f, " 0\n");
    }
  std::fprintf(f, "$EndEntities\n");

  std::fprintf(f, "$Nodes\n");
  if (g.nnodes == 0) {
    std::fprintf(f, "0 0 1 0\n");
  } else {
    const auto& first = dummy_point ? std::make_pair(0, idx_t{0}) : order.front();
    const idx_t ftag = dummy_point ? 1 : entity_tag.at(first);
    std::fprintf(f, "1 %d 1 %d\n%d %d 0 %d\n", g.nnodes, g.nnodes, first.first, ftag, g.nnodes);
    for (idx_t n = 0; n < g.nnodes; ++n) std::fprintf(f, "%d\n", n + 1);
    for (idx_t n = 0; n < g.nnodes; ++n)
      std::fprintf(f, "%.17g %.17g %.17g\n", g.node_xyz[3 * static_cast<std::size_t>(n)],
                   g.node_xyz[3 * static_cast<std::size_t>(n) + 1],
                   g.node_xyz[3 * static_cast<std::size_t>(n) + 2]);
  }
  std::fprintf(f, "$EndNodes\n");

  // Element blocks: per type, grouped by physical tag in first-appearance
  // order (v4 has no per-element tags, so mixed-physical runs regroup).
  idx_t total = g.lines.count + g.tris.count + g.quads.count + g.tets.count;
  idx_t nblocks = 0;
  for (const auto& [type, dim, e] : typed_elems(g)) {
    std::vector<idx_t> seen;
    for (idx_t i = 0; i < e->count; ++i)
      if (std::find(seen.begin(), seen.end(), e->phys[i]) == seen.end()) {
        seen.push_back(e->phys[i]);
        ++nblocks;
      }
  }
  std::fprintf(f, "$Elements\n%d %d 1 %d\n", nblocks, total, total > 0 ? total : 1);
  idx_t id = 1;
  for (const auto& [type, dim, e] : typed_elems(g)) {
    const int npe = npe_of(type);
    std::vector<idx_t> seen;
    for (idx_t i = 0; i < e->count; ++i) {
      if (std::find(seen.begin(), seen.end(), e->phys[i]) != seen.end()) continue;
      const idx_t phys = e->phys[i];
      seen.push_back(phys);
      idx_t nb = 0;
      for (idx_t j = 0; j < e->count; ++j)
        if (e->phys[j] == phys) ++nb;
      std::fprintf(f, "%d %d %d %d\n", dim, entity_tag.at({dim, phys}), type, nb);
      for (idx_t j = 0; j < e->count; ++j) {
        if (e->phys[j] != phys) continue;
        std::fprintf(f, "%d", id++);
        for (int k = 0; k < npe; ++k)
          std::fprintf(f, " %d", e->nodes[static_cast<std::size_t>(j) * npe + k] + 1);
        std::fprintf(f, "\n");
      }
    }
  }
  std::fprintf(f, "$EndElements\n");
}

}  // namespace

void write_msh(const GmshMesh& g, const std::string& path, int version) {
  OPV_REQUIRE(version == 2 || version == 4, "write_msh: version must be 2 (v2.2) or 4 (v4.1)");
  g.validate();
  std::FILE* f = std::fopen(path.c_str(), "w");
  OPV_REQUIRE(f != nullptr, "cannot open '" << path << "' for writing");
  if (version == 2) write_msh_v2(f, g);
  else write_msh_v4(f, g);
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  OPV_REQUIRE(ok, "write failed for '" << path << "'");
}

// ===========================================================================
// Conversions
// ===========================================================================

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Bound id of a boundary element from its physical group.
idx_t bound_of(const GmshMesh& g, int dim, idx_t phys, const MshOptions& opt) {
  if (phys != 0) {
    const std::string name = lower(g.physical_name(dim, phys));
    const auto it = opt.bound_ids.find(name);
    if (it != opt.bound_ids.end()) return it->second;
  }
  return opt.default_bound;
}

/// Group boundary elements (bedge/bface ids) into named sets by physical
/// group, ordered by tag; untagged elements belong to no named set.
void collect_bsets(const GmshMesh& g, int dim, const aligned_vector<idx_t>& phys,
                   const aligned_vector<idx_t>& belem_of_elem, std::vector<BoundarySet>* bsets) {
  if (!bsets) return;
  std::map<idx_t, BoundarySet> by_tag;
  for (std::size_t i = 0; i < phys.size(); ++i) {
    if (phys[i] == 0) continue;
    auto& set = by_tag[phys[i]];
    if (set.name.empty()) {
      set.name = g.physical_name(dim, phys[i]);
      if (set.name.empty()) set.name = "physical_" + std::to_string(phys[i]);
    }
    set.elems.push_back(belem_of_elem[i]);
  }
  for (auto& [tag, set] : by_tag) bsets->push_back(std::move(set));
}

}  // namespace

UnstructuredMesh to_unstructured(const GmshMesh& g, const MshOptions& opt,
                                 std::vector<BoundarySet>* bsets) {
  g.validate();
  OPV_REQUIRE(g.tets.count == 0,
              "to_unstructured: mesh has " << g.tets.count << " tetrahedra — use to_tet");
  const bool tri = g.tris.count > 0;
  const bool quad = g.quads.count > 0;
  OPV_REQUIRE(tri || quad, "to_unstructured: no 2D cells (no triangles or quadrangles)");
  OPV_REQUIRE(!(tri && quad), "to_unstructured: mixed tri/quad meshes are not supported ("
                                  << g.tris.count << " tris, " << g.quads.count << " quads)");
  const GmshMesh::Elems& cells = tri ? g.tris : g.quads;
  const int npc = tri ? 3 : 4;

  UnstructuredMesh m;
  m.name = g.name;
  m.nodes_per_cell = npc;
  m.nnodes = g.nnodes;
  m.ncells = cells.count;
  m.node_xy.resize(static_cast<std::size_t>(m.nnodes) * 2);
  for (idx_t n = 0; n < m.nnodes; ++n) {
    m.node_xy[2 * static_cast<std::size_t>(n)] = g.node_xyz[3 * static_cast<std::size_t>(n)];
    m.node_xy[2 * static_cast<std::size_t>(n) + 1] =
        g.node_xyz[3 * static_cast<std::size_t>(n) + 1];
  }
  m.cell_nodes = cells.nodes;

  // Derive edges from the cell->node map in discovery order: an edge is
  // interior the moment its second cell appears, boundary if only one cell
  // ever contributes it. Deterministic in cell_nodes alone.
  struct Slot {
    idx_t cell = -1;
    idx_t n0 = -1, n1 = -1;
    int seen = 0;
    idx_t bedge = -1;
  };
  const auto key_of = [](idx_t a, idx_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  };
  std::unordered_map<std::uint64_t, Slot> reg;
  reg.reserve(static_cast<std::size_t>(m.ncells) * npc + 16);
  for (idx_t c = 0; c < m.ncells; ++c) {
    const idx_t* cn = &m.cell_nodes[static_cast<std::size_t>(c) * npc];
    for (int k = 0; k < npc; ++k) {
      const idx_t a = cn[k], b = cn[(k + 1) % npc];
      OPV_REQUIRE(a != b, "cell " << c << " has a degenerate edge (repeated node " << a << ")");
      Slot& s = reg[key_of(a, b)];
      if (s.seen == 0) {
        s.cell = c;
        s.n0 = a;
        s.n1 = b;
        s.seen = 1;
      } else {
        OPV_REQUIRE(s.seen == 1, "non-manifold mesh: edge (" << a << "," << b
                                                             << ") shared by 3+ cells");
        s.seen = 2;
        m.edge_nodes.insert(m.edge_nodes.end(), {s.n0, s.n1});
        m.edge_cells.insert(m.edge_cells.end(), {s.cell, c});
        ++m.nedges;
      }
    }
  }
  for (idx_t c = 0; c < m.ncells; ++c) {
    const idx_t* cn = &m.cell_nodes[static_cast<std::size_t>(c) * npc];
    for (int k = 0; k < npc; ++k) {
      Slot& s = reg.at(key_of(cn[k], cn[(k + 1) % npc]));
      if (s.seen != 1 || s.bedge >= 0) continue;
      s.bedge = m.nbedges;
      m.bedge_nodes.insert(m.bedge_nodes.end(), {s.n0, s.n1});
      m.bedge_cell.push_back(s.cell);
      m.bedge_bound.push_back(opt.default_bound);
      ++m.nbedges;
    }
  }

  // Line elements label the derived boundary edges with their physical
  // group; a line matching an interior edge (or nothing) is a modeling
  // error worth failing loudly on.
  aligned_vector<idx_t> bedge_of_line(static_cast<std::size_t>(g.lines.count), -1);
  for (idx_t l = 0; l < g.lines.count; ++l) {
    const idx_t a = g.lines.nodes[2 * static_cast<std::size_t>(l)];
    const idx_t b = g.lines.nodes[2 * static_cast<std::size_t>(l) + 1];
    const auto it = reg.find(key_of(a, b));
    OPV_REQUIRE(it != reg.end() && it->second.seen == 1,
                "boundary line element (" << a << "," << b << ") "
                    << (it == reg.end() ? "matches no cell edge" : "matches an interior edge"));
    m.bedge_bound[it->second.bedge] = bound_of(g, 1, g.lines.phys[l], opt);
    bedge_of_line[l] = it->second.bedge;
  }
  collect_bsets(g, 1, g.lines.phys, bedge_of_line, bsets);

  orient_edges_fv(m);
  m.validate();
  return m;
}

TetMesh to_tet(const GmshMesh& g, const MshOptions& opt, std::vector<BoundarySet>* bsets) {
  g.validate();
  OPV_REQUIRE(g.tets.count > 0, "to_tet: no tetrahedra in the mesh");
  OPV_REQUIRE(g.quads.count == 0, "to_tet: quadrangle elements are not supported in 3D meshes");

  TetMesh m;
  m.name = g.name;
  m.nnodes = g.nnodes;
  m.ncells = g.tets.count;
  m.node_xyz = g.node_xyz;
  m.cell_nodes = g.tets.nodes;
  for (idx_t c = 0; c < m.ncells; ++c)
    OPV_REQUIRE(std::abs(m.cell_volume(c)) > 0.0,
                "tetrahedron " << c << " is degenerate (zero volume)");
  build_tet_faces(m);
  for (auto& b : m.bface_bound) b = opt.default_bound;

  // Index the derived boundary faces by sorted node triple, then label them
  // from the boundary tri elements' physical groups.
  const auto key_of = [](idx_t a, idx_t b, idx_t c) {
    if (a > b) std::swap(a, b);
    if (b > c) std::swap(b, c);
    if (a > b) std::swap(a, b);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t v : {std::uint64_t(a), std::uint64_t(b), std::uint64_t(c)}) {
      h ^= v + 1;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  std::unordered_map<std::uint64_t, idx_t> bface_by_tri;
  bface_by_tri.reserve(static_cast<std::size_t>(m.nbfaces) * 2 + 16);
  for (idx_t b = 0; b < m.nbfaces; ++b) {
    const idx_t* n = &m.bface_nodes[static_cast<std::size_t>(b) * 3];
    bface_by_tri.emplace(key_of(n[0], n[1], n[2]), b);
  }
  std::unordered_map<std::uint64_t, int> interior;
  interior.reserve(static_cast<std::size_t>(m.nfaces) * 2 + 16);
  for (idx_t f = 0; f < m.nfaces; ++f) {
    const idx_t* n = &m.face_nodes[static_cast<std::size_t>(f) * 3];
    interior.emplace(key_of(n[0], n[1], n[2]), 1);
  }
  aligned_vector<idx_t> bface_of_tri(static_cast<std::size_t>(g.tris.count), -1);
  for (idx_t e = 0; e < g.tris.count; ++e) {
    const idx_t* n = &g.tris.nodes[static_cast<std::size_t>(e) * 3];
    const auto it = bface_by_tri.find(key_of(n[0], n[1], n[2]));
    OPV_REQUIRE(it != bface_by_tri.end(),
                "boundary triangle element (" << n[0] << "," << n[1] << "," << n[2] << ") "
                    << (interior.count(key_of(n[0], n[1], n[2]))
                            ? "matches an interior face"
                            : "matches no cell face"));
    m.bface_bound[it->second] = bound_of(g, 2, g.tris.phys[e], opt);
    bface_of_tri[e] = it->second;
  }
  collect_bsets(g, 2, g.tris.phys, bface_of_tri, bsets);

  m.validate();
  return m;
}

namespace {

/// Physical groups for the export path: the domain group plus one boundary
/// group per bound id present, named for the FV convention.
void export_physicals(GmshMesh& g, int bdim, const aligned_vector<idx_t>& bounds, int cell_dim,
                      const char* cell_name) {
  bool has[3] = {false, false, false};
  for (idx_t b : bounds)
    if (b >= 1 && b <= 2) has[b] = true;
  for (idx_t id = 1; id <= 2; ++id)
    if (has[id])
      g.physicals.push_back({bdim, id, id == kBoundWall ? "wall" : "farfield"});
  g.physicals.push_back({cell_dim, 1, cell_name});
}

}  // namespace

GmshMesh from_unstructured(const UnstructuredMesh& m) {
  m.validate();
  OPV_REQUIRE(!m.periodic, "from_unstructured: periodic meshes have no MSH representation "
                           "(wrap-around edges would dangle)");
  GmshMesh g;
  g.name = m.name;
  g.nnodes = m.nnodes;
  g.node_xyz.resize(static_cast<std::size_t>(m.nnodes) * 3);
  for (idx_t n = 0; n < m.nnodes; ++n) {
    g.node_xyz[3 * static_cast<std::size_t>(n)] = m.node_xy[2 * static_cast<std::size_t>(n)];
    g.node_xyz[3 * static_cast<std::size_t>(n) + 1] =
        m.node_xy[2 * static_cast<std::size_t>(n) + 1];
    g.node_xyz[3 * static_cast<std::size_t>(n) + 2] = 0.0;
  }
  GmshMesh::Elems& cells = m.nodes_per_cell == 3 ? g.tris : g.quads;
  cells.count = m.ncells;
  cells.nodes = m.cell_nodes;
  cells.phys.assign(static_cast<std::size_t>(m.ncells), 1);
  g.lines.count = m.nbedges;
  g.lines.nodes = m.bedge_nodes;
  g.lines.phys = m.bedge_bound;
  export_physicals(g, 1, m.bedge_bound, 2, "domain");
  return g;
}

GmshMesh from_tet(const TetMesh& m) {
  m.validate();
  GmshMesh g;
  g.name = m.name;
  g.nnodes = m.nnodes;
  g.node_xyz = m.node_xyz;
  g.tets.count = m.ncells;
  g.tets.nodes = m.cell_nodes;
  g.tets.phys.assign(static_cast<std::size_t>(m.ncells), 1);
  g.tris.count = m.nbfaces;
  g.tris.nodes = m.bface_nodes;
  g.tris.phys = m.bface_bound;
  export_physicals(g, 2, m.bface_bound, 3, "domain");
  return g;
}

}  // namespace opv::mesh
