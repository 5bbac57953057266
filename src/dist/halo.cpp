#include "dist/halo.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace opv::dist {

// ---- GlobalSpec -------------------------------------------------------------

int GlobalSpec::add_set(std::string name, idx_t size) {
  OPV_REQUIRE(size >= 0, "GlobalSpec: set '" << name << "' has negative size");
  sets.push_back({std::move(name), size});
  return static_cast<int>(sets.size()) - 1;
}

int GlobalSpec::add_map(std::string name, int from, int to, int dim, const idx_t* data) {
  OPV_REQUIRE(from >= 0 && from < static_cast<int>(sets.size()), "GlobalSpec: bad from set");
  OPV_REQUIRE(to >= 0 && to < static_cast<int>(sets.size()), "GlobalSpec: bad to set");
  OPV_REQUIRE(dim >= 1, "GlobalSpec: map arity must be >= 1");
  const std::size_t n = static_cast<std::size_t>(sets[from].size) * dim;
  MapSpec m{std::move(name), from, to, dim, aligned_vector<idx_t>(data, data + n)};
  for (idx_t g : m.data)
    OPV_REQUIRE(g >= 0 && g < sets[to].size,
                "GlobalSpec: map '" << m.name << "' entry " << g << " outside target set");
  maps.push_back(std::move(m));
  return static_cast<int>(maps.size()) - 1;
}

// ---- ownership derivation ---------------------------------------------------

std::vector<aligned_vector<int>> derive_ownership(const GlobalSpec& spec, int primary_set,
                                                  const aligned_vector<int>& primary_owner,
                                                  int nranks) {
  const int nsets = static_cast<int>(spec.sets.size());
  OPV_REQUIRE(primary_set >= 0 && primary_set < nsets, "derive_ownership: bad primary set");
  OPV_REQUIRE(primary_owner.size() == static_cast<std::size_t>(spec.sets[primary_set].size),
              "derive_ownership: primary owner size mismatch");
  for (int r : primary_owner)
    OPV_REQUIRE(r >= 0 && r < nranks, "derive_ownership: primary owner " << r << " out of range");

  std::vector<aligned_vector<int>> owner(nsets);
  std::vector<bool> resolved(nsets, false);
  for (int s = 0; s < nsets; ++s)
    owner[s].assign(static_cast<std::size_t>(spec.sets[s].size), -1);
  owner[primary_set] = primary_owner;
  resolved[primary_set] = true;

  // Fixed-point propagation through the maps, in declaration order.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& m : spec.maps) {
      if (!resolved[m.from] && resolved[m.to]) {
        // From-elements inherit from their FIRST target (map index 0).
        auto& of = owner[m.from];
        const auto& ot = owner[m.to];
        for (std::size_t f = 0; f < of.size(); ++f)
          of[f] = ot[m.data[f * m.dim]];
        resolved[m.from] = true;
        progress = true;
      } else if (resolved[m.from] && !resolved[m.to]) {
        // Targets inherit from the first resolved referencing element.
        const auto& of = owner[m.from];
        auto& ot = owner[m.to];
        for (std::size_t f = 0; f < of.size(); ++f)
          for (int k = 0; k < m.dim; ++k) {
            int& o = ot[m.data[f * m.dim + k]];
            if (o < 0) o = of[f];
          }
        // Elements no map entry references (e.g. corner nodes touched by no
        // interior edge) still need exactly one owner: spread them
        // round-robin — they have no halo, any owner is correct.
        for (std::size_t g = 0; g < ot.size(); ++g)
          if (ot[g] < 0) ot[g] = static_cast<int>(g % nranks);
        resolved[m.to] = true;
        progress = true;
      }
    }
  }
  for (int s = 0; s < nsets; ++s)
    OPV_REQUIRE(resolved[s], "derive_ownership: set '"
                                 << spec.sets[s].name
                                 << "' is unreachable from the partitioned set through the "
                                    "declared maps");
  return owner;
}

// ---- Partitioned ------------------------------------------------------------

Partitioned::Partitioned(const GlobalSpec& spec, const std::vector<aligned_vector<int>>& owner,
                         int nranks)
    : nranks_(nranks), nsets_(spec.sets.size()), nmaps_(spec.maps.size()) {
  OPV_REQUIRE(nranks >= 1, "Partitioned: nranks must be >= 1");
  OPV_REQUIRE(owner.size() == nsets_, "Partitioned: ownership for every set required");
  const int nsets = static_cast<int>(nsets_);

  // core[s][g]: every map from set s takes g to elements its owner owns.
  std::vector<std::vector<char>> core(nsets_);
  for (int s = 0; s < nsets; ++s) core[s].assign(owner[s].size(), 1);
  for (const auto& m : spec.maps) {
    const auto& of = owner[m.from];
    const auto& ot = owner[m.to];
    auto& c = core[m.from];
    for (std::size_t f = 0; f < of.size(); ++f)
      for (int k = 0; k < m.dim; ++k)
        if (ot[m.data[f * m.dim + k]] != of[f]) c[f] = 0;
  }

  // owned_index[s][g]: position of g within its owner's owned list — core
  // elements first, then the rest, each group ascending in global id.
  std::vector<aligned_vector<idx_t>> owned_index(nsets_);
  for (int s = 0; s < nsets; ++s) {
    owned_index[s].assign(owner[s].size(), -1);
    std::vector<idx_t> next(static_cast<std::size_t>(nranks), 0);
    for (const bool want_core : {true, false})
      for (std::size_t g = 0; g < owner[s].size(); ++g)
        if ((core[s][g] != 0) == want_core) owned_index[s][g] = next[owner[s][g]]++;
  }

  // Execute halo: for every map F->T and from-element f, f must be executed
  // by every rank owning one of its targets. One pass over all map entries.
  // exec_flag[r*nsets+s] marks global elements of set s rank r must execute
  // but does not own.
  std::vector<std::vector<char>> halo_flag(static_cast<std::size_t>(nranks) * nsets_);
  auto flag = [&](int r, int s) -> std::vector<char>& {
    auto& v = halo_flag[static_cast<std::size_t>(r) * nsets_ + s];
    if (v.empty()) v.assign(owner[s].size() + 1, 0);  // +1 so empty sets allocate
    return v;
  };
  // 1 = exec halo, 2 = non-exec halo (exec wins).
  for (const auto& m : spec.maps) {
    const auto& of = owner[m.from];
    const auto& ot = owner[m.to];
    for (std::size_t f = 0; f < of.size(); ++f)
      for (int k = 0; k < m.dim; ++k) {
        const int rt = ot[m.data[f * m.dim + k]];
        if (rt != of[f]) flag(rt, m.from)[f] = 1;
      }
  }
  // Non-execute halo: targets of maps from executed elements.
  for (const auto& m : spec.maps) {
    const auto& of = owner[m.from];
    const auto& ot = owner[m.to];
    for (int r = 0; r < nranks; ++r) {
      auto& from_flags = flag(r, m.from);
      auto& to_flags = flag(r, m.to);
      for (std::size_t f = 0; f < of.size(); ++f) {
        if (of[f] != r && from_flags[f] != 1) continue;  // not executed by r
        for (int k = 0; k < m.dim; ++k) {
          const idx_t g = m.data[f * m.dim + k];
          if (ot[g] != r && to_flags[g] == 0) to_flags[g] = 2;
        }
      }
    }
  }

  // Layouts.
  layouts_.resize(static_cast<std::size_t>(nranks) * nsets_);
  for (int r = 0; r < nranks; ++r)
    for (int s = 0; s < nsets; ++s) {
      LocalLayout& L = layouts_[static_cast<std::size_t>(r) * nsets_ + s];
      const auto& own = owner[s];
      const auto& fl = flag(r, s);
      const std::size_t n = own.size();
      for (const bool want_core : {true, false}) {
        L.ncore = static_cast<idx_t>(L.local_to_global.size());
        for (std::size_t g = 0; g < n; ++g)
          if (own[g] == r && (core[s][g] != 0) == want_core)
            L.local_to_global.push_back(static_cast<idx_t>(g));
      }
      L.nowned = static_cast<idx_t>(L.local_to_global.size());
      for (std::size_t g = 0; g < n; ++g)
        if (fl[g] == 1) L.local_to_global.push_back(static_cast<idx_t>(g));
      L.nexec = static_cast<idx_t>(L.local_to_global.size()) - L.nowned;
      for (std::size_t g = 0; g < n; ++g)
        if (fl[g] == 2) L.local_to_global.push_back(static_cast<idx_t>(g));
      L.ntotal = static_cast<idx_t>(L.local_to_global.size());
      for (idx_t i = L.nowned; i < L.ntotal; ++i) {
        const idx_t g = L.local_to_global[i];
        L.src_rank.push_back(own[g]);
        L.src_local.push_back(owned_index[s][g]);
      }
    }

  // Localized sets, then maps (maps hold references into sets_, which must
  // therefore never reallocate after this reserve).
  sets_.reserve(static_cast<std::size_t>(nranks) * nsets_);
  for (int r = 0; r < nranks; ++r)
    for (int s = 0; s < nsets; ++s) {
      const LocalLayout& L = layout(r, s);
      sets_.emplace_back(spec.sets[s].name, L.nowned, L.nowned + L.nexec, L.ntotal);
    }

  maps_.reserve(static_cast<std::size_t>(nranks) * nmaps_);
  for (int r = 0; r < nranks; ++r) {
    // global -> local lookup for this rank, built per set on demand.
    std::vector<aligned_vector<idx_t>> g2l(nsets_);
    auto lookup = [&](int s) -> const aligned_vector<idx_t>& {
      auto& v = g2l[s];
      if (v.empty()) {
        const LocalLayout& L = layout(r, s);
        v.assign(owner[s].size() + 1, -1);
        for (idx_t l = 0; l < L.ntotal; ++l) v[L.local_to_global[l]] = l;
      }
      return v;
    };
    for (std::size_t mi = 0; mi < nmaps_; ++mi) {
      const auto& m = spec.maps[mi];
      const LocalLayout& Lf = layout(r, m.from);
      const auto& to_local = lookup(m.to);
      aligned_vector<idx_t> data(static_cast<std::size_t>(Lf.ntotal) * m.dim, 0);
      const idx_t nexec_end = Lf.nowned + Lf.nexec;
      for (idx_t l = 0; l < nexec_end; ++l) {
        const idx_t g = Lf.local_to_global[l];
        for (int k = 0; k < m.dim; ++k) {
          const idx_t tl = to_local[m.data[static_cast<std::size_t>(g) * m.dim + k]];
          OPV_REQUIRE(tl >= 0, "halo construction: executed element references an element "
                               "absent from the local layout (internal error)");
          data[static_cast<std::size_t>(l) * m.dim + k] = tl;
        }
      }
      maps_.emplace_back(m.name, set(r, m.from), set(r, m.to), m.dim, std::move(data));
    }
  }
}

}  // namespace opv::dist
