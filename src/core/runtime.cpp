#include <map>
#include <mutex>

#include "common/error.hpp"
#include "core/kernel_info.hpp"
#include "core/loop_stats.hpp"

namespace opv {

// ---- KernelRegistry ---------------------------------------------------------

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry r;
  return r;
}

void KernelRegistry::add(const KernelInfo& info) { infos_[info.name] = info; }

bool KernelRegistry::has(const std::string& name) const { return infos_.count(name) != 0; }

const KernelInfo& KernelRegistry::get(const std::string& name) const {
  const auto it = infos_.find(name);
  OPV_REQUIRE(it != infos_.end(), "no KernelInfo registered for loop '" << name << "'");
  return it->second;
}

// ---- StatsRegistry ----------------------------------------------------------

struct StatsRegistry::Impl {
  std::map<std::string, LoopRecord> records;
  std::map<std::string, ChainRecord> chains;
  std::map<std::string, EnsembleRecord> ensembles;
  mutable std::mutex mu;
};

namespace {

/// The calling thread's stats scope (StatsScope). thread_local so ensemble
/// workers stepping different instances concurrently each resolve their own
/// instance's prefix.
std::string& tls_scope() {
  thread_local std::string scope;
  return scope;
}

/// "<scope>/<name>", or plain "<name>" outside any scope.
std::string scoped(const std::string& name) {
  const std::string& s = tls_scope();
  return s.empty() ? name : s + "/" + name;
}

}  // namespace

StatsScope::StatsScope(std::string scope) : prev_(std::move(tls_scope())) {
  tls_scope() = std::move(scope);
}

StatsScope::~StatsScope() { tls_scope() = std::move(prev_); }

const std::string& StatsScope::current() { return tls_scope(); }

StatsRegistry::StatsRegistry() : impl_(new Impl) {}

StatsRegistry& StatsRegistry::instance() {
  static StatsRegistry r;
  return r;
}

LoopRecord& StatsRegistry::slot(const std::string& loop) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->records[scoped(loop)];  // std::map nodes are address-stable
}

void StatsRegistry::record(LoopRecord& slot, double seconds, std::int64_t elements) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.seconds += seconds;
  slot.calls += 1;
  slot.elements += elements;
}

void StatsRegistry::record_ranks(LoopRecord& slot, const double* seconds, int nranks) {
  if (nranks <= 0) return;
  double mx = seconds[0], mn = seconds[0], sum = 0.0;
  for (int r = 0; r < nranks; ++r) {
    mx = seconds[r] > mx ? seconds[r] : mx;
    mn = seconds[r] < mn ? seconds[r] : mn;
    sum += seconds[r];
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.nranks = nranks;
  slot.rank_max_seconds += mx;
  slot.rank_min_seconds += mn;
  slot.rank_mean_seconds += sum / nranks;
}

void StatsRegistry::record_exchange(LoopRecord& slot, double seconds, std::int64_t values) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.exchange_seconds += seconds;
  slot.exchanged_values += values;
}

void StatsRegistry::record_plan(LoopRecord& slot, double seconds) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.plan_seconds += seconds;
}

LoopRecord StatsRegistry::get(const std::string& loop) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->records.find(loop);
  return it == impl_->records.end() ? LoopRecord{} : it->second;
}

std::vector<std::pair<std::string, LoopRecord>> StatsRegistry::all() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::pair<std::string, LoopRecord>> out;
  for (const auto& [name, rec] : impl_->records)
    if (rec.calls > 0) out.emplace_back(name, rec);
  return out;
}

ChainRecord& StatsRegistry::chain_slot(const std::string& chain) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->chains[scoped(chain)];  // std::map nodes are address-stable
}

void StatsRegistry::record_chain(ChainRecord& slot, double seconds, int tiles, int fused_loops,
                                 int member_loops) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.seconds += seconds;
  slot.calls += 1;
  slot.tiles = tiles;
  slot.fused_loops = fused_loops;
  slot.member_loops = member_loops;
}

void StatsRegistry::record_chain_plan(ChainRecord& slot, double seconds) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.plan_seconds += seconds;
}

void StatsRegistry::set_chain_members(ChainRecord& slot, std::vector<std::string> members) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.members = std::move(members);
}

ChainRecord StatsRegistry::get_chain(const std::string& chain) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->chains.find(chain);
  return it == impl_->chains.end() ? ChainRecord{} : it->second;
}

std::vector<std::pair<std::string, ChainRecord>> StatsRegistry::all_chains() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::pair<std::string, ChainRecord>> out;
  for (const auto& [name, rec] : impl_->chains)
    if (rec.calls > 0) out.emplace_back(name, rec);
  return out;
}

EnsembleRecord& StatsRegistry::ensemble_slot(const std::string& ensemble) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->ensembles[ensemble];  // std::map nodes are address-stable
}

void StatsRegistry::record_ensemble(EnsembleRecord& slot, const EnsembleRecord& delta) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  slot.seconds += delta.seconds;
  slot.runs += delta.runs;
  slot.steps += delta.steps;
  slot.completed += delta.completed;
  slot.failed += delta.failed;
  slot.instances = delta.instances;
  slot.workers = delta.workers;
  slot.busy_seconds += delta.busy_seconds;
  slot.plan_hits += delta.plan_hits;
  slot.plan_misses += delta.plan_misses;
  slot.retries += delta.retries;
  slot.restores += delta.restores;
  slot.degraded += delta.degraded;
  slot.checkpoints += delta.checkpoints;
  slot.checkpoint_seconds += delta.checkpoint_seconds;
  slot.backoff_seconds += delta.backoff_seconds;
}

EnsembleRecord StatsRegistry::get_ensemble(const std::string& ensemble) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->ensembles.find(ensemble);
  return it == impl_->ensembles.end() ? EnsembleRecord{} : it->second;
}

std::vector<std::pair<std::string, EnsembleRecord>> StatsRegistry::all_ensembles() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::pair<std::string, EnsembleRecord>> out;
  for (const auto& [name, rec] : impl_->ensembles)
    if (rec.runs > 0) out.emplace_back(name, rec);
  return out;
}

void StatsRegistry::clear() {
  // Zero instead of erase: Loop handles hold stable slot references.
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, rec] : impl_->records) rec = LoopRecord{};
  for (auto& [name, rec] : impl_->chains) rec = ChainRecord{};
  for (auto& [name, rec] : impl_->ensembles) rec = EnsembleRecord{};
}

}  // namespace opv
