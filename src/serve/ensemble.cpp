#include "serve/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "common/cpu.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/plan.hpp"

namespace opv::serve {

namespace {

int resolve_workers(int requested) { return requested > 0 ? requested : hardware_threads(); }

}  // namespace

Ensemble::Ensemble(EnsembleOptions opts)
    : opts_(std::move(opts)), pool_(resolve_workers(opts_.workers)) {
  OPV_REQUIRE(opts_.batch_steps >= 1, "Ensemble: batch_steps must be >= 1");
  OPV_REQUIRE(opts_.health.retry.max_attempts >= 0, "Ensemble: negative max_attempts");
}

Ensemble::~Ensemble() = default;

std::string Ensemble::scope_of(int id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/i%03d", id);
  return opts_.name + buf;
}

int Ensemble::add_instance(const InstanceFactory& factory) {
  const int id = size();
  add_instances(1, factory);
  return id;
}

void Ensemble::add_instances(int n, const InstanceFactory& factory) {
  OPV_REQUIRE(n >= 0, "Ensemble '" << opts_.name << "': negative instance count");
  // Build every instance BEFORE adopting any: a factory that throws midway
  // must leave the ensemble exactly as it was (no partially-added tail that
  // later runs would step with surprise ids).
  std::vector<Slot> built;
  built.reserve(static_cast<std::size_t>(n));
  const int base = size();
  for (int i = 0; i < n; ++i) {
    const int id = base + i;
    // Construct under the instance's scope: a factory that runs loops
    // during setup (initial-condition kernels) binds their stats slots to
    // the scoped rows, exactly as the stepping loops will.
    StatsScope scope(scope_of(id));
    Slot s;
    s.inst = factory(id);
    OPV_REQUIRE(s.inst != nullptr,
                "Ensemble '" << opts_.name << "': factory returned null for instance " << id);
    s.chk_inst = dynamic_cast<Checkpointable*>(s.inst.get());
    built.push_back(std::move(s));
  }
  for (auto& s : built) slots_.push_back(std::move(s));
}

Instance& Ensemble::instance(int id) {
  OPV_REQUIRE(id >= 0 && id < size(), "Ensemble '" << opts_.name << "': no instance " << id);
  return *slots_[static_cast<std::size_t>(id)].inst;
}

const Instance& Ensemble::instance(int id) const {
  OPV_REQUIRE(id >= 0 && id < size(), "Ensemble '" << opts_.name << "': no instance " << id);
  return *slots_[static_cast<std::size_t>(id)].inst;
}

const std::string& Ensemble::error_of(int id) const {
  OPV_REQUIRE(id >= 0 && id < size(), "Ensemble '" << opts_.name << "': no instance " << id);
  return slots_[static_cast<std::size_t>(id)].error;
}

std::int64_t Ensemble::steps_done(int id) const {
  OPV_REQUIRE(id >= 0 && id < size(), "Ensemble '" << opts_.name << "': no instance " << id);
  return slots_[static_cast<std::size_t>(id)].done_total;
}

EnsembleReport Ensemble::run(std::int64_t steps) {
  OPV_REQUIRE(steps >= 0, "Ensemble '" << opts_.name << "': negative step count");
  for (auto& s : slots_) s.remaining = s.error.empty() ? steps : 0;
  return execute();
}

EnsembleReport Ensemble::run_to(std::int64_t target) {
  OPV_REQUIRE(target >= 0, "Ensemble '" << opts_.name << "': negative step target");
  for (auto& s : slots_)
    s.remaining = s.error.empty() ? std::max<std::int64_t>(0, target - s.done_total) : 0;
  return execute();
}

EnsembleCheckpoint Ensemble::save(std::int64_t target_steps) {
  EnsembleCheckpoint out;
  out.target_steps = target_steps;
  out.instances.reserve(slots_.size());
  for (int id = 0; id < size(); ++id) {
    Slot& s = slots_[static_cast<std::size_t>(id)];
    EnsembleCheckpoint::InstanceState st;
    st.id = id;
    st.steps_done = s.done_total;
    st.error = s.error;
    if (s.error.empty()) {
      OPV_REQUIRE(s.chk_inst != nullptr, "Ensemble '" << opts_.name << "': instance " << id
                                                      << " is not Checkpointable; cannot save");
      st.state = s.chk_inst->checkpoint();
    }
    out.instances.push_back(std::move(st));
  }
  return out;
}

void Ensemble::restore(const EnsembleCheckpoint& chk) {
  for (const auto& st : chk.instances) {
    OPV_REQUIRE(st.id >= 0 && st.id < size(),
                "Ensemble '" << opts_.name << "': checkpoint names instance " << st.id
                             << " but only " << size() << " are declared");
    Slot& s = slots_[static_cast<std::size_t>(st.id)];
    s.error = st.error;
    s.done_total = st.steps_done;
    s.has_chk = false;  // baseline re-taken at the next run window
    if (st.error.empty()) {
      OPV_REQUIRE(s.chk_inst != nullptr, "Ensemble '" << opts_.name << "': instance " << st.id
                                                      << " is not Checkpointable; cannot restore");
      s.chk_inst->restore(st.state);
    }
  }
}

void Ensemble::take_checkpoint(Slot& s, InstanceReport& ir) {
  s.last_chk = s.chk_inst->checkpoint();
  s.has_chk = true;
  s.chk_step = s.done_total;
  s.chk_window = run_windows_;
  ++ir.checkpoints;
}

EnsembleReport Ensemble::execute() {
  ++run_windows_;
  EnsembleReport rep;
  rep.workers = pool_.size();
  rep.instances.resize(static_cast<std::size_t>(size()));
  for (int id = 0; id < size(); ++id) {
    InstanceReport& ir = rep.instances[static_cast<std::size_t>(id)];
    ir.id = id;
    ir.scope = scope_of(id);
    ir.error = slots_[static_cast<std::size_t>(id)].error;
  }

  // Seed the queue with every live instance. Ids are owned exclusively
  // between acquire() and release(), so per-instance step order is the
  // program order regardless of which workers execute the batches.
  WorkQueue queue;
  for (int id = 0; id < size(); ++id)
    if (slots_[static_cast<std::size_t>(id)].remaining > 0) queue.push(id);

  const auto plan_before = PlanCache::instance().counters();
  struct WorkerTally {
    double busy = 0.0, chk = 0.0, backoff = 0.0;
  };
  std::vector<WorkerTally> tally(static_cast<std::size_t>(pool_.size()));
  WallTimer wall;

  pool_.run([&](int worker) {
    WorkerTally& wt = tally[static_cast<std::size_t>(worker)];
    while (const std::optional<int> got = queue.acquire()) {
      const int id = *got;
      Slot& s = slots_[static_cast<std::size_t>(id)];
      InstanceReport& ir = rep.instances[static_cast<std::size_t>(id)];
      const HealthPolicy& hp = opts_.health;
      const bool recoverable = hp.active() && s.chk_inst != nullptr;

      // Stand off AFTER releasing ownership would let another worker grab
      // the id with no backoff at all; sleeping here (ownership held, the
      // id re-entered via the urgent lane) is what actually rate-limits a
      // crash-looping instance.
      if (s.pending_backoff > 0.0) {
        WallTimer bt;
        std::this_thread::sleep_for(std::chrono::duration<double>(s.pending_backoff));
        wt.backoff += bt.seconds();
        s.pending_backoff = 0.0;
      }

      std::string failure;
      bool requeue = false, front = false;
      WallTimer t;
      {
        // Popped however the batch exits, so a throwing step never leaks
        // its scope onto the next instance's rows.
        StatsScope scope(ir.scope);
        try {
          // Baseline checkpoint: one per run window, so a failure before the
          // first cadence checkpoint still has a restore point, and rewinds
          // never cross into a previous window's report.
          if (recoverable && (!s.has_chk || s.chk_window != run_windows_)) {
            WallTimer ct;
            take_checkpoint(s, ir);
            wt.chk += ct.seconds();
          }
          const std::int64_t batch = std::min<std::int64_t>(opts_.batch_steps, s.remaining);
          for (std::int64_t k = 0; k < batch && failure.empty(); ++k) {
            WallTimer st;
            s.inst->step();
            ++s.done_total;
            --s.remaining;
            ++ir.steps_done;  // counted per step: exact on a mid-batch throw
            if (hp.step_deadline_seconds > 0.0 && st.seconds() > hp.step_deadline_seconds) {
              failure = "step deadline exceeded (" + std::to_string(st.seconds()) + "s > " +
                        std::to_string(hp.step_deadline_seconds) + "s watchdog)";
            } else if (hp.check_every > 0 && s.done_total % hp.check_every == 0 &&
                       !s.inst->healthy()) {
              failure = "health check failed: instance state is no longer finite";
            }
          }
          if (failure.empty() && recoverable && hp.checkpoint_every > 0 &&
              s.done_total - s.chk_step >= hp.checkpoint_every) {
            WallTimer ct;
            take_checkpoint(s, ir);
            wt.chk += ct.seconds();
          }
        } catch (const std::exception& e) {
          failure = e.what();
        } catch (...) {
          failure = "non-standard exception";
        }
      }

      if (!failure.empty()) {
        if (recoverable && s.has_chk && s.attempts < hp.retry.max_attempts) {
          ++s.attempts;
          ++ir.attempts;
          bool restored = false;
          try {
            s.chk_inst->restore(s.last_chk);
            restored = true;
          } catch (const std::exception& e) {
            failure += "; restore failed: ";
            failure += e.what();
          }
          if (restored) {
            ++ir.restores;
            // Rewind the books to the restore point: the replayed steps are
            // owed again, and the report counts net progress.
            const std::int64_t replay = s.done_total - s.chk_step;
            s.remaining += replay;
            s.done_total = s.chk_step;
            ir.steps_done -= replay;
            if (hp.degrade_after > 0 && s.attempts >= hp.degrade_after) {
              s.chk_inst->degrade(s.attempts);
              ++ir.degraded;
            }
            s.pending_backoff = hp.retry.backoff_for(s.attempts);
            requeue = s.remaining > 0;
            front = true;  // retried work re-enters ahead of fresh work
          } else {
            s.error = failure;
            s.remaining = 0;
          }
        } else {
          if (recoverable && s.attempts >= hp.retry.max_attempts)
            failure += " (retired after " + std::to_string(s.attempts) + " recovery attempts)";
          s.error = failure;
          s.remaining = 0;
        }
      } else {
        requeue = s.remaining > 0;
      }
      const double dt = t.seconds();
      ir.seconds += dt;  // exclusive ownership: only this worker writes ir
      wt.busy += dt;
      queue.release(id, requeue, front);
    }
  });

  rep.seconds = wall.seconds();
  const auto plan_after = PlanCache::instance().counters();
  rep.plan_hits = static_cast<std::int64_t>(plan_after.hits - plan_before.hits);
  rep.plan_misses = static_cast<std::int64_t>(plan_after.misses - plan_before.misses);
  for (const WorkerTally& wt : tally) {
    rep.busy_seconds += wt.busy;
    rep.checkpoint_seconds += wt.chk;
    rep.backoff_seconds += wt.backoff;
  }
  for (int id = 0; id < size(); ++id) {
    Slot& s = slots_[static_cast<std::size_t>(id)];
    InstanceReport& ir = rep.instances[static_cast<std::size_t>(id)];
    ir.error = s.error;
    rep.steps += ir.steps_done;
    rep.retries += ir.attempts;
    rep.restores += ir.restores;
    rep.degraded += ir.degraded;
    rep.checkpoints += ir.checkpoints;
    if (!s.error.empty())
      ++rep.failed;
    else if (s.remaining == 0)
      ++rep.completed;
  }

  if (opts_.collect_stats) {
    if (!stats_) stats_ = &StatsRegistry::instance().ensemble_slot(opts_.name);
    EnsembleRecord delta;
    delta.seconds = rep.seconds;
    delta.runs = 1;
    delta.steps = rep.steps;
    delta.completed = rep.completed;
    delta.failed = rep.failed;
    delta.instances = size();
    delta.workers = rep.workers;
    delta.busy_seconds = rep.busy_seconds;
    delta.plan_hits = rep.plan_hits;
    delta.plan_misses = rep.plan_misses;
    delta.retries = rep.retries;
    delta.restores = rep.restores;
    delta.degraded = rep.degraded;
    delta.checkpoints = rep.checkpoints;
    delta.checkpoint_seconds = rep.checkpoint_seconds;
    delta.backoff_seconds = rep.backoff_seconds;
    StatsRegistry::instance().record_ensemble(*stats_, delta);
  }
  return rep;
}

}  // namespace opv::serve
