#include "analysis/global_state.hpp"

#include "app/state.hpp"
#include "common/assert.hpp"

namespace synergy {

ProcessFacts facts_from_record(const CheckpointRecord& record) {
  ProcessFacts facts;
  facts.id = record.owner;
  facts.state_time = record.state_time;
  facts.unacked = record.unacked;

  // The record's dirty_bit is the *contamination flag* the checkpointing
  // layer consulted (pseudo_dirty_bit for P1act under the modified
  // protocol): exactly the right notion for recovery-line analysis.
  facts.dirty = record.dirty_bit;
  facts.views = record.views;

  ApplicationState app;
  app.restore(record.app_state);
  facts.app_tainted = app.tainted();
  return facts;
}

ProcessFacts facts_from_engine(const MdcdEngine& engine,
                               TimePoint state_time) {
  ProcessFacts facts = facts_from_record(engine.make_record(CkptKind::kType1));
  facts.state_time = state_time;
  return facts;
}

GlobalState global_state_from_records(
    const std::vector<CheckpointRecord>& records) {
  GlobalState state;
  state.processes.reserve(records.size());
  for (const auto& rec : records) {
    state.processes.push_back(facts_from_record(rec));
  }
  return state;
}

}  // namespace synergy
