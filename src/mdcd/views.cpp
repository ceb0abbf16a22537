#include "mdcd/views.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

void ViewLog::add(MsgView view) {
  const auto pos = static_cast<std::uint32_t>(views_.size());
  if (view.suspect) suspects_.push_back(pos);
  views_.push_back(view);
  upgraded_at_.push_back(0);

  auto it = std::lower_bound(
      peers_.begin(), peers_.end(), view.peer,
      [](const PeerIndex& p, ProcessId peer) { return p.peer < peer; });
  if (it == peers_.end() || it->peer != view.peer) {
    it = peers_.insert(it, PeerIndex{view.peer, {}});
  }
  std::vector<std::uint32_t>& run = it->by_seq;
  // Receipts can arrive out of seq order: land after every entry whose seq
  // is <= this one, so equal seqs stay in log order.
  auto at = run.end();
  if (!run.empty() && views_[run.back()].transport_seq > view.transport_seq) {
    at = std::upper_bound(run.begin(), run.end(), view.transport_seq,
                          [this](std::uint64_t seq, std::uint32_t i) {
                            return seq < views_[i].transport_seq;
                          });
  }
  run.insert(at, pos);
}

const ViewLog::PeerIndex* ViewLog::peer(ProcessId peer) const {
  const auto it = std::lower_bound(
      peers_.begin(), peers_.end(), peer,
      [](const PeerIndex& p, ProcessId id) { return p.peer < id; });
  return it != peers_.end() && it->peer == peer ? &*it : nullptr;
}

template <typename Covered>
std::size_t ViewLog::upgrade(std::uint64_t epoch, Covered covered) {
  std::size_t kept = 0;
  for (const std::uint32_t i : suspects_) {
    MsgView& v = views_[i];
    if (covered(v)) {
      v.suspect = false;
      upgraded_at_[i] = epoch;
    } else {
      suspects_[kept++] = i;
    }
  }
  const std::size_t changed = suspects_.size() - kept;
  suspects_.resize(kept);
  return changed;
}

std::size_t ViewLog::validate_all(std::uint64_t epoch) {
  return upgrade(epoch, [](const MsgView&) { return true; });
}

std::size_t ViewLog::validate_covered(MsgSeq watermark, std::uint64_t epoch) {
  return upgrade(epoch, [watermark](const MsgView& v) {
    return v.contam_sn <= watermark;
  });
}

ViewLog ViewLog::prefix_at(std::size_t len, std::uint64_t epoch) const {
  SYNERGY_EXPECTS(len <= views_.size());
  ViewLog out;
  out.views_.assign(views_.begin(), views_.begin() + len);
  out.upgraded_at_.assign(len, 0);  // upgrades up to `epoch` baked in
  for (std::size_t i = 0; i < len; ++i) {
    if (!suspect_at(i, epoch)) continue;
    out.views_[i].suspect = true;
    out.suspects_.push_back(static_cast<std::uint32_t>(i));
  }
  for (const PeerIndex& p : peers_) {
    PeerIndex kept{p.peer, {}};
    for (const std::uint32_t i : p.by_seq) {
      if (i < len) kept.by_seq.push_back(i);
    }
    if (!kept.by_seq.empty()) out.peers_.push_back(std::move(kept));
  }
  return out;
}

void ViewHistory::validate_all() {
  ++epoch_;
  sent_.validate_all(epoch_);
  recv_.validate_all(epoch_);
}

void ViewHistory::validate_covered(MsgSeq watermark) {
  ++epoch_;
  sent_.validate_covered(watermark, epoch_);
  recv_.validate_covered(watermark, epoch_);
}

ViewMark ViewHistory::mark() const {
  return ViewMark{static_cast<std::uint32_t>(sent_.size()),
                  static_cast<std::uint32_t>(recv_.size()), epoch_};
}

ViewLog ViewHistory::sent_at(const ViewMark& mark) const {
  return sent_.prefix_at(mark.sent_len, mark.epoch);
}

ViewLog ViewHistory::recv_at(const ViewMark& mark) const {
  return recv_.prefix_at(mark.recv_len, mark.epoch);
}

std::shared_ptr<ViewHistory> ViewHistory::fork(const ViewMark& mark) const {
  auto copy = std::make_shared<ViewHistory>();
  copy->sent_ = sent_at(mark);
  copy->recv_ = recv_at(mark);
  copy->epoch_ = mark.epoch;
  return copy;
}

}  // namespace synergy
