#include "mdcd/views.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

void ViewLog::add(MsgView view) {
  const auto pos = static_cast<std::uint32_t>(views_.size());
  if (view.suspect) suspects_.push_back(pos);
  views_.push_back(view);
  stamp_.push_back(0);
  index(pos);
}

void ViewLog::add(MsgView view, const ContamVector& contam, bool covered,
                  std::uint64_t epoch) {
  const auto pos = static_cast<std::uint32_t>(views_.size());
  if (runs_.empty() || !(runs_.back().contam == contam)) {
    runs_.push_back(ContamRun{pos, contam});
  }
  if (covered) {
    // Valid from the next epoch on, and to a settled read of this one.
    view.suspect = false;
    views_.push_back(view);
    stamp_.push_back(2 * epoch + 1);
  } else {
    if (view.suspect) suspects_.push_back(pos);
    views_.push_back(view);
    stamp_.push_back(0);
  }
  index(pos);
}

void ViewLog::index(std::uint32_t pos) {
  const MsgView& view = views_[pos];
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
    if (covered(i)) {
      views_[i].suspect = false;
      stamp_[i] = 2 * epoch;
    } else {
      suspects_[kept++] = i;
    }
  }
  const std::size_t changed = suspects_.size() - kept;
  suspects_.resize(kept);
  return changed;
}

std::size_t ViewLog::validate_all(std::uint64_t epoch) {
  return upgrade(epoch, [](std::uint32_t) { return true; });
}

std::size_t ViewLog::validate_covered(MsgSeq watermark, std::uint64_t epoch) {
  return upgrade(epoch, [this, watermark](std::uint32_t i) {
    return views_[i].contam_sn <= watermark;
  });
}

std::size_t ViewLog::validate_covered(const ContamVector& validated,
                                      std::uint64_t epoch) {
  return upgrade(epoch, [this, &validated](std::uint32_t i) {
    return contam_covered(contam(i), validated);
  });
}

ViewLog ViewLog::prefix_at(std::size_t len, std::uint64_t epoch,
                           bool settled) const {
  SYNERGY_EXPECTS(len <= views_.size());
  ViewLog out;
  out.views_.assign(views_.begin(), views_.begin() + len);
  out.stamp_.assign(len, 0);  // upgrades up to `epoch` baked in
  for (std::size_t i = 0; i < len; ++i) {
    if (!suspect_at(i, epoch, settled)) {
      out.views_[i].suspect = false;
    } else if (!settled && stamp_[i] == 2 * epoch + 1) {
      out.stamp_[i] = stamp_[i];  // still appended covered in `epoch`
    } else {
      out.views_[i].suspect = true;
      out.suspects_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (const PeerIndex& p : peers_) {
    PeerIndex kept{p.peer, {}};
    for (const std::uint32_t i : p.by_seq) {
      if (i < len) kept.by_seq.push_back(i);
    }
    if (!kept.by_seq.empty()) out.peers_.push_back(std::move(kept));
  }
  for (const ContamRun& run : runs_) {
    if (run.first >= len) break;
    out.runs_.push_back(run);
  }
  return out;
}

const ViewLog::ContamRun& ViewLog::run_of(std::size_t i) const {
  const auto it = std::upper_bound(
      runs_.begin(), runs_.end(), i,
      [](std::size_t pos, const ContamRun& run) { return pos < run.first; });
  return *(it - 1);
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

void ViewHistory::validate_covered(const ContamVector& validated) {
  ++epoch_;
  sent_.validate_covered(validated, epoch_);
  recv_.validate_covered(validated, epoch_);
}

ViewMark ViewHistory::mark() const {
  return ViewMark{static_cast<std::uint32_t>(sent_.size()),
                  static_cast<std::uint32_t>(recv_.size()), epoch_};
}

ViewMark ViewHistory::settled(const ViewMark& at) const {
  return ViewMark{at.sent_len, at.recv_len, epoch_, true};
}

ViewLog ViewHistory::sent_at(const ViewMark& mark) const {
  return sent_.prefix_at(mark.sent_len, mark.epoch, mark.settled);
}

ViewLog ViewHistory::recv_at(const ViewMark& mark) const {
  return recv_.prefix_at(mark.recv_len, mark.epoch, mark.settled);
}

std::shared_ptr<ViewHistory> ViewHistory::fork(const ViewMark& mark) const {
  auto copy = std::make_shared<ViewHistory>();
  copy->sent_ = sent_at(mark);
  copy->recv_ = recv_at(mark);
  copy->epoch_ = mark.epoch;
  return copy;
}

}  // namespace synergy
