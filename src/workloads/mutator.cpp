#include "workloads/mutator.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "heap/object_model.hpp"

namespace hwgc {

ShadowMutator::ShadowMutator(Config cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.target_live == 0) {
    throw std::invalid_argument(
        "ShadowMutator: target_live must be >= 1 (a target of 0 can never "
        "hold a rooted object)");
  }
  if (cfg_.max_pi > kMaxPi || cfg_.max_delta > kMaxDelta) {
    throw std::invalid_argument(
        "ShadowMutator: max_pi/max_delta (" + std::to_string(cfg_.max_pi) +
        "/" + std::to_string(cfg_.max_delta) +
        ") exceed the header encoding limits (" + std::to_string(kMaxPi) +
        "/" + std::to_string(kMaxDelta) + ")");
  }
}

ShadowMutator::Image ShadowMutator::save_image() const {
  Image img;
  img.rng = rng_.state();
  img.objs.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    ShadowObj& o = img.objs[i];
    o.ref = s.ref;
    o.rooted = s.rooted;
    o.pi = s.pi;
    o.delta = s.delta;
    o.children.assign(children(i), children(i) + s.pi);
    o.data.assign(data(i), data(i) + s.delta);
  }
  img.live = live_;
  img.allocations = allocations_;
  return img;
}

void ShadowMutator::restore_image(const Image& img) {
  for (const ShadowObj& o : img.objs) {
    if (o.pi > cfg_.max_pi || o.delta > cfg_.max_delta) {
      throw std::invalid_argument(
          "ShadowMutator::restore_image: object shape " +
          std::to_string(o.pi) + "/" + std::to_string(o.delta) +
          " exceeds this mutator's max_pi/max_delta");
    }
  }
  rng_.set_state(img.rng);
  const std::size_t n = img.objs.size();
  slots_.assign(n, Slot{});
  children_.assign(n * cfg_.max_pi, -1);
  data_.assign(n * cfg_.max_delta, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ShadowObj& o = img.objs[i];
    slots_[i] = {o.ref, o.pi, o.delta, 0, o.rooted};
    std::transform(o.children.begin(), o.children.end(), children(i),
                   [](std::int64_t c) { return static_cast<std::int32_t>(c); });
    std::copy(o.data.begin(), o.data.end(), data(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots_[i].rooted) continue;
    for (Word f = 0; f < slots_[i].pi; ++f) {
      if (children(i)[f] >= 0) ++slots_[children(i)[f]].rooted_in;
    }
  }
  live_ = img.live;
  unrooted_.clear();
  std::copy_if(live_.begin(), live_.end(), std::back_inserter(unrooted_),
               [this](std::size_t i) { return !slots_[i].rooted; });
  rooted_ = live_.size() - unrooted_.size();
  // The image does not say whether live was exact when it was taken.
  live_stale_ = true;
  allocations_ = img.allocations;
}

std::size_t ShadowMutator::pick_live() {
  return live_[rng_.below(live_.size())];
}

void ShadowMutator::step(Runtime& rt) {
  // A max-shape object that cannot fit an *empty* semispace would survive
  // any number of collections and still throw from alloc() — reject the
  // configuration the first time the target heap is known instead.
  const Word worst = object_words(cfg_.max_pi, cfg_.max_delta);
  if (worst > rt.heap().capacity_words()) {
    throw std::invalid_argument(
        "ShadowMutator: a max-shape object needs " + std::to_string(worst) +
        " words (header + max_pi=" + std::to_string(cfg_.max_pi) +
        " + max_delta=" + std::to_string(cfg_.max_delta) +
        ") but the semispace holds only " +
        std::to_string(rt.heap().capacity_words()) +
        " — this churn can never fit");
  }
  const double r = rng_.uniform01();

  // Allocation pressure grows when below target; release pressure above.
  if (live_.empty() || (r < 0.45 && rooted_ < cfg_.target_live * 2)) {
    const Word pi = static_cast<Word>(rng_.below(cfg_.max_pi + 1));
    const Word delta = static_cast<Word>(rng_.below(cfg_.max_delta + 1));
    const std::size_t slot = slots_.size();
    if (slot > static_cast<std::size_t>(
                   std::numeric_limits<std::int32_t>::max())) {
      throw std::length_error("ShadowMutator: more than 2^31 allocations");
    }
    const Runtime::Ref ref = rt.alloc(pi, delta);
    slots_.push_back({ref, pi, delta, 0, true});
    children_.resize(children_.size() + cfg_.max_pi, -1);
    data_.resize(data_.size() + cfg_.max_delta);
    Word* words = data(slot);
    for (Word j = 0; j < delta; ++j) {
      words[j] = static_cast<Word>(rng_());
      rt.set_data(ref, j, words[j]);
    }
    live_.push_back(slot);
    ++rooted_;
    ++allocations_;
    return;
  }
  if (r < 0.65) {  // link two rooted objects
    const std::size_t pi_idx = pick_live();
    const Slot& parent = slots_[pi_idx];
    if (!parent.rooted || parent.pi == 0) return;
    const std::size_t ci = pick_live();
    if (!slots_[ci].rooted) return;
    const Word field = static_cast<Word>(rng_.below(parent.pi));
    rt.set_ptr(parent.ref, field, slots_[ci].ref);
    const std::int32_t old =
        std::exchange(children(pi_idx)[field], static_cast<std::int32_t>(ci));
    ++slots_[ci].rooted_in;
    if (old >= 0) drop_rooted_edge(old);
    return;
  }
  if (r < 0.75) {  // unlink a field
    const std::size_t idx = pick_live();
    const Slot& parent = slots_[idx];
    if (!parent.rooted || parent.pi == 0) return;
    const Word field = static_cast<Word>(rng_.below(parent.pi));
    rt.set_ptr_null(parent.ref, field);
    const std::int32_t old = std::exchange(children(idx)[field], -1);
    if (old >= 0) drop_rooted_edge(old);
    return;
  }
  if (r < 0.9) {  // overwrite a data word
    const std::size_t idx = pick_live();
    const Slot& obj = slots_[idx];
    if (!obj.rooted || obj.delta == 0) return;
    const Word j = static_cast<Word>(rng_.below(obj.delta));
    Word& word = data(idx)[j];
    word = static_cast<Word>(rng_());
    rt.set_data(obj.ref, j, word);
    return;
  }
  // Release a root: the object (and whatever only it reaches) becomes
  // garbage unless still linked from another reachable object.
  if (rooted_ > cfg_.target_live / 2) {
    const std::size_t idx = pick_live();
    Slot& obj = slots_[idx];
    if (!obj.rooted) return;
    rt.release(obj.ref);
    obj.rooted = false;
    obj.ref = Runtime::Ref();
    --rooted_;
    unrooted_.insert(
        std::upper_bound(unrooted_.begin(), unrooted_.end(), idx), idx);
    // Its out-edges no longer come from a rooted object — self-edges too,
    // so the check on the object itself sees only other rooted parents.
    for (Word f = 0; f < obj.pi; ++f) {
      if (children(idx)[f] >= 0) drop_rooted_edge(children(idx)[f]);
    }
    if (obj.rooted_in == 0) live_stale_ = true;
    if (live_stale_) mark_live();
  }
}

void ShadowMutator::drop_rooted_edge(std::int32_t child) {
  Slot& s = slots_[static_cast<std::size_t>(child)];
  --s.rooted_in;
  if (!s.rooted && s.rooted_in == 0) live_stale_ = true;
}

void ShadowMutator::mark_live() {
  // Rooted slots are live. An unrooted slot is live iff an unrooted-only
  // path reaches it from an unrooted slot with rooted_in > 0: the last
  // rooted object on any path from a root links straight to such a slot.
  // Every unrooted slot on such a path is in unrooted_, since live_ is a
  // superset of the reachable set.
  if (++epoch_ == 0) {  // wrapped: clear stamps left from 2^32 marks ago
    std::fill(marks_.begin(), marks_.end(), 0);
    epoch_ = 1;
  }
  marks_.resize(slots_.size(), 0);
  mark_stack_.clear();
  for (std::size_t i : unrooted_) {
    if (slots_[i].rooted_in > 0) {
      marks_[i] = epoch_;
      mark_stack_.push_back(i);
    }
  }
  while (!mark_stack_.empty()) {
    const std::size_t i = mark_stack_.back();
    mark_stack_.pop_back();
    const std::int32_t* ch = children(i);
    for (Word f = 0; f < slots_[i].pi; ++f) {
      if (ch[f] < 0) continue;
      const auto c = static_cast<std::size_t>(ch[f]);
      if (!slots_[c].rooted && marks_[c] != epoch_) {
        marks_[c] = epoch_;
        mark_stack_.push_back(c);
      }
    }
  }
  // Split unrooted_ into survivors and the dead (the now empty stack holds
  // the dead, ascending), then drop the dead from live_ in one merge pass.
  std::vector<std::size_t>& dead = mark_stack_;
  std::size_t kept = 0;
  for (std::size_t i : unrooted_) {
    if (marks_[i] == epoch_) {
      unrooted_[kept++] = i;
    } else {
      dead.push_back(i);
    }
  }
  unrooted_.resize(kept);
  if (!dead.empty()) {
    std::size_t out = 0;
    std::size_t d = 0;
    for (std::size_t i : live_) {
      if (d < dead.size() && dead[d] == i) {
        ++d;
      } else {
        live_[out++] = i;
      }
    }
    live_.resize(out);
  }
  live_stale_ = false;
}

std::size_t ShadowMutator::validate(Runtime& rt) const {
  std::size_t mismatches = 0;
  // shadow slot -> heap address as discovered during the walk.
  constexpr Addr kUnseen = ~Addr{0};
  std::vector<Addr> seen(slots_.size(), kUnseen);

  struct Visit {
    std::size_t shadow;
    Runtime::Ref ref;
    bool owned;  // temp root to release after the walk
  };
  std::vector<Visit> stack;
  std::vector<Runtime::Ref> temps;

  for (std::size_t i : live_) {
    if (slots_[i].rooted) stack.push_back({i, slots_[i].ref, false});
  }
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    const Slot& s = slots_[v.shadow];
    const Addr addr = rt.address_of(v.ref);
    if (seen[v.shadow] != kUnseen) {
      if (seen[v.shadow] != addr) ++mismatches;  // aliasing broken
      continue;
    }
    seen[v.shadow] = addr;
    if (rt.pi(v.ref) != s.pi || rt.delta(v.ref) != s.delta) {
      ++mismatches;
      continue;
    }
    const Word* words = data(v.shadow);
    for (Word j = 0; j < s.delta; ++j) {
      if (rt.get_data(v.ref, j) != words[j]) ++mismatches;
    }
    const std::int32_t* ch = children(v.shadow);
    for (Word f = 0; f < s.pi; ++f) {
      Runtime::Ref child = rt.load_ptr(v.ref, f);
      if (ch[f] < 0) {
        if (!child.is_null()) {
          ++mismatches;
          rt.release(child);
        }
        continue;
      }
      if (child.is_null()) {
        ++mismatches;
        continue;
      }
      temps.push_back(child);
      stack.push_back({static_cast<std::size_t>(ch[f]), child, true});
    }
  }
  for (Runtime::Ref r : temps) rt.release(r);
  return mismatches;
}

std::uint64_t ShadowMutator::data_digest(std::span<const Word> data) {
  std::uint64_t h = 14695981039346656037ull;
  for (Word w : data) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ (w & 0xffu)) * 1099511628211ull;
      w >>= 8;
    }
  }
  return h;
}

std::size_t ShadowMutator::probe(Runtime& rt, std::size_t* mismatches) {
  if (live_.empty()) return 0;
  // A released-but-reachable shadow object has no Ref to read through;
  // retry a few draws before giving up on this probe.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::size_t idx = pick_live();
    const Slot& obj = slots_[idx];
    if (!obj.rooted) continue;
    if (rt.pi(obj.ref) != obj.pi || rt.delta(obj.ref) != obj.delta) {
      if (mismatches != nullptr) ++*mismatches;
      return 1;
    }
    // One observable read event per probe: read_probe digests the whole
    // data area through the runtime's trace seam, so recorded traces carry
    // exactly the reads the service layer issued. Only on divergence does
    // the probe re-read word-by-word to count exact mismatches.
    const ReadProbe read = rt.read_probe(obj.ref);
    const Word* words = data(idx);
    if (read.digest != data_digest({words, obj.delta})) {
      for (Word j = 0; j < obj.delta; ++j) {
        if (rt.get_data(obj.ref, j) != words[j] && mismatches != nullptr) {
          ++*mismatches;
        }
      }
    }
    return static_cast<std::size_t>(obj.delta);
  }
  return 0;
}

}  // namespace hwgc
