#include "workloads/mutator.hpp"

#include <algorithm>
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
  // Validate everything first: the recount below indexes slots by the
  // image's children and live entries, and the flat layout copies
  // children/data at stride max_pi/max_delta.
  const std::size_t n = img.objs.size();
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("ShadowMutator::restore_image: " + what);
  };
  if (n > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    reject("more than 2^31 objects (children are int32 slots)");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ShadowObj& o = img.objs[i];
    const std::string obj = "object " + std::to_string(i);
    if (o.pi > cfg_.max_pi || o.delta > cfg_.max_delta) {
      reject(obj + " shape " + std::to_string(o.pi) + "/" +
             std::to_string(o.delta) +
             " exceeds this mutator's max_pi/max_delta");
    }
    if (o.children.size() != o.pi) {
      reject(obj + " children: " + std::to_string(o.children.size()) +
             " entries for pi " + std::to_string(o.pi));
    }
    if (o.data.size() != o.delta) {
      reject(obj + " data: " + std::to_string(o.data.size()) +
             " words for delta " + std::to_string(o.delta));
    }
    for (std::size_t f = 0; f < o.children.size(); ++f) {
      const std::int64_t c = o.children[f];
      if (c < -1 || c >= static_cast<std::int64_t>(n)) {
        reject(obj + " children[" + std::to_string(f) + "] = " +
               std::to_string(c) + " is outside [-1, " + std::to_string(n) +
               ")");
      }
    }
  }
  std::vector<char> listed(n, 0);
  for (std::size_t k = 0; k < img.live.size(); ++k) {
    const std::size_t i = img.live[k];
    if (i >= n) {
      reject("live[" + std::to_string(k) + "] = " + std::to_string(i) +
             " names no object (the image has " + std::to_string(n) + ")");
    }
    if (k > 0 && i <= img.live[k - 1]) {
      reject("live[" + std::to_string(k) + "] = object " + std::to_string(i) +
             " is not above live[" + std::to_string(k - 1) +
             "] (live must be strictly ascending)");
    }
    listed[i] = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ShadowObj& o = img.objs[i];
    if (o.rooted && !listed[i]) {
      reject("object " + std::to_string(i) + " rooted: missing from live");
    }
    if (!listed[i]) continue;
    for (std::size_t f = 0; f < o.children.size(); ++f) {
      const std::int64_t c = o.children[f];
      if (c >= 0 && !img.objs[static_cast<std::size_t>(c)].rooted &&
          !listed[static_cast<std::size_t>(c)]) {
        reject("object " + std::to_string(i) + " children[" +
               std::to_string(f) + "] = " + std::to_string(c) +
               ": an unrooted child of a listed object is missing from live");
      }
    }
  }

  rng_.set_state(img.rng);
  slots_.assign(n, Slot{});
  children_.assign(n * cfg_.max_pi, -1);
  data_.assign(n * cfg_.max_delta, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ShadowObj& o = img.objs[i];
    slots_[i] = {.ref = o.ref,
                 .delta = o.delta,
                 .pi = static_cast<std::uint16_t>(o.pi),
                 .rooted = o.rooted};
    std::transform(o.children.begin(), o.children.end(), children(i),
                   [](std::int64_t c) { return static_cast<std::int32_t>(c); });
    std::copy(o.data.begin(), o.data.end(), data(i));
  }
  live_ = img.live;
  rooted_ = 0;
  // The image does not say whether live was exact when it was taken, so
  // every listed unrooted slot is an orphan: the first mark covers them all.
  orphans_.clear();
  for (std::size_t i : live_) {
    const Slot& s = slots_[i];
    if (s.rooted) {
      ++rooted_;
    } else {
      orphans_.push_back(i);
    }
    for (Word f = 0; f < s.pi; ++f) {
      const std::int32_t c = children(i)[f];
      if (c < 0) continue;
      Slot& child = slots_[static_cast<std::size_t>(c)];
      ++(s.rooted ? child.rooted_in : child.unrooted_in);
    }
  }
  support_.assign(n, 0);
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
    slots_.push_back({.ref = ref,
                      .delta = delta,
                      .pi = static_cast<std::uint16_t>(pi),
                      .rooted = true});
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
    // Checked before the out-edges go: if a self-edge was its last rooted
    // in-edge, dropping that edge reports the orphan instead.
    if (obj.rooted_in == 0) orphans_.push_back(idx);
    // Its out-edges now come from a listed unrooted object, self-edges too.
    for (Word f = 0; f < obj.pi; ++f) {
      const std::int32_t c = children(idx)[f];
      if (c < 0) continue;
      ++slots_[static_cast<std::size_t>(c)].unrooted_in;
      drop_rooted_edge(c);
    }
    if (!orphans_.empty()) mark_live();
  }
}

void ShadowMutator::drop_rooted_edge(std::int32_t child) {
  const auto i = static_cast<std::size_t>(child);
  Slot& s = slots_[i];
  if (--s.rooted_in == 0 && !s.rooted) orphans_.push_back(i);
}

void ShadowMutator::mark_live() {
  // The region is what the orphans reach through unrooted slots. Every
  // listed unrooted slot outside it stays reachable (DESIGN.md "Shadow
  // model"), so only region slots can die. A region slot's outside support
  // is its rooted_in + unrooted_in minus the edges from region slots; it is
  // live iff a supported region slot reaches it.
  support_.resize(slots_.size(), 0);
  region_.clear();
  for (std::size_t i : orphans_) {
    if (support_[i] != 0) continue;  // repeated orphan
    support_[i] = 1 + slots_[i].rooted_in + slots_[i].unrooted_in;
    region_.push_back(i);
  }
  orphans_.clear();
  for (std::size_t k = 0; k < region_.size(); ++k) {
    const std::size_t i = region_[k];
    const std::int32_t* ch = children(i);
    for (Word f = 0; f < slots_[i].pi; ++f) {
      if (ch[f] < 0) continue;
      const auto c = static_cast<std::size_t>(ch[f]);
      if (slots_[c].rooted) continue;
      if (support_[c] == 0) {
        support_[c] = 1 + slots_[c].rooted_in + slots_[c].unrooted_in;
        region_.push_back(c);
      }
      --support_[c];  // the edge from region slot i
    }
  }
  // Mark live by clearing support_ (rooted slots and slots outside the
  // region are 0 already, so they stop the walk).
  mark_stack_.clear();
  for (std::size_t i : region_) {
    if (support_[i] > 1) {
      support_[i] = 0;
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
      if (support_[c] != 0) {
        support_[c] = 0;
        mark_stack_.push_back(c);
      }
    }
  }
  // What is still non-zero is dead: unlist it, ascending.
  std::size_t dead = 0;
  for (std::size_t k = 0; k < region_.size(); ++k) {
    const std::size_t i = region_[k];
    if (support_[i] == 0) continue;
    support_[i] = 0;
    region_[dead++] = i;
  }
  region_.resize(dead);
  if (region_.empty()) return;
  std::sort(region_.begin(), region_.end());
  for (std::size_t i : region_) {
    const std::int32_t* ch = children(i);
    for (Word f = 0; f < slots_[i].pi; ++f) {
      if (ch[f] >= 0) --slots_[static_cast<std::size_t>(ch[f])].unrooted_in;
    }
  }
  // Close each gap between dead slots with one move, from the first dead.
  auto out = std::lower_bound(live_.begin(), live_.end(), region_.front());
  auto in = out;
  for (std::size_t k = 0; k < region_.size(); ++k) {
    ++in;  // past region_[k]
    const auto next =
        k + 1 < region_.size()
            ? std::lower_bound(in, live_.end(), region_[k + 1])
            : live_.end();
    out = std::move(in, next, out);
    in = next;
  }
  live_.erase(out, live_.end());
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
