// Quickstart: the 5-minute tour of the public API.
//
// Builds a small object graph through the managed Runtime, lets the
// allocator run the heap full so the GC coprocessor steps in
// automatically, then forces one more collection and prints its
// statistics — the same counters the paper's Tables I and II are built
// from.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "cli/flags.hpp"
#include "runtime/runtime.hpp"
#include "sim/counters.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;
  cli::Parser("quickstart", "(no options)").parse(argc, argv);

  // A heap of 64k words per semispace, collected by an 8-core coprocessor.
  SimConfig cfg;
  cfg.coprocessor.num_cores = 8;
  Runtime rt(64 * 1024, cfg);

  // Build a ring of buffers, each with a payload object.
  std::printf("building a ring of 1000 buffers...\n");
  Runtime::Ref first = rt.alloc(2, 4);  // fields: [next, payload]
  Runtime::Ref prev = first;
  for (int i = 1; i < 1000; ++i) {
    Runtime::Ref node = rt.alloc(2, 4);
    Runtime::Ref payload = rt.alloc(0, 8);
    rt.set_data(payload, 0, static_cast<Word>(i));
    rt.set_ptr(node, 1, payload);
    rt.set_ptr(prev, 0, node);
    // Only the ring keeps nodes alive; drop our temporary handles.
    rt.release(payload);
    if (i > 1) rt.release(prev);
    prev = node;
  }
  rt.set_ptr(prev, 0, first);  // close the ring
  rt.release(prev);

  // Churn: allocate short-lived garbage until the collector has to run.
  std::printf("allocating garbage until the semispace fills...\n");
  while (rt.gc_history().empty()) {
    rt.release(rt.alloc(1, 16));
  }
  std::printf("the coprocessor collected automatically after %llu allocations\n",
              static_cast<unsigned long long>(rt.heap().objects_allocated()));

  // Force one more cycle and inspect it.
  const GcCycleStats& s = rt.collect();
  std::printf("\ncollection cycle statistics (8 cores):\n");
  std::printf("  total clock cycles : %llu\n",
              static_cast<unsigned long long>(s.total_cycles));
  std::printf("  objects copied     : %llu\n",
              static_cast<unsigned long long>(s.objects_copied));
  std::printf("  words copied       : %llu\n",
              static_cast<unsigned long long>(s.words_copied));
  std::printf("  memory requests    : %llu\n",
              static_cast<unsigned long long>(s.mem_requests));
  std::printf("  worklist empty     : %.2f%% of cycles\n",
              100.0 * s.worklist_empty_fraction());
  for (const StallReason r :
       {StallReason::kScanLock, StallReason::kFreeLock,
        StallReason::kHeaderLock, StallReason::kBodyLoad,
        StallReason::kHeaderLoad}) {
    std::printf("  %-11s stalls : %.0f cycles/core (%.2f%%)\n",
                std::string(to_string(r)).c_str(), s.mean_stall(r),
                100.0 * s.mean_stall(r) / static_cast<double>(s.total_cycles));
  }

  // The ring survived every move: verify the payload of node 1.
  Runtime::Ref n = rt.load_ptr(first, 0);
  Runtime::Ref pay = rt.load_ptr(n, 1);
  std::printf("\nring intact after %zu collections: payload[0] = %u (expect 1)\n",
              rt.gc_history().size(), rt.get_data(pay, 0));
  return rt.get_data(pay, 0) == 1 ? 0 : 1;
}
