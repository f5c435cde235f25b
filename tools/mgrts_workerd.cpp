// mgrts_workerd — a shard worker daemon of the distributed batch layer
// (DESIGN.md §16).
//
// The resident daemon under the fleet's defaults: a "shard" request
// (generator options + index list, serve/shard.hpp) runs through
// dist::execute_shard and streams its rows and progress beats back to the
// coordinator, and solve/health/ping/shutdown are answered as by
// mgrts_serverd.  The main and its flags live in daemon.hpp; this file
// adds the one setting mgrts_serverd does not share, glibc's single
// malloc arena.
#include "daemon.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // One malloc arena for the whole process, set before any thread starts,
  // so a shard's lanes share freed memory instead of each pool thread
  // keeping an arena at the high-water mark of its worst solve
  // (DESIGN.md §16 has the measurements).
  mallopt(M_ARENA_MAX, 1);
#endif
  return mgrts::cli::daemon_main(argc, argv, "mgrts_workerd",
                                 "/tmp/mgrts_worker.sock", 2);
}
