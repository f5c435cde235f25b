// mgrts_workerd — a shard worker daemon of the distributed batch layer
// (DESIGN.md §16).
//
// The resident daemon under the fleet's defaults: a "shard" request
// (generator options + index list, serve/shard.hpp) runs through
// dist::execute_shard and streams its rows and progress beats back to the
// coordinator, and solve/health/ping/shutdown are answered as by
// mgrts_serverd.  The main and its flags live in daemon.hpp.
#include "daemon.hpp"

int main(int argc, char** argv) {
  return mgrts::cli::daemon_main(argc, argv, "mgrts_workerd",
                                 "/tmp/mgrts_worker.sock", 2);
}
