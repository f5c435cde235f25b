// mgrts_serverd — the resident schedulability solver daemon (DESIGN.md §13).
//
// Serves solve/health/ping/shutdown requests, and the fleet's shard
// requests, on an AF_UNIX socket.  The main and its flags live in
// daemon.hpp, shared with mgrts_workerd.
#include "daemon.hpp"

int main(int argc, char** argv) {
  return mgrts::cli::daemon_main(argc, argv, "mgrts_serverd",
                                 "/tmp/mgrts.sock", 4);
}
