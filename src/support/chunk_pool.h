// Worker threads for chunked loops (the executor's parallel pre-loop
// `foreach`, codegen/lower.h).
//
// The threads start on first use and stay until the process forks, so
// each keeps one glibc malloc arena. Threads spawned and joined per loop
// would hand their arenas back to glibc's free list; the stage threads of
// later runs pick those arenas up, and every arena grows to the heaviest
// role it ever served. On paper-w2 that raised peak RSS by 8-22% in 15 s
// runs, against none with kept threads (docs/PERFORMANCE.md).
//
// The proc backend forks its workers. Fork waits for a loop in flight to
// finish and joins the threads first, so a process never forks with a
// pool thread; parent and child start threads again on demand.
#pragma once

#include <functional>

namespace cgp::support {

/// Runs task(0) on the calling thread and task(1) .. task(n - 1) on pool
/// threads, and returns when every call has returned. `task` must not
/// throw. Loops from different threads take turns. If no thread can be
/// started, the calling thread runs the chunks that have none, in order.
void run_chunks(int n, const std::function<void(int)>& task);

}  // namespace cgp::support
