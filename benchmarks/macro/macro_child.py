"""The server child of the macro benchmark.

``python macro_child.py <workload> <seed>`` builds the workload's
database and the real ``QueryServer`` through public APIs only, binds
an ephemeral port, announces readiness as ONE JSON line on stdout (its
own build timings included) and serves until the parent closes stdin.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time


def _exit_when_parent_goes() -> None:
    # The parent holds the write end of stdin; EOF means it closed the
    # pipe or died.  A hard exit cannot block on a connection handler
    # still waiting for its client's next line.
    sys.stdin.buffer.read()
    os._exit(0)


def main(argv) -> int:
    from macro_workloads import WORKLOADS, build_database
    from repro.service import QueryServer, QueryService, ServiceConfig

    workload = WORKLOADS[argv[1]]
    started = time.perf_counter()
    db = build_database(workload, int(argv[2]))
    built = time.perf_counter()
    server = QueryServer(QueryService(db, ServiceConfig()), port=0)
    listening = time.perf_counter()
    threading.Thread(target=_exit_when_parent_goes, daemon=True).start()
    print(
        json.dumps(
            {
                "ready": True,
                "port": server.port,
                "pid": os.getpid(),
                "build_db_s": built - started,
                "listen_s": listening - built,
            }
        ),
        flush=True,
    )
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
