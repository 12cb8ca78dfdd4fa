"""Server process of the ``http-live-mix`` workload.

    python3 perfbench/server.py

Builds the ``nethept`` stand-in index, serves it through ``AioGateway``
over ``ReliabilityService(live=True)`` on an ephemeral local port, and
prints one JSON ``ready`` line.  It then answers one JSON line per
command read from standard input:

* ``mark``: process CPU clock;
* ``restart`` / ``restart_traced``: stop the gateway and its service,
  build the index again and serve it on a new port (traced: with the
  layer wrappers in place during the build);
* ``trace_on`` / ``trace_off``: install the layer wrappers; remove them
  and return the spans;
* ``peak_rss``: peak resident memory so far;
* ``stop``.  End of input also stops it.

One process serves every pass of a run.  A fresh process per pass made
each pass's speed depend on how fast the host backed the process's new
memory: the same index build took 0.27 to 0.51 s in fresh processes and
0.26 to 0.29 s when repeated in one.
"""

from __future__ import annotations

import gc
import json
import sys
import time

import common
import tracing

NUM_NODES = 1500
#: Service workers: one, like the client's connection, as client and
#: server share one CPU.
WORKERS = 1


def make_graph():
    from repro.datasets import load_dataset

    return load_dataset("nethept", n=NUM_NODES, seed=common.GRAPH_SEED)


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(rec=None):
    """Build the index and serve it; returns the gateway and its set-up
    times.  A recorder gets the build's spans."""
    from repro.service import ReliabilityService
    from repro.service.aio_gateway import AioGateway

    if rec is not None:
        tracing.install_engine(rec)
    try:
        engine, build_s = common.build_engine(make_graph, rec)
    finally:
        if rec is not None:
            rec.uninstall()
    start = time.perf_counter()
    service = ReliabilityService(engine, workers=WORKERS, live=True)
    gateway = AioGateway(service, host="127.0.0.1", port=0).start()
    return gateway, {
        "port": gateway.address[1],
        "build_s": build_s,
        "service_start_s": time.perf_counter() - start,
    }


def main() -> int:
    try:
        common.import_program()
    except (common.CheckoutError, ImportError) as error:
        print(f"perfbench server: {error}", file=sys.stderr)
        return 2

    rec = None
    setup_spans = []
    gateway, info = serve()
    reply(dict(info, ready=True))
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                reply({"cpu_s": time.process_time()})
            elif command in ("restart", "restart_traced"):
                gateway.stop()
                gateway = None
                gc.collect()
                if command == "restart_traced":
                    rec = tracing.Recorder()
                gateway, info = serve(rec)
                reply(info)
            elif command == "trace_on" and rec is not None:
                setup_spans = rec.export()
                rec.spans.clear()
                rec.counts.clear()
                tracing.install_engine(rec)
                tracing.install_service(rec)
                reply({"tracing": True})
            elif command == "trace_off" and rec is not None:
                rec.uninstall()
                reply({
                    "spans": rec.export(),
                    "counts": dict(rec.counts),
                    "setup_spans": setup_spans,
                })
            elif command == "peak_rss":
                reply({"peak_rss_mb": common.peak_rss_mb()})
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        if gateway is not None:
            gateway.stop()
        reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
