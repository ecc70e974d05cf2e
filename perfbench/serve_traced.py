"""Run ``python -m repro serve`` with per-layer timers installed.

Usage: ``python perfbench/serve_traced.py OUT.json [repro serve args...]``

The server runs exactly as ``python -m repro serve`` would.  The layer
totals so far are written to OUT.json whenever a file OUT.json.snap
appears (the file is then removed, which tells the benchmark the snapshot
is complete), and once more when the server exits.
"""

import os
import runpy
import sys
import threading
import time

from layers import LayerTimer, install_serving


def _answer_snapshots(timer: LayerTimer, out: str) -> None:
    trigger = out + ".snap"
    while True:
        if os.path.exists(trigger):
            timer.write(out + ".tmp")
            os.replace(out + ".tmp", out)
            os.remove(trigger)
        time.sleep(0.01)


def main() -> None:
    out, serve_args = sys.argv[1], sys.argv[2:]
    timer = LayerTimer()
    install_serving(timer)
    threading.Thread(target=_answer_snapshots, args=(timer, out),
                     name="layer-snapshots", daemon=True).start()
    sys.argv = ["repro", "serve", *serve_args]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        timer.write(out)


if __name__ == "__main__":
    main()
