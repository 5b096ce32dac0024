"""Start the quadproto CLI from the checkout's ``src`` tree.

    python3 bench/launch.py <quadproto arguments...>

behaves like ``quadproto <arguments...>``.  When the environment names a
file in ``QUADPROTO_BENCH_TRACE``, the calls into each layer are traced
(see ``tracer.py``) and the counters are written to that file as JSON on
exit.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _main() -> int:
    trace_path = os.environ.get("QUADPROTO_BENCH_TRACE")
    if not trace_path:
        from quadproto.cli import main
        return main(sys.argv[1:])
    from tracer import Tracer  # bench/ is sys.path[0]
    tracer = Tracer()
    tracer.install()
    import quadproto.cli
    try:
        return quadproto.cli.main(sys.argv[1:])
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(_main())
