"""Start ``scrl`` as its command line does, recording when set-up ends.

Usage: ``python3 launch.py <probe.json> <trace 0|1> <scrl arguments...>``

The process runs ``scrl.cli.main`` on the given arguments.  It records
the monotonic clock when ``scrl.cli.build_bundle`` first returns, and,
with tracing on, the spans of every traced layer function.  Both go to
``probe.json`` when ``main`` returns, so nothing is written while the
program is being measured.
"""

import json
import sys
import time


def main() -> int:
    probe_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import scrl.cli as cli

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    marks = []
    build = cli.build_bundle

    def build_bundle(cfg):
        bundle = build(cfg)
        marks.append(time.monotonic())
        return bundle

    cli.build_bundle = build_bundle
    code = cli.main(argv)
    probe = {"bundle_done": marks[0] if marks else None}
    if tracer is not None:
        probe["trace"] = tracer.dump()
    with open(probe_path, "w") as fh:
        json.dump(probe, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
