"""One benchmark operation in a fresh interpreter.

    python3 bench/child.py SPEC.json

SPEC holds ``argv`` (respsim CLI arguments, or null for an import-only
set-up probe), ``src`` (the checkout's package directory), ``op`` (the
op id), ``trace`` (wrap the package's public functions in spans) and
``result`` (where to write this process's record).  The parent measures
set-up as the time from spawning this process to ``t_ready`` below;
``wall_s`` is one ``respsim.cli.main(argv)`` call.
"""

import json
import os
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import respsim.cli
    where = os.path.dirname(os.path.abspath(respsim.__file__))
    if os.path.dirname(where) != os.path.abspath(spec["src"]):
        print(f"respsim imported from {where}, not from {spec['src']}",
              file=sys.stderr)
        return 90
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer(spec["op"])
        tracer.install()
    t_ready = time.monotonic()
    record = {"t_ready": t_ready}
    if spec["argv"] is not None:
        t0 = time.perf_counter()
        rc = respsim.cli.main(spec["argv"])
        record["wall_s"] = time.perf_counter() - t0
        record["rc"] = rc
    np, sp = sys.modules["numpy"], sys.modules["scipy"]
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": np.__version__, "scipy": sp.__version__}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["untraced"] = tracer.missing
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)
    return record.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
