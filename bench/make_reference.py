"""Write the stored random-oracle reference for one workload seed.

    PYTHONPATH=src python3 bench/make_reference.py [SEED]

Runs the package's oracle in-process on the benchmark's generated inputs
and stores the response with the inputs' digest.  The stored file pins the
responses of the commit that wrote it; regenerate it only when the
benchmark's inputs change, never to absorb a change in the package.
"""

import csv
import json
import os
import sys
import tempfile

import bench
from respsim.cli import main


def write(seed: int) -> str:
    out = {}
    with tempfile.TemporaryDirectory(dir=".") as work:
        for name, (argv, _, digest) in bench.random_inputs(seed, work).items():
            dest = os.path.join(work, name)
            if main(argv + ["--out", dest]) != 0:
                raise SystemExit(f"oracle run failed for {name}")
            with open(os.path.join(dest, "response.csv")) as fh:
                rows = list(csv.DictReader(fh))
            out[name] = {"digest": digest, "argv_tail": argv[4:],
                         "re": [float(r["re"]) for r in rows],
                         "im": [float(r["im"]) for r in rows]}
    path = bench._stored_path(seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return path


if __name__ == "__main__":
    print(write(int(sys.argv[1]) if len(sys.argv) > 1 else bench.DEFAULT_SEED))
