"""One fresh-process set-up of a workload, timed by the benchmark from outside.

Usage: python3 setup_probe.py SRC_DIR SPEC_JSON CACHE_DIR

Imports mlmnet from SRC_DIR, builds the residual system and the error
reference (for the 2D Helmholtz problems the finite-difference field,
solved into CACHE_DIR, which the caller leaves empty), then prints
`ready` and exits.
"""

import json
import sys


def main(src, spec, cache_dir):
    sys.path.insert(0, src)
    from mlmnet import bench

    campaign = bench.Campaign(name="setup", solvers=("lm",), **json.loads(spec))
    system = bench.build_system(campaign)
    bench.reference_for(campaign, system, cache_dir=cache_dir)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:4])
