"""Set-up probe, run as a fresh child process by run.py.

Imports configcohom, builds and validates one workload's ring and its
generator set, then prints one JSON line with its own stage timings and
exits.  The parent times the probe from spawn to that line: set-up.

    python3 perfbench/probe.py '<workload spec JSON>'
"""

import json
import sys
import time

t0 = time.perf_counter()
import configcohom  # noqa: E402
import configcohom.cli  # noqa: E402,F401
from configcohom import (build_generators, count_monomials,  # noqa: E402
                         load_ring, make_cpm, validate_ring)

t1 = time.perf_counter()
spec = json.loads(sys.argv[1])
R = make_cpm(spec["m"]) if spec["ring"] == "cpm" else load_ring(spec["path"])
t2 = time.perf_counter()
valid = validate_ring(R).valid
t3 = time.perf_counter()
G = build_generators(R)
t4 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0, "load_s": t2 - t1, "validate_s": t3 - t2,
    "build_s": t4 - t3, "valid": valid, "module": configcohom.__file__,
    "monomials": count_monomials(G, spec["k"]),
}), flush=True)
