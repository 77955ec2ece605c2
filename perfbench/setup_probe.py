"""Set-up probe: one fresh interpreter doing what a workload does first.

Usage: python3 setup_probe.py CHECKOUT WORKLOAD SEED WORKDIR

Imports the package from CHECKOUT/src (``cellsim.cli`` for the CLI
workload, as every CLI invocation does; ``cellsim`` otherwise), builds
the workload's starting program state, and prints one JSON line with
the import and build times.  run.py times the whole process from the
outside; that wall time is ``setup_s``.
"""

import sys
import time

root, workload, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]

import json  # noqa: E402
import os  # noqa: E402

src = os.path.join(root, "src")
sys.path.insert(0, src)
start = time.perf_counter()
if workload == "cli-session":
    import cellsim.cli  # noqa: F401
else:
    import cellsim  # noqa: F401
imported = time.perf_counter()
if not os.path.abspath(sys.modules["cellsim"].__file__).startswith(src + os.sep):
    sys.exit("cellsim was not imported from %s" % src)

if workload != "cli-session":  # a CLI invocation starts from its state file
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    workloads.WORKLOADS[workload].build_state(seed, workdir)
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported}))
