"""Time one cold set-up in a fresh interpreter: everything a user pays
before the first simulated cycle.

    python3 setup_probe.py SRC_DIR < {"mode": ..., "spec": ... | null}

The clock covers importing the package, building and assembling the
matmul24 kernel, ``Soc(SocConfig(mode))`` plus ``load_program`` and, for
a campaign, parsing and validating the spec.  Prints the seconds.
"""

import json
import sys
import time

job = json.load(sys.stdin)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lockstep_mcu as lm  # noqa: E402  (the import is what is timed)

prog = lm.kernels.build_kernel("matmul24", job["mode"])
soc = lm.Soc(lm.SocConfig(mode=job["mode"]))
soc.load_program(prog)
if job["spec"] is not None:
    lm.campaign.CampaignSpec.from_dict(job["spec"])
print(repr(time.perf_counter() - t0))
