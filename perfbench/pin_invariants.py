"""Rewrite invariants.json from the simulator in this checkout.

    python3 perfbench/pin_invariants.py

The benchmark counts every run that differs from these values as
failed, so rerun this only for a change that alters simulated behaviour
on purpose, and say in that change which values moved and why.
"""

import json

import run
import workloads as wls


def fault_free(lm, mode: str) -> dict:
    soc = lm.Soc(lm.SocConfig(mode=mode))
    soc.load_program(lm.kernels.build_kernel(wls.KERNEL, mode))
    return wls.pinned_view(soc.run())


def main() -> None:
    lm = run.load_package()
    pins = {
        "matmul24-lockstep": fault_free(lm, "lockstep"),
        "matmul24-parallel": fault_free(lm, "parallel"),
    }
    spec = wls.campaign_spec(wls.DEFAULT_SEED,
                             pins["matmul24-lockstep"]["cycles"],
                             lm.campaign.CORE_LOCS, tiny=False)
    report = lm.campaign.run_campaign(
        lm.campaign.CampaignSpec.from_dict(spec), jobs=1)
    pins["campaign-mixed"] = {
        "seed": wls.DEFAULT_SEED,
        "classes": report["classes"],
        "report_sha256": wls.canonical_sha(report),
        "record_sha256": [wls.canonical_sha(r)[:16] for r in report["runs"]],
    }
    wls.INVARIANTS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {wls.INVARIANTS_PATH}")


if __name__ == "__main__":
    main()
