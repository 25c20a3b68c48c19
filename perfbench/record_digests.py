"""Record the campaign result digests the benchmark checks against.

    python3 perfbench/record_digests.py SEED [SEED ...] [--smoke]

Run from the repository root on the commit whose results are the
reference.  For each seed it runs the campaign_cold and arch_sweep
programs at the benchmark's sizes and stores the sha256 of every
(profile values, SimulationResult) pair in ``perfbench/digests.json``,
keyed by workload, trace scale and seed.  Existing entries are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--smoke", action="store_true",
                        help="record the tiny sizes of the smoke check")
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    root = common.repo_root()
    sys.path.insert(0, str(root / "src"))
    sizes = common.SIZES["tiny" if args.smoke else "full"]
    path = common.BENCH_DIR / "digests.json"
    for seed in args.seeds:
        configs = {a: common.design_points(a, seed) for a in common.CAMPAIGN_APPS}
        for workload, scale in (
            ("campaign_cold", sizes["campaign_scale"]),
            ("arch_sweep", sizes["sweep_scale"]),
        ):
            result = common.Child(root, {
                "kind": workload, "seed": seed, "trace": False,
                "configs": configs, "scale": scale,
            }).run()
            digests = common.recorded_digests()
            key = common.digest_key(workload, scale, seed)
            digests[key] = result["digest"]
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
            os.replace(tmp, path)
            print(f"{key} {result['digest']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
