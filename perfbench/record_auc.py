"""Record the AUC that `eval` reports for each workload and seed.

Usage, from the repository root:
    python3 perfbench/record_auc.py --workload dense-grids --seeds 0-31

Runs the workload's set-up and its `infer` and `eval` stages for every
seed, exactly as run.py does, and merges the AUCs into
perfbench/expected_auc.json. run.py then requires a bit-identical AUC
for those seeds. Record again only when a change is meant to alter the
proposals.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[n for n, w in run.WORKLOADS.items() if "eval" in w.stages])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    wl = dataclasses.replace(run.WORKLOADS[args.workload], stages=("infer", "eval"))
    recorded: dict[str, float] = {}
    work = os.path.join(run.WORK, f"record-{os.getpid()}")
    try:
        for seed in range(lo, hi + 1):
            seed_dir = os.path.join(work, str(seed))
            inputs, _ = run.setup(wl, seed, os.path.join(seed_dir, "setup"))
            ledger = run.Ledger()
            p = run.run_pass(wl, inputs, seed, os.path.join(seed_dir, "pass"), ledger,
                             run.count_videos(inputs.manifests), 1)
            if not p.ok or ledger.failed:
                raise SystemExit(f"seed {seed}: stages failed: {ledger.notes}")
            auc = p.stages["eval"].summary["auc"]
            recorded[str(seed)] = auc
            print(f"{args.workload} seed {seed}: auc {auc!r}", flush=True)
            shutil.rmtree(seed_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # read the table only now, so recorders of other workloads can run alongside
        with open(run.EXPECTED_AUC, "r", encoding="utf-8") as fh:
            table = json.load(fh)
        table.setdefault(args.workload, {}).update(recorded)
        with open(run.EXPECTED_AUC, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
