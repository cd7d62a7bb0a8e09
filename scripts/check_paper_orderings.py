#!/usr/bin/env python3
"""CI gate for the paper's Table 5 ordering.

Reads the JSON bench_table5 writes, prints its table of medians (EXPERIMENTS.md quotes
this output), and checks the rows where the paper has ArckFS ahead of the kernel file
systems: ArckFS-nd's median ops/ms must be at least the best kernel baseline's median
(ext4, NOVA, WineFS). Every system runs in the same process, interleaved, with the same
NVM cost model, so each check is a ratio and does not depend on the machine's absolute
speed.

Gated rows are those that held in every calibration run on a 4-vCPU box
(EXPERIMENTS.md, Table 5): fillsync, 20 of 20. fillseq (19 of 20) and deleterandom
(18 of 20), where the paper also has ArckFS ahead, are printed with the other rows but
not gated.

Usage: check_paper_orderings.py <BENCH_table5.json>
"""

import json
import sys

ARCKFS = "ArckFS-nd"
BASELINES = ("ext4", "NOVA", "WineFS")
GATED = ("fillsync",)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        data = json.load(f)
    results = data.get("results", {})
    systems = BASELINES + (ARCKFS,)

    print(f"{'workload':<13}" + "".join(f"{s:>11}" for s in systems) +
          f"   ({ARCKFS} / best baseline; median ops/ms of "
          f"{data.get('conditions', {}).get('reps', '?')} runs)")
    failed = False
    for workload, row in results.items():
        missing = [s for s in systems if s not in row]
        if missing:
            print(f"FAIL: {workload} has no result for {missing}")
            failed = True
            continue
        best = max(BASELINES, key=lambda s: row[s]["median"])
        ratio = row[ARCKFS]["median"] / row[best]["median"]
        gated = workload in GATED
        verdict = ("ok" if ratio >= 1.0 else "FAIL") if gated else "not gated"
        print(f"{workload:<13}" + "".join(f"{row[s]['median']:>11.1f}" for s in systems) +
              f"   {ratio:.2f}x {verdict}")
        failed |= gated and ratio < 1.0
    absent = [w for w in GATED if w not in results]
    if absent:
        print(f"FAIL: no results for gated rows {absent}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
