#!/usr/bin/env python3
"""CI gate for the paper's Table 5 ordering.

Reads the JSON bench_table5 writes, prints its table of medians (EXPERIMENTS.md quotes
this output), and checks the rows where the paper has ArckFS ahead of the kernel file
systems: ArckFS-nd's median ops/ms must be at least the best kernel baseline's median
(ext4, NOVA, WineFS). Every system runs in the same process, interleaved, with the same
NVM cost model, so each check is a ratio and does not depend on the machine's absolute
speed.

Gated rows are the paper rows with ArckFS ahead that held in every calibration run on a
4-vCPU box (EXPERIMENTS.md, Table 5): fillseq, fillsync and deleterandom, 10 of 10 each.
readrandom, where the paper also has ArckFS ahead, is printed with the other rows but not
gated.

Given more than one run, it gates each and then prints, per row, in how many runs
ArckFS-nd's median was at least the best baseline's and the range of that ratio
(EXPERIMENTS.md's range table).

Usage: check_paper_orderings.py <BENCH_table5.json> [<more runs>...]
"""

import json
import sys

ARCKFS = "ArckFS-nd"
BASELINES = ("ext4", "NOVA", "WineFS")
GATED = ("fillseq", "fillsync", "deleterandom")


def ratios(data):
    """Returns ({workload: ArckFS-nd median / best baseline median}, [problems])."""
    systems = BASELINES + (ARCKFS,)
    out = {}
    problems = []
    for workload, row in data.get("results", {}).items():
        missing = [s for s in systems if s not in row]
        if missing:
            problems.append(f"{workload} has no result for {missing}")
            continue
        best = max(BASELINES, key=lambda s: row[s]["median"])
        out[workload] = row[ARCKFS]["median"] / row[best]["median"]
    problems += [f"no results for gated row {w}" for w in GATED if w not in out]
    return out, problems


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = []
    for path in sys.argv[1:]:
        with open(path) as f:
            runs.append((path, json.load(f)))
    systems = BASELINES + (ARCKFS,)

    path, data = runs[0]
    results = data.get("results", {})
    print(f"{'workload':<13}" + "".join(f"{s:>11}" for s in systems) +
          f"   ({ARCKFS} / best baseline; median ops/ms of "
          f"{data.get('conditions', {}).get('reps', '?')} runs)")
    first, _ = ratios(data)
    for workload, ratio in first.items():
        row = results[workload]
        gated = workload in GATED
        verdict = ("ok" if ratio >= 1.0 else "FAIL") if gated else "not gated"
        print(f"{workload:<13}" + "".join(f"{row[s]['median']:>11.1f}" for s in systems) +
              f"   {ratio:.2f}x {verdict}")

    failed = False
    per_run = []
    for path, data in runs:
        run_ratios, problems = ratios(data)
        per_run.append(run_ratios)
        for problem in problems:
            print(f"FAIL: {path}: {problem}")
        lost = [w for w in GATED if run_ratios.get(w, 1.0) < 1.0]
        for workload in lost:
            print(f"FAIL: {path}: {workload} {run_ratios[workload]:.2f}x")
        failed |= bool(problems or lost)

    if len(runs) > 1:
        print(f"\n{'row':<14}{'at least 1.0x':<16}range")
        for workload in first:
            seen = [r[workload] for r in per_run if workload in r]
            held = sum(1 for r in seen if r >= 1.0)
            note = "   (gated)" if workload in GATED else ""
            print(f"{workload:<14}{f'{held} of {len(seen)}':<16}"
                  f"{min(seen):.2f}-{max(seen):.2f}x{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
