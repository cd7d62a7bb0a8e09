#!/usr/bin/env python3
"""CI gate for the sharded-controller fleet bench.

Reads a bench_fleet --benchmark_out JSON and checks the property the shard refactor
exists for, at the highest thread count run with both 1 and 8 shards: re-mapping held
read grants (BM_GrantLookup) with 8 shards must beat the legacy one-big-mutex
configuration (shards:1) on lookups per second, and must find a shard lock held less
often per lookup (contended_per_lookup). Both compare two runs on the same machine in the
same process, so they are robust to absolute machine speed; the contention check also
fails a sharded run that passes the rate check on noise alone. With repetitions, each side
is the median of its runs. Any benchmark in the file that reported an error (a GrantLookup
whose MapFile failed, a FleetChurn op that returned an error) fails the gate.

Usage: check_fleet_bench.py <bench_fleet.json>
"""

import json
import re
import statistics
import sys

NAME = re.compile(r"BM_GrantLookup/shards:(\d+)/.*threads:(\d+)$")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        data = json.load(f)

    errors = [bench for bench in data.get("benchmarks", []) if bench.get("error_occurred")]
    for bench in errors:
        print(f"FAIL: {bench.get('name')} reported an error: {bench.get('error_message', '')}")
    if errors:
        return 1

    rates = {}      # (shards, threads) -> items_per_second of each run
    contended = {}  # (shards, threads) -> contended_per_lookup of each run
    for bench in data.get("benchmarks", []):
        match = NAME.match(bench.get("name", ""))
        if match is None or bench.get("run_type") == "aggregate" or \
                "items_per_second" not in bench:
            continue
        key = (int(match[1]), int(match[2]))
        rates.setdefault(key, []).append(bench["items_per_second"])
        contended.setdefault(key, []).append(bench.get("contended_per_lookup", -1.0))

    paired = [threads for shards, threads in rates if shards == 8 and (1, threads) in rates]
    if not paired:
        print(f"FAIL: no GrantLookup thread count run with both shards:1 and shards:8 "
              f"in {sys.argv[1]}")
        return 1
    threads = max(paired)
    legacy = statistics.median(rates[(1, threads)])
    sharded = statistics.median(rates[(8, threads)])
    legacy_contended = statistics.median(contended[(1, threads)])
    sharded_contended = statistics.median(contended[(8, threads)])

    if legacy <= 0 or sharded <= 0:
        print(f"FAIL: degenerate throughput (shards1={legacy}, shards8={sharded})")
        return 1
    if not sharded > legacy:
        print(f"FAIL: 8-shard lookup rate ({sharded:.0f}/s) not above the one-mutex "
              f"baseline ({legacy:.0f}/s) at {threads} threads - shard scale-out is broken")
        return 1
    if legacy_contended < 0 or sharded_contended < 0:
        print("FAIL: a GrantLookup run reported no contended_per_lookup counter")
        return 1
    if not sharded_contended < legacy_contended:
        print(f"FAIL: the 8-shard run found a shard lock held {sharded_contended:.3f} "
              f"times per lookup, not fewer than the one-mutex baseline's "
              f"{legacy_contended:.3f} at {threads} threads - the shards do not split "
              f"the lock")
        return 1

    print(f"OK: grant lookups/s at {threads} threads shards1={legacy:.0f} "
          f"shards8={sharded:.0f} ({sharded / legacy:.2f}x); contended per lookup "
          f"shards1={legacy_contended:.3f} shards8={sharded_contended:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
