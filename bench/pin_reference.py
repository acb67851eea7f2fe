"""Pin the reference report signature of each benchmark workload.

    python3 bench/pin_reference.py [--workload NAME] [--seeds 0-9]

Runs ``run_suites`` for every listed seed, requires the signature to be
the same for all of them (it does not depend on the sampled points), and
writes it to ``bench/reference/<workload>.json`` together with the seeds
it was checked on.  Re-pin only when a change to the verifier is meant to
change a verdict or a record id, and say so in the change log.
"""

import argparse
import json
import sys

from run import import_hkc
from workloads import REFERENCE_DIR, WORKLOADS, run_config, signature


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = p.parse_args(argv)
    hkc = import_hkc()
    seeds = parse_seeds(args.seeds)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        sigs = [signature(hkc.run_suites(run_config(hkc, name, seed)))
                for seed in seeds]
        differing = [seed for seed, sig in zip(seeds, sigs) if sig != sigs[0]]
        if differing:
            print(f"{name}: signature differs from seed {seeds[0]} at seeds "
                  f"{differing}", file=sys.stderr)
            return 1
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump({"workload": name, "seeds_checked": args.seeds,
                       "signature": sigs[0]}, fh, indent=1)
            fh.write("\n")
        print(f"{name}: pinned from seeds {args.seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
