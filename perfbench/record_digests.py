"""Record the output digests of the default seed's first ops into digests.json.

    python3 perfbench/record_digests.py

Run only at a commit whose outputs are known good: every op must pass
its own check before its digest is kept.  Later runs compare any op
with a recorded key against the digest, so changed output is caught
even where the laws still hold.  The rules workload runs the same 513
distinct ops (one round) for every seed, so all of them are recorded.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the src path above)

DEFAULT_SEED = 0
OPS = {"life-like": 4, "rules": 516, "trajectories": 120, "relfiles": 400}


def main():
    digests = {}
    workdir = tempfile.mkdtemp(dir=HERE)
    try:
        for name, count in OPS.items():
            ops = workloads.WORKLOADS[name](DEFAULT_SEED, workdir)
            table = digests.setdefault(name, {})
            for _ in range(count):
                op = next(ops)
                outcome = op.run()
                op.check(outcome)
                table[op.key] = workloads.digest(outcome)
            print(f"{name}: {len(table)} digests", flush=True)
    finally:
        shutil.rmtree(workdir)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
