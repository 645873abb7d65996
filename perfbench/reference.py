"""Record the reference outputs ``run.py`` checks every iteration against.

    python3 perfbench/reference.py --seeds 0-39 [--workload NAME ...]

Runs one untraced iteration per workload and seed and stores its trace
digest and ``RunMetrics`` fingerprint in ``perfbench/reference.json``.
Re-record only for a change meant to alter the program's behaviour; a
pure speed change must reproduce the recorded outputs.  An iteration with
an invariant violation is not recorded and makes the script exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from run import HERE, RUN_DEADLINE_S, run_child, workload_names


def parse_seeds(text: str) -> List[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workload", action="append",
                        choices=workload_names())
    args = parser.parse_args(argv)
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as handle:
        reference: Dict[str, Dict[str, Dict[str, str]]] = json.load(handle)
    status = 0
    for workload in args.workload or workload_names():
        for seed in args.seeds:
            result, error = run_child(workload, seed, traced=False,
                                      spans_path=None,
                                      timeout=RUN_DEADLINE_S)
            if result is None or result["violations"]:
                why = (error if result is None
                       else f"{result['violations']} invariant violation(s)")
                print(f"{workload} seed {seed}: not recorded: {why}",
                      file=sys.stderr)
                status = 1
                continue
            reference.setdefault(workload, {})[str(seed)] = {
                "digest": result["digest"],
                "fingerprint": result["fingerprint"],
            }
            print(f"{workload} seed {seed}: {result['digest'][:16]}",
                  flush=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(reference, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
