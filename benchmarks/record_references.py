"""Record the reference values that the benchmark's correctness gate compares against.

    PYTHONPATH=src python benchmarks/record_references.py [--size full|tiny] [--workload NAME]

Each (size, workload, seed) entry is one pass of that workload with the
checks that need no reference still applied; entries not selected keep
their recorded values. Re-record only when a change is meant to move the
program's outputs, and say so where the change is described.
"""

import argparse
import json
import sys

from workloads import REFERENCE_SEEDS, REFERENCES, SIZES, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--size", choices=list(SIZES), action="append")
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append")
    args = parser.parse_args(argv)

    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for size in args.size or list(SIZES):
        for name in args.workload or list(WORKLOADS):
            entries = references.setdefault(size, {}).setdefault(name, {})
            for seed in range(REFERENCE_SEEDS):
                workload = WORKLOADS[name](seed, size, None)
                errors = [f"{op.label}: {op.error}" for op in workload.run_pass() if op.error]
                if errors:
                    print(f"{size} {name} seed {seed}: {errors[0]}", file=sys.stderr)
                    return 1
                entries[str(seed)] = workload.recorded
            print(f"recorded {size} {name}", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
