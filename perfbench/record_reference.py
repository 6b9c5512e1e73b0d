"""Record the reference outputs that runs at the default seed are compared to.

    python3 perfbench/record_reference.py

Run from the repository root, on the commit whose outputs are the
reference.  It runs each unit kind of each workload once at
workloads.DEFAULT_SEED and rewrites perfbench/reference.json.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    out_dir = os.path.join(ROOT, ".perfbench_out", "reference")
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.prepare(name, workloads.DEFAULT_SEED, out_dir, None)
            reference[name] = {}
            for kind in wl.kinds:
                summary = kind.summarize(kind.call())
                problems = kind.check(summary)
                if problems:
                    raise SystemExit(f"{name}/{kind.name} fails its checks: {problems}")
                reference[name][kind.name] = {k: summary[k] for k in kind.reference_keys}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
