#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py [--seeds 32]

Run it only on a commit whose results are trusted: the benchmark counts every
later departure from these values, beyond reassociation at roundoff level, as
a failed output check. model_jets has one seed-free entry (its seeds only
translate the jets by whole cells); the random workloads have one entry per
seed in 0 .. seeds-1, and other seeds get only the seed-independent checks.
Each workload is also recorded at n = 16 for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import warnings

from run import HERE, OUT, import_program

SMALL_N = 16


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=32)
    args = ap.parse_args()
    import_program()
    warnings.filterwarnings("ignore", message="box_length .* < 16")
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ref-", dir=OUT)
    table: dict = {}
    try:
        for name in workloads.NAMES:
            for n in (workloads.DEFAULT_N[name], SMALL_N):
                seeds = [0] if name == "model_jets" else range(args.seeds)
                entry = table.setdefault(name, {}).setdefault(str(n), {})
                for seed in seeds:
                    wl = workloads.make(name, seed, workdir, n)
                    workloads.repetition(wl)
                    entry[wl.ref_key] = [workloads.summarize(workloads.read_outputs(s))
                                         for s in wl.segments]
                    print(name, n, wl.ref_key, entry[wl.ref_key], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
