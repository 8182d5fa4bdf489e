"""Traced-allocation peak of one horizonlab stage above its CLI import.

    python tools/traced_peak.py [--limit MB] STAGE --config RUN.INI ...

Starts tracemalloc before horizonlab is imported, resets the peak once
``horizonlab.cli``, numpy and the five array modules are loaded and the
import's garbage is collected, runs the stage in this process with the
arguments given, and prints the highest traced allocation above what the
imports left, in MB.  ``horizonlab.cli`` defers the array modules until a
stage first uses them; they are imported here before the floor, as the
CLI import itself once did, so the peak measures the stage's own work.  With
``--limit`` it exits 1 when that peak is above the limit.  Run the stages
in pipeline order: each reads what the one before wrote.

tracemalloc sees numpy array data and Python objects.  It does not see
BLAS or FFT scratch, interpreter arenas or mapped libraries, so it
complements a stage's peak RSS: it repeats to kilobytes where RSS moves
by tenths of a MB with code layout.
"""

import gc
import importlib
import sys
import tracemalloc


def main(argv):
    limit = None
    if argv[:1] == ["--limit"]:
        limit, argv = float(argv[1]), argv[2:]
    tracemalloc.start()
    import numpy  # noqa: F401
    from horizonlab import cli
    for name in ("sphere", "shear", "transport", "mots", "horizon"):
        vars(importlib.import_module(f"horizonlab.{name}"))  # executes it
    # The import's cyclic garbage, collected during the stage, would lower
    # the floor there and move the peak by tens of KB with the code layout.
    gc.collect()
    floor = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    status = cli.main(argv)
    peak = (tracemalloc.get_traced_memory()[1] - floor) / 1e6
    tracemalloc.stop()
    over = limit is not None and peak > limit
    print(f"{argv[0]} traced peak {peak:.3f} MB"
          + ("" if limit is None else f" (limit {limit:.3f} MB)"))
    return status or int(over)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
