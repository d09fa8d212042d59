"""One cold hessllt CLI process, as the benchmark runs it.

    python3 perfbench/child.py --out FILE [--trace | --env | --setup] -- CLI ARGS...

Times the import of the hessllt CLI module, then runs ``hessllt.cli.main``
with CLI ARGS exactly as the ``hessllt`` console script does; the report goes
to stdout untouched.  FILE receives a JSON object with ``setup_s`` and, with
--trace, the span statistics of every wrapped function.  With --setup the
process only imports hessllt; with --env it also records NumPy and its BLAS.
The program itself is not changed: spans come from wrapping its functions
from outside.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # wheels bundle the library next to the package; source builds link the one in "lib directory"
    dirs = (os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"),
            blas.get("lib directory") or "")
    for lib in [f for d in dirs for f in glob.glob(os.path.join(d, "lib*openblas*.so*"))][:1]:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--env", action="store_true")
    mode.add_argument("--setup", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import hessllt.cli
    record: dict = {"setup_s": time.perf_counter() - start}

    if args.env or args.setup:
        if args.env:
            record.update(_blas_record())
        with open(args.out, "w") as fh:
            json.dump(record, fh)
        return 0

    tracer = None
    if args.trace:
        from layers import NESTED, TARGETS
        from spans import Tracer, install

        tracer = Tracer(nested=NESTED)
        install(tracer, TARGETS, "hessllt")
    try:
        return hessllt.cli.main(cli_args)
    finally:
        if tracer is not None:
            record["spans"] = {name: vars(st) for name, st in tracer.stats.items()}
            record["counters"] = tracer.counters
            record["nested"] = [[c, a, n] for (c, a), n in tracer.nested_calls.items()]
        with open(args.out, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
