"""Entry point of the cliffsde benchmark.

    python3 perfbench/run.py --workload solve-nonlocal --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The package is imported from the
checkout's ``src`` directory; without it the run stops with exit code 2
and prints no result.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "cliffsde" / "__init__.py").is_file():
        print(f"error: no cliffsde sources at {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, fixed before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # one core for this process and the interpreters it starts, so that
    # the speed reference runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.main(sys.argv[1:], SRC)


if __name__ == "__main__":
    sys.exit(main())
