"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload skew-fr --seed 1 --seconds 30 --trace 0

The BLAS thread count is pinned here, before numpy is imported, so that it
does not depend on the calling shell.  The library is imported from `src/`.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1  # one client thread; a shared 2-core box gives steadier numbers
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent


def _entry() -> int:
    if not (ROOT / "src" / "rationalift" / "__init__.py").is_file():
        print(f"error: rationalift sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    return harness.main(sys.argv[1:], BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(_entry())
