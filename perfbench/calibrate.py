"""Fixed work that measures how fast this host runs Python right now.

    python3 perfbench/calibrate.py

The benchmark times this script beside every census it times, and scales
the census times by the ratio of REFERENCE_S to this script's median wall
time (see run.py).  Like a census launch it starts an interpreter, imports
numpy, and then mixes interpreted integer and dict work with small numpy
permutation products.  It never changes with the program, so a change to
the program cannot move it.  It prints one checksum line and exits 0.
"""

import numpy as np


def main() -> int:
    degree = 2500
    rng = np.random.default_rng(12345)
    perms = [rng.permutation(degree).astype(np.int32) for _ in range(8)]
    p = np.arange(degree, dtype=np.int32)
    seen = {}
    total = 0
    for i in range(4000):
        p = perms[i % 8][p]
        x = int(p[i % degree])
        seen[x] = seen.get(x, 0) + 1
        for j in range(40):
            total = (total * 31 + x * j) % 1000003
    print(total, len(seen))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
