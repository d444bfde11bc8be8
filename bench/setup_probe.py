"""Times one fresh-process set-up: importing icnflow and building the specs
of one workload.  Prints the seconds as the only line of stdout.

    python3 bench/setup_probe.py WORKLOAD SEED OUT_DIR
"""

import os
import sys
import time


def main():
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    t0 = time.perf_counter()
    import workloads
    workloads.build(name, seed, workloads.Path(out_dir))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
