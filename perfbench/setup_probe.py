"""Set-up probe: the time one fresh process takes from start to warm.

    python3 perfbench/setup_probe.py WORKLOAD SEED

For an in-process workload it times ``import splitlq``, building and
validating op 0's problem, and that first op; generating the inputs is
the benchmark's work and is left out.  For ``cli-sweep-fig1`` it times
``import splitlq.cli``.  The clock starts at this file's first statement.
Prints the seconds as its last line.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402  (os is loaded at interpreter start-up)
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(name, seed):
    if name == "cli-sweep-fig1":
        import splitlq.cli  # noqa: F401
        return time.perf_counter() - T0
    import splitlq  # noqa: F401
    imported = time.perf_counter() - T0
    sys.path.insert(0, HERE)
    import workloads
    workload = workloads.make(name, None)
    inputs = workload.inputs(seed, 0)
    start = time.perf_counter()
    workload.solve(workload.build(inputs))
    return imported + time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
