"""Set-up probe: a fresh interpreter that imports polyvisc and lists the presets.

run.py starts it as ``python3 perfbench/setup_probe.py`` with PYTHONPATH=src
and times it from outside. While the probe imports ``polyvisc.cli`` and runs
``main(["presets"])`` it times a pure-Python kernel (numpy is not loaded yet)
every ``INTERVAL_S`` through SIGALRM, so run.py can normalise the wall time
to machine speed the way speed.py does for ops. The last line on stderr is
the time spent sampling followed by the kernel times, in seconds.
"""

import signal
import sys
import time

ITERS = 300
REF_S = 4.0e-5  # reference kernel time: roughly an uncontended Intel Xeon vCPU
INTERVAL_S = 0.01


def kernel_seconds() -> float:
    start = time.perf_counter()
    acc = 0.0
    for k in range(ITERS):
        acc += (k % 7) * 0.5 + k / 3.0
    return time.perf_counter() - start


def main() -> int:
    samples, spent = [kernel_seconds()], [0.0]

    def on_alarm(signum, frame):
        start = time.perf_counter()
        samples.append(kernel_seconds())
        spent[0] += time.perf_counter() - start

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    from polyvisc.cli import main as cli_main

    code = cli_main(["presets"])
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    samples.append(kernel_seconds())
    print(spent[0], *samples, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
