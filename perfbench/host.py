"""Host facts and host-speed normalization for the benchmark.

The shared hosts this benchmark runs on change speed by 20-40 % within
seconds, and CPU time slows with wall time, so neither is steady from
run to run.  A fixed pure-Python reference kernel, independent of
configcohom, is therefore sampled GAP_SAMPLES times in each gap between
two ops, and each op's times are rescaled by NOMINAL_SAMPLE_S over the
median CPU time of the samples in the gaps on either side of it.  A
normalized time reads as seconds on a host where one sample takes
NOMINAL_SAMPLE_S.  The kernel does random lookups in a dict of a few
tens of MiB, because the engine slows with cache contention: a kernel
that stays in cache tracked a CP^5 op's time far worse.  No sample is
taken while an op runs, so the op's own cache and memory traffic never
slows the kernel, and a change to the program cannot move its divisor.
The caller runs the sampler on the vCPU its ops run on, because the
slowdowns are partly per vCPU.

pool2_speedup is serial time over 2-process pool time for the same
fixed chunks of a small compute kernel, with the workers already
started: how much a `--jobs 2` fan-out can gain on this host at best.
"""

import subprocess
import sys
import time

TABLE_SIZE = 300_000
SAMPLE_STEPS = 15_000
GAP_SAMPLES = 3
# About the CPU time of one sample on the 2-vCPU Xeon host where the
# benchmark was defined, in its faster phases.  Fixed for good: every
# normalized time is scaled by it.
NOMINAL_SAMPLE_S = 0.012
POOL_CHUNKS = 4
POOL_STEPS = 150_000


def _kernel(steps):
    acc = {}
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) % 2147483648
        key = x & 1023
        acc[key] = acc.get(key, 0) + (x >> 10)
    return len(acc)


def _lookups(table, keys, steps):
    x = 1
    total = 0
    n = len(keys)
    for _ in range(steps):
        x = (x * 1103515245 + 12345) % 2147483648
        total += table[keys[x % n]]
    return total


class Helper:
    """This file run as a child process in the given mode (see _main).

    A plain child with pipes, not a multiprocessing process: spawning
    one of those starts a resource-tracker process as well, which
    outlives the benchmark by a moment after it exits.  close() ends
    the child and waits for it on every path out.
    """

    def __init__(self, mode):
        self._proc = subprocess.Popen([sys.executable, __file__, mode],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def send(self, value):
        self._proc.stdin.write(b"%d\n" % value)
        self._proc.stdin.flush()

    def recv(self):
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host helper exited with code %s" % self._proc.poll())
        return float(line)

    def close(self):
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Sampler:
    """CPU time of the reference kernel, sampled on demand.

    The kernel and its table live in a helper process so that this one
    stays small: the kernel counts the RSS of the process that spawned
    a child into the child's peak RSS (ru_maxrss), and the ops spawned
    from here are measured that way.
    """

    def __init__(self):
        self.values = []
        self._helper = Helper("sample")

    def sample(self):
        self._helper.send(SAMPLE_STEPS)
        self.values.append(self._helper.recv())

    def gap(self):
        """GAP_SAMPLES samples, taken back to back; their values."""
        for _ in range(GAP_SAMPLES):
            self.sample()
        return self.values[-GAP_SAMPLES:]

    def close(self):
        self._helper.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def pool2_speedup():
    """Serial over 2-worker time for POOL_CHUNKS reference chunks."""
    chunks = [POOL_STEPS] * POOL_CHUNKS
    t0 = time.perf_counter()
    for steps in chunks:
        _kernel(steps)
    serial = time.perf_counter() - t0
    workers = []
    try:
        for _ in range(2):
            workers.append(Helper("pool"))
        for w in workers:
            w.send(1)
        for w in workers:
            w.recv()
        t0 = time.perf_counter()
        for i, steps in enumerate(chunks):
            workers[i % 2].send(steps)
        for i in range(len(chunks)):
            workers[i % 2].recv()
        parallel = time.perf_counter() - t0
    finally:
        for w in workers:
            w.close()
    return serial / parallel


def _main(mode):
    """Helper child: for each number of steps read, one kernel run.

    "sample" replies with the CPU time of a run of the table lookups,
    "pool" with 0 after a run of the compute kernel.  Ends at EOF.
    """
    if mode == "sample":
        table = {i * 2654435761 % 4294967296: i for i in range(TABLE_SIZE)}
        keys = list(table)
    for line in sys.stdin.buffer:
        steps = int(line)
        if mode == "sample":
            t0 = time.process_time()
            _lookups(table, keys, steps)
            reply = time.process_time() - t0
        else:
            _kernel(steps)
            reply = 0.0
        sys.stdout.write("%r\n" % reply)
        sys.stdout.flush()


if __name__ == "__main__":
    _main(sys.argv[1])
