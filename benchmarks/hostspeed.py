"""How fast the host runs simulator-like Python right now.

On a shared VM the same cell's host time drifts by ±20% over minutes,
and all workloads drift together. A run therefore times a fixed kernel
next to its cells and scales its host time to a reference speed.
`kernel` mimics the simulator's operation mix (scans over node objects
with distance filters, dict comprehensions, a min by key, FNV hashing,
list slicing, sorting). `import_kernel` mimics what set-up does (load
marshalled code, run a module body of class and function definitions,
compile generated methods as dataclasses do). Both live here, not in
the package, so no change to the program moves them. They run only in
processes that have not imported the package (the orchestrator, and a
set-up probe before its timed import), so the program's heap cannot slow
them either. This module imports nothing the package would otherwise pay
for in set-up time.
"""

import gc
import marshal
import math
import random
from time import perf_counter

# Kernel time per call (ms) that defines the reference host speed: about
# what a 2-vCPU VM with Python 3.11.7 measured when the benchmark was made.
REFERENCE_MS = 5.0         # kernel()
IMPORT_REFERENCE_MS = 1.5  # import_kernel()

_MASK64 = (1 << 64) - 1
_RANGE = 550.0
_TWO_PI = 2.0 * math.pi


class _Pos:
    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


class _Node:
    def __init__(self, id: int, pos: _Pos, energy: float):
        self.id = id
        self.pos = pos
        self.energy = energy

    @property
    def alive(self) -> bool:
        return self.energy > 0.0


def _deploy(n: int = 250, side: float = 2500.0):
    rng = random.Random(12345)
    return {i: _Node(i, _Pos(rng.uniform(0, side), rng.uniform(0, side)), 1000.0)
            for i in range(n)}


_NODES = _deploy()


def kernel() -> int:
    """One fixed unit of work, about 5 ms."""
    nodes = _NODES
    acc = 0
    for dest_id in range(0, 40, 8):
        dest = nodes[dest_id].pos
        rings = {
            n.id: (math.ceil(math.hypot(n.pos.x - dest.x, n.pos.y - dest.y) / _RANGE),
                   int(8 * (math.atan2(n.pos.y - dest.y, n.pos.x - dest.x) % _TWO_PI) / _TWO_PI))
            for n in nodes.values() if n.alive
        }
        for cur_id in range(dest_id + 1, dest_id + 5):
            cur = nodes[cur_id]
            pool = [n for nid, n in nodes.items()
                    if nid != cur_id and n.alive and nid in rings
                    and math.hypot(cur.pos.x - n.pos.x, cur.pos.y - n.pos.y) <= _RANGE]
            if pool:
                acc += min(pool, key=lambda n: (
                    -math.hypot(cur.pos.x - n.pos.x, cur.pos.y - n.pos.y), n.id)).id
    h = 0xCBF29CE484222325
    for i in range(200):
        for byte in b"comm:%d:%d:%d" % (i, i * 7, i * 13):
            h ^= byte
            h = (h * 0x100000001B3) & _MASK64
    chain = list(range(3000))
    for s in range(1, 3000, 150):
        acc += len(chain[:s]) + len(chain[s:])
    ranked = sorted(nodes.values(), key=lambda n: (-n.energy * (n.id % 7), n.id))
    return acc + (h & 1) + ranked[0].id


_MODULE = "\n".join(
    f"class C{i}:\n"
    f"    x{i} = {i}\n"
    "    def __init__(self, a, b=None):\n"
    "        self.a = a\n"
    "        self.b = b\n"
    "    def m(self, k):\n"
    "        return [self.a * k + j for j in range(3)]\n"
    "    @property\n"
    "    def p(self):\n"
    "        return self.a\n"
    f"def f{i}(x, *, y=1):\n"
    f"    return {{'k': x, 'v': (x, y, {i})}}\n"
    for i in range(40))
_MODULE_CODE = marshal.dumps(compile(_MODULE, "<import_kernel>", "exec"))
_METHOD = ("def __init__(self, " + ", ".join(f"a{i}" for i in range(8)) + "):\n"
           + "".join(f"    self.a{i} = a{i}\n" for i in range(8)))


def import_kernel() -> int:
    """One fixed unit of set-up-like work, about 1.5 ms."""
    namespace = {"__name__": "import_kernel"}
    exec(marshal.loads(_MODULE_CODE), namespace)
    for _ in range(6):
        compile(_METHOD, "<import_kernel>", "exec")
    return len(namespace)


class HostSpeed:
    """Time of one kernel accumulated over the samples of one run."""

    def __init__(self, work=kernel, reference_ms: float = REFERENCE_MS):
        self.work = work
        self.reference_ms = reference_ms
        self.seconds = 0.0
        self.calls = 0

    def sample(self, budget_s: float) -> None:
        """Run the kernel for about budget_s seconds, at least once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            while True:
                self.work()
                self.calls += 1
                elapsed = perf_counter() - t0
                if elapsed >= budget_s:
                    break
            self.seconds += elapsed
        finally:
            if enabled:
                gc.enable()

    def per_call_ms(self) -> float:
        return 1e3 * self.seconds / self.calls

    def factor(self) -> float:
        """Host seconds this run took per second of reference host time."""
        return self.per_call_ms() / self.reference_ms
