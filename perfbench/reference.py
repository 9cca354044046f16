"""Fixed pure-Python graph sweeps that measure the machine's speed.

The benchmark shares its machine with other work, which can slow every
instruction by a third or more for tens of seconds.  The measured
process runs a reference sweep between ops; since its work never
changes, the time it takes tracks the machine's speed at that moment,
and run.py scales each op's time by it.  Nothing here imports `dsep`,
so no change to the program changes the reference.

Contention slows code with a large working set more than code with a
small one, so each workload gets the reference that resembles its own
ops (`STYLE`).  `flat` walks an 8,000-node graph with bytearrays and
int stacks, like the per-call work on small graphs.  `queue` walks a
50,000-node graph the way a d-sep sweep does: a deque of (node,
orientation) tuples, a set of reached nodes and a call per link.  In
three 120-150 s measurements on a shared 2-core x86 machine, in 2 s
windows, log op time against log reference time had slope 0.7-1.2 for
ci-oracle and audit-small ops against `flat`, and 1.0-1.1 for
large-graph sweeps against a `queue` sweep of 50,000 nodes and 125,000
edges (0.9-1.4 against `flat`).
"""

from __future__ import annotations

import random
import time
from collections import deque

# workload -> (style, nodes, edges, sweeps per reference time, seconds
# between reference times, nominal reference time).  Op times are
# reported at the speed at which the sweeps take the nominal time: about
# this machine's speed when nothing else runs on it.
STYLE = {
    "ci-oracle": ("flat", 8_000, 20_000, 2, 0.1, 0.006),
    "large-graph": ("queue", 50_000, 100_000, 1, 0.5, 0.08),
    "audit-small": ("flat", 8_000, 20_000, 2, 0.1, 0.006),
}


class Reference:
    """Reachability over a fixed random dag, in one of two styles."""

    def __init__(self, workload: str) -> None:
        style, n, edges, self.sweeps, self.every_s, self.nominal_s = \
            STYLE[workload]
        self.sweep = self.flat if style == "flat" else self.queue
        rng = random.Random("reference")
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.parents: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            for _ in range(edges // n + (rng.random() < 0.5)):
                u = rng.randrange(v)
                self.children[u].append(v)
                self.parents[v].append(u)
        self.sources = rng.sample(range(n), 3)
        self.blocked = frozenset(rng.sample(range(n), 40))

    def flat(self) -> int:
        """Nodes reached along trails that stop at blocked nodes.

        It allocates only two bytearrays and two int stacks, so it
        does not set off the garbage collector.
        """
        children, parents, blocked = self.children, self.parents, self.blocked
        seen_up = bytearray(len(children))
        seen_down = bytearray(len(children))
        up = list(self.sources)
        down: list[int] = []
        reached = 0
        while up or down:
            if up:
                v = up.pop()
                if seen_up[v]:
                    continue
                seen_up[v] = 1
                reached += not seen_down[v]
                if v in blocked:
                    continue
                up.extend(parents[v])
            else:
                v = down.pop()
                if seen_down[v]:
                    continue
                seen_down[v] = 1
                reached += not seen_up[v]
                if v in blocked:
                    continue
            down.extend(children[v])
        return reached

    def queue(self) -> int:
        """The same reachability with a tuple queue and a reached set."""
        children, parents, blocked = self.children, self.parents, self.blocked
        seen_into = bytearray(len(children))
        seen_outof = bytearray(len(children))
        reached = set(self.sources)
        todo: deque[tuple[int, bool]] = deque((v, False) for v in self.sources)

        def take(v: int, into: bool) -> None:
            reached.add(v)
            if into:
                if not seen_into[v]:
                    seen_into[v] = 1
                    todo.append((v, True))
            elif not seen_outof[v]:
                seen_outof[v] = 1
                todo.append((v, False))

        while todo:
            v, into = todo.popleft()
            if v in blocked:
                continue
            for c in children[v]:
                take(c, True)
            if not into:
                for p in parents[v]:
                    take(p, False)
        return len(frozenset(reached))

    def time(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.sweeps):
            self.sweep()
        return time.perf_counter() - t0
