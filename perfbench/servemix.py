"""The seeded `serve-mix` request generator.

One plan is the sequence a pass replays against a fresh daemon and
store. Every named workload x target x opt level appears once as a
first-time request (compile, execute, store write), so every seed asks
the service for the same work; the seed decides the order, which
earlier requests the repeats (store reads, about two in three of all
requests) hit, and which malformed requests are mixed in."""

import hashlib
import json

# Every registered workload except the four whose first-time request
# costs 100-780 ms (pi, latex, ipl, intkernel). Without them a pass stays
# short enough that one run holds several passes and over a thousand
# latency samples, and p99 falls among the ordinary O0 first-time
# requests. With one request each of the four, p99 fell at the edge of
# the few slowest requests, and its run-to-run spread rose from 0.09
# (ten seeds) to 0.21 (five seeds).
WORKLOADS = [
    "ackermann", "assem", "bubblesort", "queens", "quicksort", "towers", "grep", "linpack",
    "matrix", "dhrystone", "solver", "whetstone", "fsm", "addrgen", "listchase", "treewalk",
    "bytecode", "lexer", "fpkernel", "hashchurn", "compress", "eqntott",
]
TARGETS = ["D16/16/2", "DLXe/16/2", "DLXe/16/3", "DLXe/32/2", "DLXe/32/3", "D16x/16/3"]
OPTS = ["O0", "O2"]
# Cache-grid sweeps record and replay a trace, so they ride on workloads
# whose runs are short.
SWEEPS = [(w, t) for w in ("ackermann", "solver", "whetstone") for t in ("D16/16/2", "DLXe/32/3")]
REPEATS_PER_FIRST = 2
# Requests the service must refuse, with the status it must refuse them with.
MALFORMED = [
    ({"workload": "nosuch"}, 400),
    ({"workload": "towers", "target": "Z80/8/1"}, 400),
    ({"workload": "towers", "opt": "O3"}, 400),
    ({"workload": "towers", "colour": "blue"}, 400),
    ({"workload": "towers", "fuel": 1000}, 400),
    ({"source": "int main( {"}, 422),
]
MALFORMED_PER_PLAN = 8

MASK = (1 << 64) - 1


class SplitMix64:
    """A small seeded generator with a fixed algorithm, so a seed gives
    the same plan on every Python version."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n


def body(fields):
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def generate(seed):
    """The plan for `seed`: a list of (request body, expected status,
    workload or None)."""
    rng = SplitMix64(seed)
    firsts = [
        (body({"workload": w, "target": t, "opt": o}), 200, w)
        for w in WORKLOADS
        for t in TARGETS
        for o in OPTS
    ] + [(body({"workload": w, "target": t, "sweep": True}), 200, w) for w, t in SWEEPS]
    for i in range(len(firsts) - 1, 0, -1):
        j = rng.below(i + 1)
        firsts[i], firsts[j] = firsts[j], firsts[i]
    plan, issued = [], []
    repeats = REPEATS_PER_FIRST * len(firsts)
    while len(issued) < len(firsts) or repeats:
        new = len(firsts) - len(issued)
        if not issued or rng.below(new + repeats) < new:
            issued.append(firsts[len(issued)])
            plan.append(issued[-1])
        else:
            plan.append(issued[rng.below(len(issued))])
            repeats -= 1
    for _ in range(MALFORMED_PER_PLAN):
        fields, status = MALFORMED[rng.below(len(MALFORMED))]
        plan.insert(rng.below(len(plan) + 1), (body(fields), status, fields.get("workload")))
    return plan


def digest(plan):
    """SHA-256 of the plan's request bodies and expected statuses."""
    h = hashlib.sha256()
    for text, status, _ in plan:
        h.update(f"{status} {text}\n".encode())
    return h.hexdigest()
