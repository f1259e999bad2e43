"""The benchmark's four workloads and the seeded commands each one runs.

Seed 0 gives exactly the reference commands below.  Any other seed draws
from a finite catalogue, so that every output the gate has to check has a
digest in digests.json (written by record.py):

* classnum_scaled and qseries_dense move each range end by k percent,
  k drawn from -5..5 for each command;
* indef_pell draws the Pell discriminant st of its first three commands
  from ST_POOL and picks the number of terms so that the pell_orbit scan
  does as much work as the seed-0 command it replaces.  Without that,
  the unit size (2e3 <= y <= 3e5) would make the run time vary a
  hundredfold from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

WORKLOADS = ("verify_default", "classnum_scaled", "qseries_dense", "indef_pell")

# Non-square st <= 120 whose fundamental solution x^2 - st*y^2 = 1 has
# 2e3 <= y <= 3e5, mapped to y.  st = 61 (y ~ 2.3e8) and st = 109
# (y ~ 1.5e13) are out: pell_orbit does not finish on them.
ST_POOL = {46: 3588, 53: 9100, 58: 2574, 67: 5967, 73: 267000, 76: 6630,
           85: 30996, 89: 53000, 94: 221064, 103: 22419, 113: 113296,
           118: 28254}

SHIFT_PERCENT = range(-5, 6)


@dataclass(frozen=True)
class Command:
    """One qrel CLI invocation and what its output must satisfy.

    kind is "verify" (pass over exactly [lo, max]), "verify_all" (every
    relation passes over its recorded default range), "series" (stdout
    matches the recorded digest) or "hurwitz" (the CSV it writes matches
    the recorded digest).
    """

    kind: str
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.args)


def verify(relation: str, max_n: int) -> Command:
    return Command("verify", ("verify", relation, "--max", str(max_n), "--json"))


def series(name: str, terms: int) -> Command:
    return Command("series", ("series", "--name", name, "--terms", str(terms),
                              "--format", "csv"))


def hurwitz(max_n: int) -> Command:
    return Command("hurwitz", ("hurwitz", "--max", str(max_n)))


VERIFY_ALL = Command("verify_all", ("verify-all", "--json"))


def scan_work(st: int, terms: int) -> int:
    """Loop iterations of pell_orbit(1, st, r) summed over r = 1..terms."""
    y = ST_POOL[st]
    return sum(y * (isqrt(r) + 1) for r in range(1, terms + 1))


def terms_for_work(st: int, work: int) -> int:
    """The number of terms whose scan work for st is closest to work."""
    best, terms = None, 1
    while True:
        w = scan_work(st, terms)
        if best is None or abs(w - work) < abs(scan_work(st, best) - work):
            best = terms
        if w >= work:
            return best
        terms += 1


def _scaled(base: int, k: int) -> int:
    return base * (100 + k) // 100


def commands(workload: str, seed: int) -> tuple[list[Command], dict]:
    """The commands of one pass, and the parameters drawn from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    if workload == "verify_default":
        return [VERIFY_ALL], {}
    if workload == "classnum_scaled":
        k = [0] * 4 if seed == 0 else [rng.choice(SHIFT_PERCENT) for _ in range(4)]
        params = {"shift_percent": k}
        return [hurwitz(_scaled(16000, k[0])),
                verify("eichler", _scaled(8000, k[1])),
                verify("cohen", _scaled(8000, k[2])),
                verify("kronecker_hurwitz", _scaled(4000, k[3]))], params
    if workload == "qseries_dense":
        k = [0] * 4 if seed == 0 else [rng.choice(SHIFT_PERCENT) for _ in range(4)]
        params = {"shift_percent": k}
        return [series("Delta", _scaled(3000, k[0])),
                series("eta2_12", _scaled(8000, k[1])),
                verify("cor_i", _scaled(3000, k[2])),
                verify("trace4_nu2", _scaled(3000, k[3]) + 1)], params
    # indef_pell
    if seed == 0:
        st1, t1, st2, t2 = 73, 10, 53, 60
    else:
        st1, st2 = rng.choice(sorted(ST_POOL)), rng.choice(sorted(ST_POOL))
        t1 = terms_for_work(st1, scan_work(73, 10))
        t2 = terms_for_work(st2, scan_work(53, 60))
    params = {"st": [st1, st2], "terms": [t1, t2]}
    return [series(f"lambda:1:{st1}:1:1:0", t1),
            series(f"lambda:1:{st2}:1:1:0", t2),
            series(f"delta:1:{st2}:-4:-4:1", t2),
            series("lambda:1:13:5:5:2", 1500)], params


def reachable_commands() -> list[Command]:
    """Every series and hurwitz command some seed can produce; record.py
    stores a digest for each."""
    out = [hurwitz(_scaled(16000, k)) for k in SHIFT_PERCENT]
    out += [series("Delta", _scaled(3000, k)) for k in SHIFT_PERCENT]
    out += [series("eta2_12", _scaled(8000, k)) for k in SHIFT_PERCENT]
    for st in sorted(ST_POOL):
        t1 = terms_for_work(st, scan_work(73, 10))
        t2 = terms_for_work(st, scan_work(53, 60))
        out += [series(f"lambda:1:{st}:1:1:0", t1),
                series(f"lambda:1:{st}:1:1:0", t2),
                series(f"delta:1:{st}:-4:-4:1", t2)]
    out += [c for c in commands("indef_pell", 0)[0] if c not in out]
    return out
