"""Seeded case generator for the four benchmark workloads.

Every workload is a fixed list of anchor cases plus cases drawn from
stratified pools.  The strata are chosen so that every seed does the same
amount of work: oracle cost depends only on how p behaves in the field (split,
inert or ramified), so each oracle stratum is one prime class; special-value
cost grows with the number of characters mod f, so each volume-table stratum
is an f band x (d mod 4) with a narrow window on phi(f).  The seed only picks
which field of a stratum is used.

The helpers below classify primes independently of hmvol, so a defect in the
program cannot bias the pools.
"""

from __future__ import annotations

import random

WORKLOADS = ("volume-table", "oracle-lift", "oracle-deep", "killing")

# volume-table: n = 1..TABLE_N for every field.
TABLE_N = 5
# (band, d mod 4) -> window on phi(f); bands are f <= 20, ~40-150, ~150-800.
TABLE_STRATA = {
    ("small", 3): (2, 18, (1, 20)),
    ("small", 1): (2, 18, (1, 20)),
    ("medium", 3): (96, 106, (40, 150)),
    ("medium", 1): (56, 72, (40, 150)),
    ("large", 3): (184, 200, (150, 800)),
    ("large", 1): (184, 200, (150, 800)),
}
TABLE_ANCHORS = (1, 3)

D_MAX = 800
# Duration of one pass (every case once, set-up included) on a busy 2-CPU
# host; a run makes round(--seconds / PASS_SECONDS) passes.
PASS_SECONDS = {"volume-table": 7.0, "oracle-lift": 13.0, "oracle-deep": 13.5,
                "killing": 9.5}


def _factor(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree_odd(d: int) -> bool:
    ps = _factor(d)
    return d % 2 == 1 and len(ps) == len(set(ps))


def conductor(d: int) -> int:
    return d if d % 4 == 3 else 4 * d


def phi(m: int) -> int:
    for p in set(_factor(m)):
        m = m // p * (p - 1)
    return m


def prime_class(d: int, p: int) -> str:
    """Behaviour of the prime p in Q(sqrt(-d)) for odd squarefree d."""
    D = -d if d % 4 == 3 else -4 * d
    if p == 2:
        if D % 2 == 0:
            return "ramified"
        return "split" if D % 8 == 1 else "inert"
    if D % p == 0:
        return "ramified"
    return "split" if pow(D % p, (p - 1) // 2, p) == 1 else "inert"


FIELDS = tuple(d for d in range(1, D_MAX, 2) if _squarefree_odd(d))


def table_pool(band: str, residue: int) -> list[int]:
    # d with three or more prime factors costs more per character; leave them out
    lo, hi, (f_lo, f_hi) = TABLE_STRATA[(band, residue)]
    return [d for d in FIELDS
            if d % 4 == residue and d not in TABLE_ANCHORS and len(_factor(d)) <= 2
            and f_lo <= conductor(d) <= f_hi and lo <= phi(conductor(d)) <= hi]


def class_pool(p: int, cls: str, d_max: int = 200, exclude=()) -> list[int]:
    return [d for d in FIELDS if d <= d_max and d not in exclude and prime_class(d, p) == cls]


CLASSES = ("split", "inert", "ramified")


def _verify(oracle, lattice, n, d=None, p=None, level=None):
    argv = ["verify", "--oracle", oracle, "--lattice", lattice, "--n", str(n)]
    for flag, v in (("--d", d), ("--p", p), ("--level", level)):
        if v is not None:
            argv += [flag, str(v)]
    return {"kind": "verify", "argv": argv, "oracle": oracle, "lattice": lattice, "n": n,
            "d": d, "p": p, "level": level}


def _table(fields):
    argv = ["table", "--lattice", "both", "--n-range", f"1..{TABLE_N}",
            "--d-list", ",".join(map(str, fields)), "--tol", "1e-12"]
    return {"kind": "table", "argv": argv, "fields": fields, "n_max": TABLE_N}


def volume_table(rng: random.Random) -> list[dict]:
    drawn = {key: rng.choice(table_pool(*key)) for key in TABLE_STRATA}
    # one table per band; the large band, which costs the most, one per field
    return [_table(list(TABLE_ANCHORS) + [drawn["small", 3], drawn["small", 1]]),
            _table([drawn["medium", 3], drawn["medium", 1]]),
            _table([drawn["large", 3]]), _table([drawn["large", 1]])]


def oracle_lift(rng: random.Random) -> list[dict]:
    # The O/5 -> O/25 lift: split and inert fields give the same 225,390,625
    # nodes at O/25, the largest last-stage broadcast of any case here.
    cls = rng.choice(("split", "inert"))
    cases = [_verify("stabilization", "L", 1, rng.choice(class_pool(5, cls)), 5, 1)]
    # O/9 su-counts and the 2-adic O/8 -> O/16 lift of M, one per prime class.
    for c in CLASSES:
        cases.append(_verify("su-count", "L", 1, rng.choice(class_pool(3, c)), 3, 2))
    for c in CLASSES:
        cases.append(_verify("stabilization", "M", 1, rng.choice(class_pool(2, c)), 2, 3))
    # anchor: the kernel-corrected count over O/8 gives tau_2 = 1/2
    return cases + [_verify("tau-p", "L", 1, 5, 2)]


def oracle_deep(rng: random.Random) -> list[dict]:
    # anchors: L n = 2 at O/3 (ramified) and O/5 (inert, 65,220,625 nodes), the
    # M kernel, and #SU at O/p for n = 1
    cases = [_verify("su-count", "L", 2, 3, 3), _verify("su-count", "L", 2, 3, 5),
             _verify("kernel", "M", 2), _verify("su-count", "L", 1, 3, 3),
             _verify("su-count", "L", 1, 3, 5), _verify("su-count", "L", 1, 7, 11)]
    for lattice, classes in (("L", ("split", "inert")), ("M", CLASSES)):
        for c in classes:
            cases.append(_verify("su-count", lattice, 2,
                                 rng.choice(class_pool(3, c, exclude=(3,))), 3))
    return cases


def killing(rng: random.Random) -> list[dict]:
    # drawn d of one size band, so the Bareiss integers have similar lengths
    fields = [3, 1] + [rng.choice([d for d in FIELDS if 101 <= d <= 199 and d % 4 == r])
                       for r in (3, 1)]
    cases = []
    for lattice in ("L", "M"):
        grams = [{"kind": "gram", "lattice": lattice, "n": n, "d": d}
                 for d in fields for n in (2, 5, 8)]
        # a basis direction e_k/f_k at n = 3 and 9, an integer combination at n = 6
        curvatures = [{"kind": "curvature", "lattice": lattice, "n": n,
                       "d": rng.choice(fields), "element": rng.randrange(2 * n)}
                      for n in (3, 9)]
        coeffs = [0] * 12
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in range(12)]
        curvatures.append({"kind": "curvature", "lattice": lattice, "n": 6,
                           "d": rng.choice(fields), "coeffs": coeffs})
        cases += [{"kind": "killing", "items": grams}, {"kind": "killing", "items": curvatures}]
    return cases


GENERATORS = {"volume-table": volume_table, "oracle-lift": oracle_lift,
              "oracle-deep": oracle_deep, "killing": killing}


def make_cases(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
