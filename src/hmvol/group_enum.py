"""Counting of (special) unitary groups over residue rings O_K/p^N.

#U(Lam, O/m), m = p^N, is counted by recursion over complement Gram classes.
Let count(G, lams) be the number of r x r matrices A over O/m with
A G A* = diag(lams); then #U = count(Lam, lam).  Every lams[0] with r >= 2 is
1, a unit.  A first row x then has q = h(x, x) a unit and a unit coordinate
x_i0 (i0 the first), the rows B_j = e_j - (h(e_j, x) / q) x, j != i0, are a
basis of x^⊥ with det [x; B] = +-x_i0, and every completion of x is [x; C B]
for exactly one C.  So count(G, lams) is the sum over the rows x of
count(B G B*, lams[1:]), and count(P G P*, lams) = count(G, lams) for every
invertible P; at r = 1 it is the number of c with N(c) g = lams[0].

#SU is #U over one determinant fiber.  Let lam_w be the last entry of Lam.
Every A in U has N(det A) lam_w = lam_w, and for every t with
N(t) lam_w = lam_w, D_t = diag(1, ..., 1, t) is in U.  Such a t is a unit
(N(t) = 1 for a unit lam_w, N(t) = 1 mod 2^(N-1) for lam_w = -2 over O/2^N,
N >= 2) but for M over O/2, so A -> A D_t maps det^-1(s) one-to-one onto
det^-1(ts), and #SU = #U / #{t : N(t) lam_w = lam_w} (_Ring.fiber).  Over
O/2, M has lam_w = 0 and every t qualifies, non-units too; A Lam A* reads
only the first n columns of A, whose upper n x n block C has C C* = I, so
the last column is free and det A is linear in it, with the unit +-det C as
the coefficient of its last entry: again every fiber has the same size.

Every class the search meets is D = diag(1, ..., 1, g) of some rank r, keyed
(r, g); the top form diag(lam) is (w, lam[-1]), w = n + 1, as it stands.  A
non-unit g adds only non-units to a value, so a unit-norm row has a unit
coordinate among the unit entries.  Writing x = s y with s its first unit
coordinate, so that y's is 1, B depends on y only and N(s) = lams[0] /
h(y, y): the search runs over these projective rows y and counts the s of
each by its norm.  Since [y; B] D [y; B]* = diag(q, B D B*) with
det [y; B] = +-1, q det(B D B*) = g, and the child of a row y is read off
g' = g / q: it is (r - 1, rep[g']) (a non-unit g' is kept as it is).  That
the complement B D B* is this form up to isometry, or counts as it does,
holds class by class:
- A binary class (r = 2) has the 1 x 1 complement [g'], and scaling it by a
  unit gives [rep[g']].  Every level of an n = 1 count is binary, and so is
  every level below the top of an n = 2 count.
- At odd p every class is a diagonal of units.  A unimodular form of rank
  >= 2 represents every unit (reduced mod p it is a nondegenerate form over
  the residue field, and Hensel's lemma lifts the representation), so it
  splits off norm-1 vectors down to diag(1, ..., 1, g) (Jacobowitz, Amer. J.
  Math. 84, 1962: such a form is fixed by its rank and the norm class of its
  determinant).
- At an unramified 2 (trace_eps odd) Tr(O) = Z_2.  If every vector of a
  unimodular form had an even norm, Tr h(x, z) = h(x + z, x + z) - h(x, x)
  - h(z, z) would be even for all x and z; scaling z by a unit of odd trace
  rules that out.  So every unimodular form has a unit-norm vector and splits
  down to a diagonal, and the norms of the units are all units (Jacobowitz,
  unramified case).  For M a child keeps a non-unit last entry g.
- At a ramified 2 (trace_eps even) Tr(O) lies in 2 Z_2, so x -> h(x, x) mod 2
  is additive.  The units of Z/m are odd, so it is h(x, e) mod pi, for the
  uniformizer pi and e the vector with a 1 at each unit entry and 0 elsewhere.
  As D = O y ⊥ y^⊥, the complement y^⊥ has no unit-norm vector exactly when
  h(., e) vanishes mod pi on it, that is, when e = y mod pi at the unit
  entries: when every coordinate of y at a unit entry is a unit.  Such a
  child of rank >= 2 is dead, because its lams[0] = 1 needs a unit-norm
  vector.  Its rows are counted apart (_Ring.dead), with no class key, and
  the meter charges each of them the c[1] it charges every dead child.  Every
  other child is odd: L's is odd unimodular and so fixed by its rank and
  determinant class (Jacobowitz, ramified case), and M's is odd unimodular
  ⊥ <2u>, whose representation numbers and counts the tests check against
  the canonical forms of a row-by-row reference.

So the child and weight of a row depend on q = h(y, y) only, and the
rows of a class are counted by value, not one by one, by recurrences on rank
over the first coordinate y_0.  Write N, U and T for the norm counts of all
elements, of the non-unit-norm ones and of the unit-norm ones, X_g for the
counts of g v (_Ring.scaled), X * Y for the cyclic convolution over Z/m
(_Ring.convolve) and shift_1 for adding 1 to every value.  On the class (r, g):
- its vectors (_Ring.dist): dist(1, g) = N_g, dist(r, g) = N * dist(r - 1, g);
- its projective rows (_Ring.rows): rows(1, g) = delta_g for a unit g, else
  0, and rows(r, g) = shift_1(dist(r - 1, g)) + U * rows(r - 1, g), for
  y_0 = 1 and any rest, or N(y_0) a non-unit and the rest projective;
- its dead rows (_Ring.dead): dead(2, g) = shift_1(T_g), or shift_1(N_g) for
  a non-unit g, and dead(r, g) = T * dead(r - 1, g).
_Ring is one count: it memoizes each by (r, g), like each class's level,
charge and count, and holds the package's only arithmetic over O/m, on lists
of Python ints.  A count reads nothing else, so it is exact at any size.

Work is metered in the partial assignments a row-by-row search settles,
computed per class rather than per prefix: the m^(2w) rows of the table,
then at each level with r >= 3 classes, for every first row, each later
class's size while the earlier classes all survive, plus the level below for
the rows whose classes all survive; two classes cost the product of their
sizes.  Class sizes are representation numbers of the complement forms.
Each class's total is memoized like its count.  nodes is the row table plus
the top class's total, checked against the budget at two points: the row
table before any table is built, then the sum before the count.  Exceeding
the budget raises BudgetExceeded, which deliberately distinguishes
"infeasible under this budget" from a zero count; past the row table it
reports the full total, the least budget that passes.

count_kernel counts the reduction kernels of the 2-adic densities by exact
elimination over Z/2^k, not by enumeration, so it needs no budget.  The
system splits into blocks that share no variable: for each pair i < j the two
rows of lam_j B_ij + lam_i conj(B_ji) = 0 read only a_ij, b_ij, a_ji, b_ji and
depend only on (lam_i, lam_j), and the diagonal rows lam_i (2 a_ii + t b_ii)
= 0 are tied together only by the two rows of Tr B = 0.  So the count is the
product of the blocks' counts, and with lam = (1, ..., 1, lam_w) it is
c(1, 1)^C(n, 2) c(1, lam_w)^n c_diag: three small systems, each eliminated
from its rows by a full scan.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .lie_form import lattice_diag
from .quadfield import FieldData, make_field
from .residue_ring import ResidueRing

DEFAULT_BUDGET = 10**9
# Hard cap on m^(2w), the number of rows of (O/m)^w, independent of the
# budget; the meter charges every one of them, and rings beyond it are
# refused before any table is built.  Counting by value needs no such bound:
# the cap keeps the documented refusals until the meter charges the work done.
_MAX_ROW_TABLE = 3 * 10**7


class BudgetExceeded(RuntimeError):
    """Enumeration refused: the node budget would be exceeded (not a zero count)."""


def default_budget() -> int:
    """The node budget: HMVOL_BUDGET if set (any finite number >= 0, so "2.5e9"
    works), else DEFAULT_BUDGET.  Anything else raises ValueError."""
    raw = os.environ.get("HMVOL_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(float(raw))
    except (ValueError, OverflowError):
        budget = None
    if budget is None or budget < 0:
        raise ValueError(f"HMVOL_BUDGET must be a finite number >= 0, got {raw!r}")
    return budget


@dataclass
class CountReport:
    count: int
    elapsed: float
    nodes: int
    keys: int  # complement classes counted: the size of _Ring.count's memo


def _metered(nodes: int, budget: int) -> int:
    """nodes, refused past the budget."""
    if nodes > budget:
        raise BudgetExceeded(
            f"enumeration budget exceeded: {nodes} > {budget} visited partial assignments")
    return nodes


class _Ring:
    """One count over O/m: the tables of Z/m and of the norm, lists of Python
    ints, and the classes met, keyed (r, g) for diag(1, ..., 1, g), whose
    value counts, levels, meter charges and counts are memoized per instance.
    A class of rank r has the diagonal lam[w - r:]."""

    def __init__(self, ring: ResidueRing, lam):
        m = self.m = ring.modulus
        t, nu = self.t, self.nu = ring.trace_eps, ring.norm_eps
        self.lam = tuple(l % m for l in lam)
        self.top = (len(self.lam), self.lam[-1])
        self.unit = [math.gcd(a, m) == 1 for a in range(m)]
        self.inv = [pow(a, -1, m) if u else 0 for a, u in enumerate(self.unit)]
        self.norm_count = [0] * m
        for b in range(m):
            for a in range(m):
                self.norm_count[(a * a + t * a * b + nu * b * b) % m] += 1
        # the norm counts of the unit-norm elements and of the others
        self.unit_count = [c if u else 0 for u, c in zip(self.unit, self.norm_count)]
        self.nonunit_count = [0 if u else c for u, c in zip(self.unit, self.norm_count)]
        # rep[g] is the least element of g N(units) for a unit g; non-units are
        # left as they are
        unit_norms = [a for a, c in enumerate(self.unit_count) if c]
        self.rep = [min(g * u % m for u in unit_norms) if self.unit[g] else g for g in range(m)]
        # memoized for this count, by (rank, g) or by key
        for name in ("dist", "rows", "dead", "level", "charge", "count"):
            setattr(self, name, cache(getattr(self, name)))

    def convolve(self, a, b):
        """The ways x + y takes each value of Z/m, x and y taking the value v in
        a[v] and b[v] ways: the exact cyclic convolution, over nonzero terms."""
        m, out, h = self.m, [0] * self.m, [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in h:
                    out[(i + j) % m] += x * y
        return out

    def scaled(self, counts, g, shift=0):
        """The counts of shift + g v, v taking the value a in counts[a] ways."""
        out = [0] * self.m
        for a, c in enumerate(counts):
            out[(shift + g * a) % self.m] += c
        return out

    def dist(self, r, g):
        """dist[a] = #{y : h(y, y) = a} on diag(1, ..., 1, g) of rank r: N^(r-1) N_g."""
        if r == 1:
            return self.scaled(self.norm_count, g)
        return self.convolve(self.norm_count, self.dist(r - 1, g))

    def rows(self, r, g):
        """rows[q] = #{y : h(y, y) = q} over level's projective rows y of
        diag(1, ..., 1, g): y_0 = 1 and any rest, or N(y_0) a non-unit and the
        rest projective; at rank 1, y_0 = 1 if g is a unit."""
        if r == 1:
            return [int(a == g and self.unit[g]) for a in range(self.m)]
        return [x + y for x, y in zip(self.scaled(self.dist(r - 1, g), 1, 1),
                                      self.convolve(self.nonunit_count, self.rows(r - 1, g)))]

    def dead(self, r, g):
        """dead[q] = #{y : h(y, y) = q} over the projective rows y of
        diag(1, ..., 1, g), r >= 2, whose coordinates at the unit entries are all
        units: at a ramified 2, the rows whose complement has no unit-norm vector."""
        if r > 2:
            return self.convolve(self.unit_count, self.dead(r - 1, g))
        return self.scaled(self.unit_count if self.unit[g] else self.norm_count, g, 1)

    def fiber(self, g):
        """#{t : N(t) g = g}: for g = lam_w, #U / #SU (module docstring)."""
        return sum(c for a, c in enumerate(self.norm_count) if a * g % self.m == g)

    def lams(self, key):
        return self.lam[len(self.lam) - key[0]:]

    def reps(self, key):
        """The sizes of the key's classes: representation numbers of its lams."""
        dist = self.dist(*key)
        return [dist[l] for l in self.lams(key)]

    def level(self, key):
        """({child key: rows}, dead rows) over the rows x with x D x* = lams[0],
        where a row's child is (r - 1, rep[g]), g = det D / q; at a ramified 2
        the rows whose complement has no unit-norm vector are dead and counted
        apart.  The rows are counted by value (rows, dead)."""
        m, (r, det), lam0 = self.m, key, self.lams(key)[0]
        # at a ramified 2 a child of rank >= 2 may have no unit-norm vector
        dead = self.dead(r, det) if r >= 3 and m % 2 == 0 and self.t % 2 == 0 else [0] * m
        sizes, dead_rows = {}, 0
        for q, (rows, lost) in enumerate(zip(self.rows(r, det), dead)):
            # the rows x = s y of each y, counted by N(s) = lams[0] / q
            weight = self.norm_count[lam0 * self.inv[q] % m] if self.unit[q] else 0
            if weight and rows > lost:
                child = (r - 1, self.rep[det * self.inv[q] % m])
                sizes[child] = sizes.get(child, 0) + weight * (rows - lost)
            dead_rows += weight * lost
        assert sum(sizes.values()) + dead_rows == self.reps(key)[0], \
            "projective rows missed a unit-norm row"
        return sizes, dead_rows

    def charge(self, key) -> int:
        """The partial assignments a row-by-row search settles below the class
        `key`: c0 c1 for two classes; with more, for each first row, each later
        class's size c_k while the earlier classes of its complement all
        survive, and the level below when they all do.  A dead row's complement
        has no unit-norm vector, so it stops after c1."""
        c = self.reps(key)
        if len(c) == 2:
            return c[0] * c[1]
        children, dead_rows = self.level(key)
        total = dead_rows * c[1]
        for child, rows in children.items():
            sizes = self.reps(child)
            # a complement with an empty class stops after that class
            total += rows * (sum(c[1:sizes.index(0) + 2]) if 0 in sizes
                             else sum(c[1:]) + self.charge(child))
        return total

    def count(self, key) -> int:
        """count(D, lams): the matrices A with A D A* = diag(lams)."""
        if key[0] == 1:
            return self.reps(key)[0]
        return sum(rows * self.count(child) for child, rows in self.level(key)[0].items()
                   if min(self.reps(child)) > 0)


def count_group(lattice: str, n: int, ring: ResidueRing, group: str = "SU",
                budget: int | None = None) -> CountReport:
    """Exact order of U/SU(Lam, O_K/p^N O_K) for Lam = diag(1,...,1,-1) or (1,...,1,-2)."""
    if group not in ("U", "SU"):
        raise ValueError(f"group must be 'U' or 'SU', got {group!r}")
    lam = lattice_diag(lattice, n)
    budget = default_budget() if budget is None else budget
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    t0 = time.monotonic()
    power = 2 * len(lam) * ring.exponent
    # p >= 2, so a power of 2 past the cap refuses before p^power is formed
    if power >= _MAX_ROW_TABLE.bit_length() or ring.p**power > _MAX_ROW_TABLE:
        # stated as a power: a decimal row count can pass Python's int -> str limit
        raise BudgetExceeded(f"candidate row table of {ring.p}^{power}"
                             " rows does not fit the enumeration budget")
    nodes = _metered(ring.p**power, budget)
    R = _Ring(ring, lam)
    nodes = _metered(nodes + R.charge(R.top), budget)
    count = R.count(R.top)
    if group == "SU":
        count, rest = divmod(count, R.fiber(R.lam[-1]))
        assert not rest, "#U is not a multiple of the determinant fiber"
    return CountReport(count=count, elapsed=time.monotonic() - t0, nodes=nodes,
                       keys=R.count.cache_info().currsize)


# The 2-adic density of each form is #SU over O/2^N with the kernel of the
# last certified reduction counted over O/2^k: lattice -> (N, k).
_TWO_ADIC_LEVELS = {"L": (3, 1), "M": (5, 2)}


def _solutions(rows: list[dict[int, int]], m: int, free: int) -> int:
    """Solutions over Z/m, m = 2^k, of the Z-linear rows {variable: coefficient}
    in `free` variables, by elimination: a pivot u*2^v of least 2-adic valuation,
    found by a scan of every row, clears its column from the other rows and
    leaves 2^v solutions for its variable; every variable without a pivot is
    free."""
    rows = [{var: c % m for var, c in r.items() if c % m} for r in rows]
    count = 1
    while any(rows):
        # c & -c is 2^v for an entry of valuation v
        low, k, col = min((c & -c, k, var) for k, r in enumerate(rows) for var, c in r.items())
        pivot = rows.pop(k)
        inv = pow(pivot[col] // low, -1, m)
        for r in rows:
            if col in r:
                f = r[col] // low * inv
                for var, c in pivot.items():
                    r[var] = (r.get(var, 0) - f * c) % m
                    if not r[var]:
                        del r[var]
        count *= low
        free -= 1
    return count * m**free


def count_kernel(lattice: str, n: int, field: FieldData | None = None) -> int:
    """Solutions B, B_ij = a_ij + b_ij*eps, of the linearized reduction-kernel
    system {-B.Lam = Lam.conj(B)', Tr B = 0} over O/2O (L) or O/4O (M), counted
    block by block (see the module docstring).  For 2-ramified fields this is
    2^(n^2+3n) for L and 2^(2n^2+5n) for M."""
    field = make_field(5) if field is None else field
    lam = lattice_diag(lattice, n)
    m, w = 2 ** _TWO_ADIC_LEVELS[lattice][1], n + 1
    t = field.trace_eps % m

    def pair(li: int, lj: int) -> int:
        # lam_j B_ij + lam_i conj(B_ji) = 0 with conj(a + b eps) = (a + t b) - b eps,
        # in a_ij, b_ij, a_ji, b_ji (variables 0..3); equation (j, i) is its conjugate
        return _solutions([{0: lj, 2: li, 3: li * t}, {1: lj, 3: -li}], m, 4)

    # a_ii is variable 2i and b_ii the next
    diag = [{2 * i + s: 1 for i in range(w)} for s in (0, 1)]  # Tr B = 0
    diag += [{2 * i: 2 * lam[i], 2 * i + 1: lam[i] * t} for i in range(w)]
    count = pair(1, lam[-1]) ** n * _solutions(diag, m, 2 * w)
    # the C(n, 2) pairs i < j < n have lam_i = lam_j = 1; at n = 1 there are
    # none, and that block is not eliminated at all
    return count * pair(1, 1) ** math.comb(n, 2) if n > 1 else count


def oracle_tau_p(lattice: str, n: int, field: FieldData, p: int,
                 budget: int | None = None) -> Fraction:
    """Local density from raw counts: #SU(O/pO)/p^dim for odd p; at p = 2 the
    kernel-corrected count #SU(O/2^3)/(2^(2 dim) ker) for L and
    #SU(O/2^5)/(2^(3 dim) ker) for M, with the kernel of the last certified
    reduction counted over O/2 resp. O/4."""
    dim = (n + 1) ** 2 - 1
    if p != 2:
        rep = count_group(lattice, n, ResidueRing(field, p, 1), "SU", budget=budget)
        return Fraction(rep.count, p**dim)
    level, k = _TWO_ADIC_LEVELS[lattice]
    rep = count_group(lattice, n, ResidueRing(field, 2, level), "SU", budget=budget)
    return Fraction(rep.count, 2**((level - k) * dim) * count_kernel(lattice, n, field=field))


def stabilization_check(lattice: str, n: int, field: FieldData, p: int,
                        level: int = 1, budget: int | None = None) -> bool:
    """True iff #U(O/p^(level+1)) = p^((n+1)^2) #U(O/p^level), the Hensel-driven
    stabilization that turns the local density into a finite computation."""
    lo = count_group(lattice, n, ResidueRing(field, p, level), "U", budget=budget)
    hi = count_group(lattice, n, ResidueRing(field, p, level + 1), "U", budget=budget)
    return hi.count == p**((n + 1) ** 2) * lo.count
