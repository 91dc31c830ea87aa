"""One-off generator for the frozen exactness regression table.

Expected values come from routes independent of the library:
  - line intersections: sympy linear solve
  - triple emptiness: Farkas infeasibility certificates (nonnegative normal
    combination summing to zero with negative combined offset)
  - feasibility witnesses: sympy vertex enumeration, lex-min feasible vertex;
    infeasibility cross-checked by a Farkas certificate on some sub-triple

Writes tests/exactness_cases.py.
"""

import itertools
import math
import random

import sympy as sp

rng = random.Random(20260823)


def rand_rat(maxden=10**6):
    q = rng.randint(2, maxden)
    p = rng.randint(-3 * q, 3 * q)
    return sp.Rational(p, q)


def rand_dir():
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) != (0, 0):
            g = math.gcd(abs(a), abs(b))
            return (a // g, b // g)


def solve_lines(h1, h2):
    (a1, b1), c1 = h1
    (a2, b2), c2 = h2
    x, y = sp.symbols("x y")
    sols = sp.linsolve([a1 * x + b1 * y - c1, a2 * x + b2 * y - c2], x, y)
    if not sols:
        return None
    (sx, sy), = sols
    if sx.free_symbols or sy.free_symbols:
        return None
    return sp.Rational(sx), sp.Rational(sy)


def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def farkas_empty(hs):
    """True iff the closed system {n_i . p <= c_i} is infeasible."""
    idx = range(len(hs))
    for i, j in itertools.combinations(idx, 2):
        n1, c1 = hs[i]
        n2, c2 = hs[j]
        if n1 == (-n2[0], -n2[1]) and c1 + c2 < 0:
            return True
    for i, j, k in itertools.permutations(idx, 3):
        if j > k:
            continue
        n1, c1 = hs[i]
        n2, c2 = hs[j]
        n3, c3 = hs[k]
        d = det(n2, n3)
        if d == 0:
            continue
        m1 = (-n1[0], -n1[1])
        l2 = sp.Rational(det(m1, n3), d)
        l3 = sp.Rational(det(n2, m1), d)
        if l2 > 0 and l3 > 0 and c1 + l2 * c2 + l3 * c3 < 0:
            return True
    return False


def vertex_lexmin(hs):
    best = None
    for i, j in itertools.combinations(range(len(hs)), 2):
        p = solve_lines(hs[i], hs[j])
        if p is None:
            continue
        px, py = p
        if all(a * px + b * py <= c for (a, b), c in hs):
            if best is None or (px, py) < best:
                best = (px, py)
    return best


def all_parallel(hs):
    return all(
        det(hs[i][0], hs[j][0]) == 0
        for i in range(len(hs))
        for j in range(i + 1, len(hs))
    )


cases_li = []
while len(cases_li) < 18:
    h1 = (rand_dir(), rand_rat())
    h2 = (rand_dir(), rand_rat())
    cases_li.append((h1, h2, solve_lines(h1, h2)))

cases_tri = []
n_true = n_false = 0
while n_true < 8 or n_false < 8:
    hs = [(rand_dir(), rand_rat()) for _ in range(3)]
    empty = farkas_empty(hs)
    v = vertex_lexmin(hs)
    # Independent normals and no feasible vertex => empty; a vertex => not.
    if v is None and not all_parallel(hs) and not empty:
        raise RuntimeError(f"no feasible vertex and no Farkas certificate: {hs}")
    if v is not None and empty:
        raise RuntimeError(f"feasible vertex {v} and a Farkas certificate: {hs}")
    if empty and n_true < 8:
        cases_tri.append((hs, True))
        n_true += 1
    elif not empty and n_false < 8:
        cases_tri.append((hs, False))
        n_false += 1

cases_feas = []
while len(cases_feas) < 16:
    m = rng.randint(4, 6)
    hs = [(rand_dir(), rand_rat()) for _ in range(m)]
    if all_parallel(hs):
        continue
    v = vertex_lexmin(hs)
    # cross-check an empty system with a Farkas certificate on some subsystem
    if v is None and not farkas_empty(hs):
        raise RuntimeError(f"no feasible vertex and no Farkas certificate: {hs}")
    cases_feas.append((hs, v))

fmt_r = lambda r: f'"{r}"'


def fmt_h(h):
    (a, b), c = h
    return f"(({a}, {b}), {fmt_r(c)})"


lines = [
    '"""Frozen exactness regression cases.',
    "",
    "Expected values were derived by independent routes (symbolic linear",
    "solving, Farkas infeasibility certificates, independent vertex",
    'enumeration) and are asserted with zero tolerance."""',
    "",
    "# (halfplane1, halfplane2, expected_point_or_None)",
    "LINE_INTERSECTIONS = [",
]
for h1, h2, p in cases_li:
    pt = "None" if p is None else f"({fmt_r(p[0])}, {fmt_r(p[1])})"
    lines.append(f"    ({fmt_h(h1)}, {fmt_h(h2)}, {pt}),")
lines.append("]")
lines.append("")
lines.append("# ([h1, h2, h3], expected_plus_intersection_empty)")
lines.append("TRIPLE_EMPTINESS = [")
for hs, empty in cases_tri:
    lines.append(f"    ([{', '.join(fmt_h(h) for h in hs)}], {empty}),")
lines.append("]")
lines.append("")
lines.append("# (system, expected_lexmin_feasible_vertex_or_None)")
lines.append("FEASIBILITY_WITNESSES = [")
for hs, v in cases_feas:
    pt = "None" if v is None else f"({fmt_r(v[0])}, {fmt_r(v[1])})"
    lines.append(f"    ([{', '.join(fmt_h(h) for h in hs)}], {pt}),")
lines.append("]")

with open("tests/exactness_cases.py", "w") as fh:
    fh.write("\n".join(lines) + "\n")

print(f"wrote {len(cases_li)} + {len(cases_tri)} + {len(cases_feas)} cases")
