"""Independent reference values for the benchmark's correctness checks.

Nothing here imports vdc.  Polynomials arrive as {exponent tuple: int}
dicts built by workloads.py, never as vdc objects or parsed strings, and
every value is computed with Python ints (floats only for the smooth
weight and the poisson sums).

Box counts are done block by block: variables that share a monomial form
one block, each block is tabulated as residue -> weight sum over its own
coordinates, and the blocks are joined on residues mod m.  With the
two-variable blocks workloads.py generates, a 63^4 box costs two tables of
3969 entries instead of 15.7M point evaluations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def axis_weights(kind: str | None, B: int):
    """(offsets, weight per offset, denominator) for one coordinate.

    kind None is the plain box |x| <= B with weight 1.  Hat numerators are
    2B - |x| over the denominator 2B; the smooth weight is the float bump
    exp(-1/(1-(x/2B)^2)) with denominator None.
    """
    if kind in (None, "indicator"):
        H = B
        return list(range(-H, H + 1)), [1] * (2 * H + 1), 1
    H = 2 * B - 1
    xs = list(range(-H, H + 1))
    if kind == "hat":
        return xs, [2 * B - abs(x) for x in xs], 2 * B
    if kind == "smooth":
        return xs, [math.exp(-1.0 / (1.0 - (x / (2 * B)) ** 2)) for x in xs], None
    raise ValueError(f"unknown weight kind {kind!r}")


def _blocks(terms: dict, n: int) -> list[list[int]]:
    """Connected components of 'appear in one monomial', in variable order."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for exps in terms:
        live = [i for i, e in enumerate(exps) if e]
        for j in live[1:]:
            parent[find(j)] = find(live[0])
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def weighted_count(terms: dict, n: int, B: int, m: int, kind: str | None):
    """Sum over the box of W(x) for x with f(x) = 0 mod m.

    Returns a Fraction for exact weights and the plain box, and a float
    for the smooth weight.
    """
    xs, ws, den = axis_weights(kind, B)
    tables = []
    for block in _blocks(terms, n):
        bterms = [(c, [(block.index(i), e) for i, e in enumerate(exps) if e])
                  for exps, c in terms.items()
                  if any(exps[i] for i in block)]
        table: dict[int, object] = {}
        for idx in itertools.product(range(len(xs)), repeat=len(block)):
            r = 0
            for c, mono in bterms:
                v = c
                for j, e in mono:
                    v *= xs[idx[j]] ** e
                r += v
            r %= m
            w = 1
            for j in idx:
                w *= ws[j]
            table[r] = table.get(r, 0) + w
        tables.append(table)
    acc = {0: 1}
    for table in tables[:-1]:
        nxt: dict[int, object] = {}
        for r1, w1 in acc.items():
            for r2, w2 in table.items():
                r = (r1 + r2) % m
                nxt[r] = nxt.get(r, 0) + w1 * w2
        acc = nxt
    last = tables[-1]
    total = sum(w * last.get((-r) % m, 0) for r, w in acc.items())
    return total if den is None else Fraction(total, den**n)


def box_weight_total(n: int, B: int, kind: str):
    """(sum of w over one axis)^n: the weighted count of the zero form."""
    _, ws, den = axis_weights(kind, B)
    s = math.fsum(ws) if den is None else sum(ws)
    return s**n if den is None else Fraction(s**n, den**n)


def _eval_mod(terms, x, p):
    return sum(c * math.prod(pow(xi, e, p) for xi, e in zip(x, exps))
               for exps, c in terms) % p


def partials(terms: dict, n: int) -> list[list]:
    """The n partial derivatives, each as a list of (exps, coefficient)."""
    out = []
    for i in range(n):
        d = []
        for exps, c in terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                d.append((tuple(e), c * exps[i]))
        out.append(d)
    return out


def singular_points_fp(terms: dict, n: int, p: int) -> int:
    """Points of P^(n-1)(F_p) where F and its whole gradient vanish mod p.

    Brute force over representatives whose first nonzero coordinate is 1.
    """
    f = list(terms.items())
    grads = partials(terms, n)
    count = 0
    for x in itertools.product(range(p), repeat=n):
        nz = next((v for v in x if v), 0)
        if nz != 1:
            continue
        if _eval_mod(f, x, p) == 0 and all(_eval_mod(g, x, p) == 0 for g in grads):
            count += 1
    return count


SMOOTH_L1 = 0.8879876323361587  # integral of exp(-1/(1-(t/2)^2)) over (-2, 2)


def poisson_sums(B: int, a: int, n: int = 1) -> tuple[float, float]:
    """(lhs, main) of the progression-averaging probe, in plain floats.

    lhs = sum_x W(x/B) sum_y W((x + a y)/B) over the integer support and
    main = a^-n (sum_x W(x/B))^2, for the 1-d bump exp(-1/(1-(t/2)^2)).
    """
    H = 2 * B - 1
    x = np.arange(-H, H + 1)
    t = x / (2.0 * B)
    vals = np.exp(-1.0 / (1.0 - t * t))
    per_class = np.bincount(x % a, weights=vals, minlength=a)
    lhs_axis = float(np.dot(vals, per_class[x % a]))
    s1 = float(vals.sum())
    return lhs_axis**n, s1 ** (2 * n) / a**n
