"""The reference loop: a fixed piece of pure-Python work, the benchmark's yardstick.

The machine this benchmark runs on is shared, and its speed changes from
second to second and from hour to hour by up to 2x.  While a pass runs,
the worker runs this loop from a timer signal for a tenth of the time, so
the loops sample the machine's speed evenly through the pass, and it
divides the pass's time, without the loops, by the mean time of its
loops.  Times are then reported at reference speed, the speed at which one
reference loop takes `REF_SECONDS`, so that a run in a slow hour and one
in a fast hour read alike.  The loop imports nothing from the program and
does the kinds of work the program does: integer row operations on a dense
0/±1 matrix as in Smith normal form, frozenset faces and a dict of edge
counts as in building a complex, and sorting with union-find as in a
sweep.  A change to the program cannot change it.
"""

from __future__ import annotations


# Wall time of one loop at reference speed; a run's mean loop took 7.3 to
# 10.8 ms on a shared 2.1 GHz Xeon vCPU under Python 3.11.  Only a scale:
# it sets the units of the reported times, never their ratios.
REF_SECONDS = 0.008


def reference():
    """The fixed work; returns a checksum so that none of it is skipped."""
    rows, cols = 80, 120
    m = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for t in range(3):
            i = (j * 37 + t * 53) % rows
            m[i][j] = 1 if (i + j + t) % 2 else -1
    used = set()
    for c in range(cols):
        piv = next((r for r in range(rows) if r not in used and m[r][c] in (1, -1)), None)
        if piv is None:
            continue
        used.add(piv)
        prow = m[piv]
        for r in range(rows):
            x = m[r][c]
            if r != piv and x:
                q = -x * prow[c]
                row = m[r]
                for k in range(cols):
                    if prow[k]:
                        row[k] += q * prow[k]

    n = 24
    faces = set()
    for i in range(n):
        for j in range(n):
            a, b = i * n + j, i * n + (j + 1) % n
            c, d = ((i + 1) % n) * n + j, ((i + 1) % n) * n + (j + 1) % n
            faces.add(frozenset((a, b, c)))
            faces.add(frozenset((b, c, d)))
    edges = {}
    for f in faces:
        for v in f:
            e = f - {v}
            edges[e] = edges.get(e, 0) + 1

    parent = list(range(n * n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        a, b = tuple(e)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    order = sorted(range(n * n), key=lambda v: ((v * 7919) % 1009, v))
    return sum(map(sum, m)) + len(edges) + len({find(v) for v in order})


CHECKSUM = 1721
