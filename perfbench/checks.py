"""Checks of program outputs against facts worked out apart from the program.

Every expected value here comes from classical topology (the homology of
standard spaces, the Künneth and universal-coefficient theorems, Poincaré
duality, the genus formula for Reeb graphs on closed orientable surfaces) or
from the construction parameters of an input.  None is a stored copy of an
earlier output.  Each check returns a list of problems; an empty list means
the output passed.

This module imports nothing from the program, so a fault in the program
cannot hide a fault in a check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def group(rank, *torsion):
    """One integral homology group Z^rank + sum of Z/t."""
    return (rank, tuple(torsion))


def torus_groups():
    return [group(1), group(2), group(1)]


def klein_groups():
    return [group(1), group(1, 2), group(0)]


def rp2_groups():
    return [group(1), group(0, 2), group(0)]


def circle_groups():
    return [group(1), group(1)]


def sphere_groups(n):
    return [group(1)] + [group(0)] * (n - 1) + [group(1)]


def surface_groups(genus):
    """Closed orientable surface of the given genus."""
    return [group(1), group(2 * genus), group(1)]


def _tensor(t1, t2):
    """Invariant factors of (+Z/a) tensor (+Z/b): Z/gcd(a, b) per pair."""
    return [gcd(a, b) for a in t1 for b in t2 if gcd(a, b) > 1]


def kunneth(ga, gb):
    """Integral homology of a product from its factors (Künneth formula).

    H_n(A x B) = sum_{p+q=n} H_p(A) (x) H_q(B)  +  sum_{p+q=n-1} Tor(H_p(A), H_q(B)),
    with Z (x) G = G, Z/a (x) Z/b = Z/gcd(a,b) and Tor(Z/a, Z/b) = Z/gcd(a,b).
    """
    top = len(ga) + len(gb) - 2
    out = []
    for n in range(top + 1):
        rank = 0
        torsion = []
        for p in range(len(ga)):
            q = n - p
            if 0 <= q < len(gb):
                (ra, ta), (rb, tb) = ga[p], gb[q]
                rank += ra * rb
                torsion += list(ta) * rb + list(tb) * ra + _tensor(ta, tb)
            q = n - 1 - p
            if 0 <= q < len(gb):
                torsion += _tensor(ga[p][1], gb[q][1])
        out.append(group(rank, *canonical_torsion(torsion)))
    return out


def wedge_groups(ga, gb):
    """Homology of a one-point union: reduced homology adds up."""
    top = max(len(ga), len(gb))
    pad = [group(0)] * top
    ga = list(ga) + pad[len(ga):]
    gb = list(gb) + pad[len(gb):]
    out = [group(1)]
    for p in range(1, top):
        out.append(
            group(ga[p][0] + gb[p][0], *canonical_torsion(ga[p][1] + gb[p][1]))
        )
    return out


def canonical_torsion(factors):
    """Invariant factors d_1 | d_2 | ... of a finite abelian group.

    The group is given as any sum of cyclic groups; the answer is the unique
    divisor chain, found by splitting each factor into prime powers.
    """
    powers = {}
    for d in factors:
        n = d
        p = 2
        while n > 1:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                powers.setdefault(p, []).append(p**e)
            p += 1
    chains = [sorted(v, reverse=True) for v in powers.values()]
    length = max((len(c) for c in chains), default=0)
    out = []
    for i in range(length):
        d = 1
        for c in chains:
            if i < len(c):
                d *= c[i]
        out.append(d)
    return tuple(sorted(out))


def mod2_ranks(groups):
    """Dimensions of H_p(X; Z/2) by the universal coefficient theorem.

    dim H_p(X; Z/2) = b_p + (even factors of H_p) + (even factors of H_{p-1}).
    """
    even = [sum(1 for t in torsion if t % 2 == 0) for _, torsion in groups]
    return [
        rank + even[p] + (even[p - 1] if p else 0)
        for p, (rank, _) in enumerate(groups)
    ]


def check_homology_report(report, expected, coefficients="Z", reduced=False):
    """A `reebtop homology` report against classical groups.

    `expected` is the integral homology; mod-2 and reduced answers are
    derived from it here, never read from the program.
    """
    problems = []
    got = report.get("groups", [])
    if coefficients == "Z2":
        want = [group(r) for r in mod2_ranks(expected)]
    else:
        want = list(expected)
    if reduced:
        want[0] = group(want[0][0] - 1, *want[0][1])
    got_groups = [(g["rank"], tuple(g["torsion"])) for g in got]
    if [g["degree"] for g in got] != list(range(len(got))):
        problems.append(f"degrees out of order: {[g['degree'] for g in got]}")
    if got_groups != want:
        problems.append(f"groups {got_groups} != expected {want}")
    alt = sum((-1) ** p * rank for p, (rank, _) in enumerate(got_groups))
    if reduced:
        alt += 1
    if report.get("euler_characteristic") != alt:
        problems.append(
            f"euler_characteristic {report.get('euler_characteristic')}"
            f" != alternating sum of ranks {alt}"
        )
    if report.get("pass") is not True:
        problems.append("report does not pass")
    return problems


# ---------------------------------------------------------------------------
# doubled models
# ---------------------------------------------------------------------------

# Homology of each built-in doubled instance, from the handle decomposition
# of the base and the doubled pieces (package README table).
DOUBLES_HOMOLOGY = {
    "disc_in_disc": [group(1), group(0), group(1)],
    "annulus_core": [group(1), group(2), group(1)],
    "pants_band": [group(1), group(3), group(1)],
    "pants_two_discs": [group(1), group(2), group(2)],
    "solid_torus_core": [group(1), group(1), group(1), group(1)],
}


def check_doubles_report(report):
    """A `reebtop verify-doubles` report: table homology, every claim passes."""
    problems = []
    seen = set()
    for inst in report.get("instances", []):
        name = inst.get("instance")
        seen.add(name)
        for claim in inst.get("claims", []):
            if claim.get("pass") is not True:
                problems.append(f"{name}: claim {claim.get('claim_id')} fails")
        homology = [c for c in inst.get("claims", []) if c.get("anchor") == "top-homology"]
        if len(homology) != 1:
            problems.append(f"{name}: no single homology claim")
            continue
        got = [(g["rank"], tuple(g["torsion"])) for g in homology[0]["computed"]]
        if got != DOUBLES_HOMOLOGY.get(name):
            problems.append(f"{name}: homology {got} != table {DOUBLES_HOMOLOGY.get(name)}")
    if seen != set(DOUBLES_HOMOLOGY):
        problems.append(f"instances {sorted(seen)} != {sorted(DOUBLES_HOMOLOGY)}")
    if report.get("pass") is not True:
        problems.append("suite does not pass")
    return problems


# ---------------------------------------------------------------------------
# cohomology rings of closed orientable surfaces
# ---------------------------------------------------------------------------


def determinant(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def check_surface_ring(report, genus):
    """Cohomology ring of a closed orientable surface of the given genus.

    H^0 = Z, H^1 = Z^2g, H^2 = Z without torsion, and the cup pairing
    H^1 x H^1 -> H^2 = Z is antisymmetric and unimodular (Poincaré duality).
    """
    problems = []
    degrees = {int(p): d for p, d in report.get("degrees", {}).items()}
    ranks = [degrees.get(p, {}).get("rank") for p in range(3)]
    if ranks != [1, 2 * genus, 1]:
        problems.append(f"cohomology ranks {ranks} != [1, {2 * genus}, 1]")
    if any(degrees.get(p, {}).get("torsion") for p in range(3)):
        problems.append("torsion in the cohomology of an orientable surface")
    basis = degrees.get(1, {}).get("basis", [])
    pairing = {}
    for prod in report.get("products", []):
        if prod.get("degree") == 2 and prod["left"] in basis and prod["right"] in basis:
            coords = prod["coordinates"]
            if len(coords) != 1:
                problems.append(f"{prod['left']} cup {prod['right']} has {len(coords)} coordinates")
                continue
            pairing[prod["left"], prod["right"]] = coords[0]
    if set(pairing) != set(itertools.product(basis, basis)):
        problems.append("cup pairing on H^1 is incomplete")
        return problems
    m = [[pairing[a, b] for b in basis] for a in basis]
    if any(m[i][j] != -m[j][i] for i in range(len(m)) for j in range(len(m))):
        problems.append(f"cup pairing {m} is not antisymmetric")
    det = determinant(m)
    if abs(det) != 1:
        problems.append(f"cup pairing determinant {det} is not +-1")
    if report.get("pass") is not True:
        problems.append("report does not pass")
    return problems


# ---------------------------------------------------------------------------
# Reeb graphs
# ---------------------------------------------------------------------------


def graph_counts(graph):
    """Nodes, edges, sorted degrees and Betti numbers of a graph JSON."""
    ids = [n["id"] for n in graph["nodes"]]
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = {i: 0 for i in ids}
    for u, v in graph["edges"]:
        degree[u] += 1
        degree[v] += 1
        parent[find(u)] = find(v)
    components = len({find(i) for i in ids})
    return {
        "nodes": len(ids),
        "edges": len(graph["edges"]),
        "degrees": sorted(degree.values()),
        "betti0": components,
        "betti1": len(graph["edges"]) - len(ids) + components,
    }


def critical_points(triangles, values):
    """Minima, maxima, simple saddles and multi-saddles of a PL vertex field.

    `triangles` triangulate a closed surface, so each vertex link is one
    cycle.  Walking that cycle, a vertex whose link has no lower neighbour
    is a minimum, none higher a maximum, one lower arc a regular point, two
    lower arcs a simple saddle and three or more a multi-saddle.
    """
    link = {}
    for t in triangles:
        for v in t:
            a, b = [u for u in t if u != v]
            link.setdefault(v, {}).setdefault(a, []).append(b)
            link.setdefault(v, {}).setdefault(b, []).append(a)
    counts = {"minima": 0, "maxima": 0, "saddles": 0, "multi_saddles": 0}
    for v, adj in link.items():
        if any(len(n) != 2 for n in adj.values()):
            raise ValueError(f"link of {v!r} is not a cycle")
        start = next(iter(adj))
        cycle, prev, cur = [start], None, start
        while True:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            if nxt == start:
                break
            cycle.append(nxt)
            prev, cur = cur, nxt
        if len(cycle) != len(adj):
            raise ValueError(f"link of {v!r} is not one cycle")
        lower = [values[u] < values[v] for u in cycle]
        arcs = sum(1 for i in range(len(lower)) if lower[i] and not lower[i - 1])
        if not any(lower):
            counts["minima"] += 1
        elif all(lower):
            counts["maxima"] += 1
        elif arcs == 2:
            counts["saddles"] += 1
        elif arcs > 2:
            counts["multi_saddles"] += 1
    return counts


def morse_degrees(critical):
    """Degrees of the smoothed Reeb graph of a PL Morse field on a closed
    orientable surface: a leaf per extremum and, since a simple saddle on
    an orientable surface splits one contour in two or merges two, a
    degree-three node per saddle."""
    return [1] * (critical["minima"] + critical["maxima"]) + [3] * critical["saddles"]


def check_reeb_report(report, genus, degrees=None):
    """Reeb graph of a Morse field on a closed orientable surface of given genus.

    The Reeb graph of a Morse function on a closed orientable surface is
    connected and has exactly `genus` independent loops (Cole-McLaughlin et
    al., SoCG 2003).  Counts are taken from the graph itself and must also
    agree with the report's own invariants.  `degrees`, when given, is the
    expected sorted degree list of the smoothed graph.
    """
    problems = []
    counts = graph_counts(report["graph"])
    if counts["betti0"] != 1:
        problems.append(f"Reeb graph has {counts['betti0']} components, expected 1")
    if counts["betti1"] != genus:
        problems.append(f"Reeb graph has {counts['betti1']} loops, expected genus {genus}")
    if degrees is not None and counts["degrees"] != sorted(degrees):
        problems.append(f"degrees {counts['degrees']} != expected {sorted(degrees)}")
    inv = report.get("invariants", {})
    for key in ("nodes", "edges", "degrees", "betti0", "betti1"):
        if inv.get(key) != counts[key]:
            problems.append(f"invariant {key} {inv.get(key)} != graph count {counts[key]}")
    if report.get("graph", {}).get("smoothed") is not True:
        problems.append("graph was not smoothed")
    if report.get("pass") is not True:
        problems.append("report does not pass")
    return problems


# ---------------------------------------------------------------------------
# vertex links of a flapped concentric disc
# ---------------------------------------------------------------------------


def expected_link_counts(k, rings, flaps):
    """Link types of concentric_disc(k, rings) with `flaps` interior rings flapped.

    Each flapped ring carries k vertices where three sheets meet (theta
    links); the outer boundary ring and each flap's free rim carry k
    vertices each with arc links; every other vertex is interior to a sheet
    (circle links).  The disc has 1 + k*rings vertices and each flap adds k.
    """
    total = 1 + k * rings + k * flaps
    theta = k * flaps
    arc = k * (1 + flaps)
    return {"theta": theta, "arc": arc, "circle": total - theta - arc}


def check_local_structure(report, k, rings, flaps):
    problems = []
    want = expected_link_counts(k, rings, flaps)
    got = dict(report.get("counts", {}))
    if got != want:
        problems.append(f"link counts {got} != expected {want}")
    if report.get("violations"):
        problems.append(f"{len(report['violations'])} link violations")
    if report.get("pass") is not True:
        problems.append("local structure check does not pass")
    return problems


# ---------------------------------------------------------------------------
# collapse certificates
# ---------------------------------------------------------------------------


def replay_collapse(simplices, steps):
    """Replay elementary collapses with explicit checks; return (alive, problems).

    Each step (f, tau) must remove a face f whose only remaining proper coface
    is tau, where tau is one dimension higher and contains f.
    """
    alive = set(simplices)
    cofaces = {s: set() for s in alive}
    for s in alive:
        for k in range(1, len(s)):
            for f in itertools.combinations(s, k):
                if f in cofaces:
                    cofaces[f].add(s)
    for n, (f, tau) in enumerate(steps):
        f, tau = tuple(f), tuple(tau)
        if f not in alive or tau not in alive:
            return alive, [f"step {n}: {f} or {tau} was already removed"]
        if len(tau) != len(f) + 1 or not set(f) < set(tau):
            return alive, [f"step {n}: {tau} is not a coface of {f} one dimension up"]
        if cofaces[f] != {tau}:
            return alive, [f"step {n}: {f} is not free, cofaces {len(cofaces[f])}"]
        for gone in (tau, f):
            alive.discard(gone)
            for k in range(1, len(gone)):
                for g in itertools.combinations(gone, k):
                    if g in cofaces:
                        cofaces[g].discard(gone)
    return alive, []


def check_collapse_to_point(simplices, steps):
    alive, problems = replay_collapse(simplices, steps)
    if problems:
        return problems
    if len(alive) != 1 or len(next(iter(alive))) != 1:
        return [f"collapse ends at {len(alive)} simplices, not one vertex"]
    return []


def check_collapse_onto(simplices, steps, target):
    alive, problems = replay_collapse(simplices, steps)
    if problems:
        return problems
    if alive != set(target):
        return [f"collapse ends at {len(alive)} simplices, not the {len(target)} of the base"]
    return []
