"""The Künneth formula with Tor, kept as an oracle for `homology(product(X, Y))`.

Over Z, H_k(X × Y) ≅ ⊕_{p+q=k} H_p(X) ⊗ H_q(Y) ⊕ ⊕_{p+q=k-1} Tor(H_p(X), H_q(Y))
(Hatcher, *Algebraic Topology*, §3.B).  Each group splits into cyclic
summands Z and Z/n; Z ⊗ G = G, Z/m ⊗ Z/n = Tor(Z/m, Z/n) = Z/gcd(m, n) and
Tor(Z, G) = 0.  The answer is read from the factors' (rank, torsion) pairs
alone: no complex, matrix or Smith form of the product enters it.
"""

from math import gcd


def _prime_powers(n):
    """The prime powers whose product is n, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def invariant_factors(orders):
    """The invariant factors d_1 | d_2 | ... (all above one) of ⊕ Z/n over `orders`."""
    by_prime = {}
    for n in orders:
        for p, q in _prime_powers(n):
            by_prime.setdefault(p, []).append(q)
    count = max(map(len, by_prime.values()), default=0)
    factors = [1] * count
    for powers in by_prime.values():
        # the largest power of each prime goes to the largest factor
        for i, q in enumerate(sorted(powers, reverse=True)):
            factors[count - 1 - i] *= q
    return tuple(factors)


def _tensor(a, b):
    """(rank, torsion orders) of A ⊗ B for groups given as (rank, torsion)."""
    (ra, ta), (rb, tb) = a, b
    orders = [m for m in ta for _ in range(rb)] + [n for n in tb for _ in range(ra)]
    orders += [gcd(m, n) for m in ta for n in tb]
    return ra * rb, orders


def _tor(a, b):
    """The torsion orders of Tor(A, B): Z/m and Z/n give Z/gcd(m, n)."""
    return [gcd(m, n) for m in a[1] for n in b[1]]


def kunneth(x, y):
    """[(rank, invariant factors)] of H_k(X × Y) for k = 0..dim X + dim Y.

    `x` and `y` list (rank, torsion) of H_p of each factor by degree p.
    """
    out = []
    for k in range(len(x) + len(y) - 1):
        rank, orders = 0, []
        for p in range(len(x)):
            q = k - p
            if 0 <= q < len(y):
                r, t = _tensor(x[p], y[q])
                rank, orders = rank + r, orders + t
            if 0 <= q - 1 < len(y):
                orders += _tor(x[p], y[q - 1])
        out.append((rank, invariant_factors(n for n in orders if n > 1)))
    return out
