"""The closing and sorting of `from_facets` before it closed one dimension at
a time, kept as the oracle for `reebtop.complexes.from_facets`.

It closes every facet at once on vertex positions, sorts the whole closure,
then sorts it by length and groups it, and maps each position tuple to its
labels through one dictionary.  It builds its complex through the public
constructor, which checks every simplex, and returns the canonical order
beside it instead of handing it over.
"""

import itertools

from reebtop.complexes import SimplicialComplex, closure
from reebtop.errors import BadNameError, MalformedFacetError


def from_facets_oracle(facets, names=None):
    """(complex, {p: its p-simplices in canonical order}) for the facets and
    named facet lists that `from_facets` takes, refused as it refuses them."""
    verts = set()
    clean = []
    for f in facets:
        f = list(f)
        if not f:
            raise MalformedFacetError("empty facet")
        if len(set(f)) != len(f):
            raise MalformedFacetError(f"facet {f!r} repeats a vertex")
        verts.update(f)
        clean.append(f)
    try:
        order = sorted(verts)
    except TypeError as exc:
        raise MalformedFacetError("vertex identifiers are not totally orderable") from exc
    rank = {v: i for i, v in enumerate(order)}.__getitem__
    ranked = sorted(closure(tuple(sorted(map(rank, f))) for f in clean))
    ranked.sort(key=len)
    labelled = [tuple(map(order.__getitem__, t)) for t in ranked]
    by_dim = {k - 1: list(group) for k, group in itertools.groupby(labelled, key=len)}
    label_of = dict(zip(ranked, labelled))
    named = {}
    for name, part_facets in (names or {}).items():
        part = []
        for f in part_facets:
            if len(set(f)) != len(f):
                raise MalformedFacetError(f"named facet {f!r} repeats a vertex")
            try:
                t = tuple(sorted(map(rank, f)))
            except KeyError:
                t = None
            if t not in label_of:
                raise BadNameError(f"named facet {f!r} is not a face of the complex")
            part.append(t)
        named[name] = frozenset(map(label_of.__getitem__, closure(part)))
    return SimplicialComplex(order, frozenset(labelled), named), by_dim
