"""Comparing and stacking 2-cells up to structural isomorphism.

Composites built in different association orders have different but
canonically isomorphic apexes.  The canonical isomorphism matches apex
elements by their signature: left leg value, right leg value and
component morphism.  Ties are broken by ascending apex code on both
sides, which keeps the choice deterministic.  paste() stacks a list of
2-cells vertically, bridging every pair of adjacent boundaries, and
composes their apex maps as FinFns, so a word or product map stays lazy.

A canonical iso or a found 2-cell matches legs and component keys, and
keys are equal exactly when the morphisms are, so each is a 2-cell by
construction and is marked checked without ``make_2cell``.  A pasting of
marked 2-cells is marked; one with an unmarked face is not.
"""

import itertools

import numpy as np

from .cells import VCell2, cells_equal, fams_equal, identity_2cell
from .errors import OutOfBounds, PasteError
from .finset import compose_fn, identity_fn
from .span import feet_pairs, match_by_signature
from .vbackend import pairwise


def _signature_cols(a, b):
    cols_a = [a.span.f.table, a.span.g.table]
    cols_b = [b.span.f.table, b.span.g.table]
    key = a.backend.mor_key
    keys_a = [key(m) for m in a.alphas.values]
    keys_b = [key(m) for m in b.alphas.values]
    ids = {k: i for i, k in enumerate(sorted(set(keys_a + keys_b)))}
    # a constant column would change neither the matching nor the mismatch
    if len(ids) > 1:
        cols_a.append(a.alphas.expand([ids[k] for k in keys_a]))
        cols_b.append(b.alphas.expand([ids[k] for k in keys_b]))
    return cols_a, cols_b


def _decode_sig(cell, sig):
    left = cell.dom.base.decode(np.array(sig[0]))
    right = cell.cod.base.decode(np.array(sig[1]))
    return {"left": left.tolist(), "right": right.tolist()}


def _canonical_iso_ex(a, b):
    if not fams_equal(a.dom, b.dom) or not fams_equal(a.cod, b.cod):
        return None, {"reason": "different boundary families"}
    cols_a, cols_b = _signature_cols(a, b)
    table, info = match_by_signature(cols_a, cols_b)
    if table is None:
        if info[0] == "size":
            return None, {"reason": "apex sizes differ", "sizes": [info[1], info[2]]}
        return None, {
            "reason": "signature multiplicities differ",
            "this": _decode_sig(a, info[1]),
            "other": _decode_sig(b, info[2]),
        }
    return VCell2._of(a, b, table), None


def canonical_cell_iso(a, b):
    """The canonical invertible 2-cell between two 1-cells, or None."""
    cell, _ = _canonical_iso_ex(a, b)
    return cell


def _bridge(a, b):
    """The apex map of the canonical isomorphism a => b, the identity when
    the two 1-cells are equal: (map, None), or (None, why not)."""
    if cells_equal(a, b):
        return identity_fn(a.span.apex), None
    iso, info = _canonical_iso_ex(a, b)
    return (None, info) if iso is None else (iso.apex_map, None)


def two_cells_equal(x, y):
    """Compare two 2-cells through the canonical boundary bridges.

    Returns (ok, info); on failure info decodes the first apex element
    whose images disagree, or explains why the boundaries cannot be
    bridged at all.
    """
    ia, info = _bridge(x.src, y.src)
    if ia is None:
        return False, {"reason": "sources not isomorphic", "detail": info}
    ib, info = _bridge(x.tgt, y.tgt)
    if ib is None:
        return False, {"reason": "targets not isomorphic", "detail": info}
    lhs = compose_fn(x.apex_map, ib)
    rhs = compose_fn(ia, y.apex_map)
    s = lhs.first_difference(rhs)
    if s is None:
        return True, None
    at = np.array([s])
    return False, {
        "element": x.src.span.apex.decode(at)[0].tolist(),
        "this": y.tgt.span.apex.decode(lhs.at(at))[0].tolist(),
        "other": y.tgt.span.apex.decode(rhs.at(at))[0].tolist(),
    }


def paste(faces):
    """Stack 2-cells top to bottom, bridging adjacent boundaries; the
    result is marked when every face is."""
    faces = list(faces)
    if not faces:
        raise PasteError("nothing to paste: no faces given")
    acc = faces[0]
    for face in faces[1:]:
        bridge, info = _bridge(acc.tgt, face.src)
        if bridge is None:
            raise PasteError("adjacent boundaries cannot be bridged", acc.tgt, face.src, info)
        make = VCell2._of if acc._checked and face._checked else VCell2
        acc = make(acc.src, face.tgt,
                   compose_fn(compose_fn(acc.apex_map, bridge), face.apex_map))
    return acc


def paste_with_boundaries(src_cell, faces, tgt_cell):
    """Paste faces between prescribed outer boundaries."""
    return paste([identity_2cell(src_cell)] + list(faces) + [identity_2cell(tgt_cell)])


def _candidate_options(src, tgt):
    """(count per source apex element, candidates grouped by source): the
    target elements over the same feet with an equal component, or None."""
    if not fams_equal(src.dom, tgt.dom) or not fams_equal(src.cod, tgt.cod):
        return None
    s, t = feet_pairs(src.span, tgt.span)
    same = src.alphas.take(s).zip_with(tgt.alphas.take(t), pairwise(src.backend.eq_mor))
    keep = same.expand(same.values).astype(bool)
    counts = np.bincount(s[keep], minlength=src.span.apex.size)
    if counts.size and counts.min() == 0:
        return None
    return counts, t[keep]


def find_2cells(src, tgt, limit=8):
    """All 2-cells src => tgt, raising OutOfBounds past limit candidates."""
    options = _candidate_options(src, tgt)
    if options is None:
        return []
    counts, cand = options
    count = 1
    for c in counts.tolist():
        count *= c
        if count > limit:
            raise OutOfBounds("more than %d candidate 2-cells" % limit)
    groups = np.split(cand, np.cumsum(counts)[:-1]) if counts.size else []
    return [
        VCell2._of(src, tgt, np.array(combo, dtype=np.int64))
        for combo in itertools.product(*groups)
    ]


def find_unique_2cell(src, tgt):
    """The unique 2-cell src => tgt if there is exactly one, else None."""
    options = _candidate_options(src, tgt)
    if options is None or (options[0] != 1).any():
        return None
    return VCell2._of(src, tgt, options[1])
