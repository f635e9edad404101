"""Candidate VPP selection (paper Sec. 4.1).

Considering all sink x source pairs is hopeless (N^2 pairs, 1/N
positive), so the paper selects up to n candidates per sink fragment
with three criteria, all reproduced here:

1. **direction** — a VPP is dropped only when *neither* pin prefers the
   other.  Pin p prefers pin q when q lies on the opposite side of a
   wire segment attached to p (the BEOL continuation does not double
   back over existing wire); pins without split-layer segments (bare
   via stacks) prefer everything.  This is deliberately looser than the
   flow attack's direction handling, per the paper's observation that
   non-preferred-direction wires are common in congested designs.
2. **non-duplication** — fragments can expose several virtual pins; per
   (sink fragment, source fragment) pair only the VPP closest along the
   split layer's non-preferred direction survives (net length is
   bounded by timing closure).
3. **distance** — of the remaining VPPs, the n closest along the
   non-preferred direction win; ties fall back to the preferred
   direction.

Selection is an array pass per layout: every virtual pin goes into a
:class:`PinTable` once, with its allowed continuation directions, and
each sink fragment is scored against all source pins at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..split.fragments import Fragment, VirtualPin
from ..split.split import VPP, SplitLayout

# Columns of PinTable.allowed: continuation toward x-, x+, y-, y+.
X_MINUS, X_PLUS, Y_MINUS, Y_PLUS = range(4)


@dataclass
class PinTable:
    """The virtual pins of a list of fragments, fragment after fragment.

    Fragment ``i`` owns rows ``start[i]:start[i + 1]``, in its
    ``virtual_pins`` order.
    """

    fragments: list[Fragment]
    pins: list[VirtualPin]
    start: np.ndarray  # (F + 1,) row offsets
    x: np.ndarray  # (P,)
    y: np.ndarray  # (P,)
    allowed: np.ndarray  # (P, 4) bool, see X_MINUS..Y_PLUS


def pin_table(fragments: list[Fragment], split_layer: int) -> PinTable:
    """Tabulate the virtual pins of ``fragments`` (Sec. 4.1 direction data).

    A pin at the end of a split-layer segment may continue only away
    from the segment body; inside a segment, both ways; an axis with no
    segment through the pin allows both ways.  Only the unit wire edges
    next to the pin decide this: the segment through the pin along x
    extends to -x exactly when the edge to (x-1, y) exists.
    """
    pins: list[VirtualPin] = []
    allowed: list[list[bool]] = []
    start = [0]
    for fragment in fragments:
        # Pin-side ends of the split-layer unit edges: a node in
        # ``minus[0]`` has a wire edge toward -x, and so on.
        minus: tuple[set, set] = (set(), set())
        plus: tuple[set, set] = (set(), set())
        for (la, xa, ya), (lb, xb, yb) in fragment.edges:
            if la != split_layer or lb != split_layer:
                continue
            axis = 0 if ya == yb else 1
            lo, hi = sorted(((xa, ya), (xb, yb)))
            plus[axis].add(lo)
            minus[axis].add(hi)
        for vp in fragment.virtual_pins:
            row = []
            for axis in (0, 1):
                has_minus, has_plus = vp.xy in minus[axis], vp.xy in plus[axis]
                row += [has_plus or not has_minus, has_minus or not has_plus]
            allowed.append(row)
            pins.append(vp)
        start.append(len(pins))
    return PinTable(
        fragments=list(fragments),
        pins=pins,
        start=np.asarray(start, dtype=np.intp),
        x=np.asarray([vp.x for vp in pins], dtype=np.int64),
        y=np.asarray([vp.y for vp in pins], dtype=np.int64),
        allowed=np.asarray(allowed, dtype=bool).reshape(len(pins), 4),
    )


def pin_prefers(dx: np.ndarray, dy: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """True where a pin prefers a partner at offset ``(dx, dy)`` from it.

    ``allowed`` is the pin's ``(..., 4)`` continuation mask, broadcast
    against the offsets; a zero offset on an axis is always fine.
    """
    return (
        ((dx >= 0) | allowed[..., X_MINUS])
        & ((dx <= 0) | allowed[..., X_PLUS])
        & ((dy >= 0) | allowed[..., Y_MINUS])
        & ((dy <= 0) | allowed[..., Y_PLUS])
    )


def direction_mask(
    dx: np.ndarray,
    dy: np.ndarray,
    sink_allowed: np.ndarray,
    source_allowed: np.ndarray,
) -> np.ndarray:
    """(k, Q) Table 1 filter: keep a VPP unless both pins reject it.

    ``dx``/``dy`` are source minus sink offsets of k sink pins against
    Q source pins; ``sink_allowed`` is (k, 4), ``source_allowed`` (Q, 4).
    """
    return pin_prefers(dx, dy, sink_allowed[:, None]) | pin_prefers(
        -dx, -dy, source_allowed[None]
    )


def build_candidates(split: SplitLayout, n: int) -> dict[int, list[VPP]]:
    """Up to ``n`` candidate VPPs for every sink fragment of a layout.

    Each source fragment is represented by the pin pair with the
    smallest ``(d_np, d_p, source x, source y, sink pin index)``, where
    d_np / d_p are the distances along the split layer's non-preferred /
    preferred axis and the sink pin index is its position in
    ``virtual_pins``.  Sources then rank by ``(d_np, d_p, source x,
    source y)`` and, on a full tie, by source fragment id.
    """
    layer = split.split_layer
    sinks = pin_table(split.sink_fragments, layer)
    sources = pin_table(
        sorted(split.source_fragments, key=lambda f: f.fragment_id), layer
    )
    if not sources.pins:
        return {f.fragment_id: [] for f in sinks.fragments}

    np_axis = 1 - split.preferred_axis
    # Packed key (d_np, d_p, location rank, sink pin index): one int64
    # whose order is the lexicographic order of the tuple.  Source pins
    # sharing a location share a rank; ranks follow (x, y).
    locations, rank = np.unique(
        np.stack([sources.x, sources.y], axis=1), axis=0, return_inverse=True
    )
    rank = rank.reshape(-1)
    coords = np.concatenate([sinks.x, sinks.y, sources.x, sources.y])
    span = int(coords.max() - coords.min()) + 1
    n_pins = int(np.diff(sinks.start).max(initial=1))
    radix = (span, len(locations), n_pins)
    if span * span * len(locations) * n_pins >= np.iinfo(np.int64).max:
        raise ValueError("layout too large for packed candidate keys")
    sentinel = np.iinfo(np.int64).max
    source_starts = sources.start[:-1]

    candidates: dict[int, list[VPP]] = {}
    for f, sink in enumerate(sinks.fragments):
        lo, hi = sinks.start[f], sinks.start[f + 1]
        if lo == hi:
            candidates[sink.fragment_id] = []
            continue
        dx = sources.x - sinks.x[lo:hi, None]
        dy = sources.y - sinks.y[lo:hi, None]
        keep = direction_mask(
            dx, dy, sinks.allowed[lo:hi], sources.allowed
        )
        deltas = (dx, dy)
        d_np, d_p = np.abs(deltas[np_axis]), np.abs(deltas[1 - np_axis])
        key = ((d_np * radix[0] + d_p) * radix[1] + rank) * radix[2]
        key += np.arange(hi - lo)[:, None]
        key[~keep] = sentinel
        best = key.min(axis=0)  # (Q,) over sink pins
        per_source = np.minimum.reduceat(best, source_starts)
        valid = np.count_nonzero(per_source != sentinel)
        # Stable sort on the key without the pin index: ties between
        # sources fall to table order, which is fragment id order.
        order = np.argsort(per_source // radix[2], kind="stable")[: min(n, valid)]
        vpps = []
        for s in order:
            won = per_source[s]
            q0 = sources.start[s]
            q = q0 + int(np.argmax(best[q0 : sources.start[s + 1]] == won))
            vpps.append(VPP(sinks.pins[lo + won % radix[2]], sources.pins[q]))
        candidates[sink.fragment_id] = vpps
    return candidates


def candidate_recall(split: SplitLayout, candidates: dict[int, list[VPP]]) -> float:
    """Fraction of sink fragments whose true source survived selection.

    This bounds the attack's CCR from above: "If the positive VPP is
    not included, the predicted connection will definitely be wrong."
    """
    sinks = split.sink_fragments
    if not sinks:
        return 1.0
    hits = 0
    for sink in sinks:
        truth = split.truth.get(sink.fragment_id)
        vpps = candidates.get(sink.fragment_id, [])
        if any(vpp.source_fragment == truth for vpp in vpps):
            hits += 1
    return hits / len(sinks)
