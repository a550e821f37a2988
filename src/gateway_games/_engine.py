"""The cost formula and the improvement rule, vectorised for every layer.

Gateways are mutually at distance zero, so with ``a(u)`` the hop distance
from ``u`` to the nearest gateway, node ``v``'s distance term is
``agg_u min(d(v, u), a(v) + a(u))``.  ``_terms`` computes it in integer numpy
arrays, for one profile or a batch of them, and ``_thresholds`` decides in
integers whether a toggle improves.  They are the one cost implementation and
the one improvement rule: the move kernel in ``game``, trace replay, the
greedy search and the tables here all read them.

The exhaustive tables are node-major: row ``v`` holds node ``v``'s value for
every mask, shape ``(n, 2^n)``, so every add, min and reduction runs along a
contiguous row of masks.  The term table keeps the dtype of ``_narrow``, one
or two bytes per cell.

The move table ``improving_tables`` returns is packed: row ``v`` is a bit
set over the masks, bit ``m % 64`` of uint64 word ``m // 64``, so the table
takes ``n / 8`` bytes per profile.  A row shorter than a word (n < 6) is
padded to one, its pad bits clear.  A toggle of bit ``b < 6`` stays inside a
word, a shift and a mask; one of bit ``b >= 6`` swaps the halves of each
block of ``2^(b-5)`` words.  This module is the only one that knows the
layout: the classifier's fixpoints (``_fixpoint``, by rounds of ``_round``)
work on such sets whole, and the callers read them through ``_sinks``,
``_has`` and ``_unpack``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .errors import StateSpaceTooLarge, check_memory

DEFAULT_EXHAUSTIVE_LIMIT = 20
# Bytes per profile of the full optimum, which holds no table: its int64 sums,
# uint8 popcounts and boolean selections (tracemalloc: 11.0 at n = 20 and 22).
_OPTIMUM_BYTES = 12
# Read only by perfbench/tracer.py (its fraction_calls counter); nothing in the package uses it.
SCALE_LIMIT = 1 << 40
# Bytes of _terms' (n, n, chunk) temporary in a sweep.  It should stay in a
# core's L2 cache: on a 2 MB-L2 Xeon, term_table at n = 18 and 20 ran about
# twice as fast with 1 MB as with 4 MB.
_BATCH_BYTES = 1 << 20
# Most masks per chunk.  With numpy 2.4.6 on that Xeon, the broadcast
# np.minimum(through, dist[:, :, None]) took 0.080 ns per pair at 4096 masks
# and 0.45 at 4097 in int16, 0.036 and 0.55 in uint8: the cliff is at a mask
# count, not a byte count, so small graphs must not fill _BATCH_BYTES.
_BATCH_MASKS = 1 << 12
_CLAMP = 1 << 62
# The word of a packed set, little-endian so that bit m % 64 of word m // 64
# is bit m % 8 of byte m // 8, the order of np.packbits(bitorder="little").
_WORD = np.dtype("<u8")
# Per bit b < 6, as a (6, 1) column: the shift that moves a bit across bit b
# within its word, and the positions of a word whose bit b is clear.
_SHIFT = np.array([[1 << b] for b in range(6)], dtype=_WORD)
_STAY = np.array(
    [[sum(1 << p for p in range(64) if not p >> b & 1)] for b in range(6)], dtype=_WORD
)


def _exhaustive_limit(exhaustive_limit: int | None) -> int:
    """The node cap of the exhaustive sweeps, the default when None; a negative one raises."""
    if exhaustive_limit is None:
        return DEFAULT_EXHAUSTIVE_LIMIT
    if exhaustive_limit < 0:
        raise ValueError(f"exhaustive limit must be non-negative, got {exhaustive_limit}")
    return exhaustive_limit


def _table_bytes(dist: np.ndarray, maximum: bool) -> int:
    """Bytes per profile of the classifier and equilibrium enumeration, both at
    their peak inside improving_tables: ``s * n`` for the term table, ``s``
    the itemsize ``_narrow`` gives it, ``n / 8`` rounded up for the packed
    move table, and 4 for the int16 differences of a row, the boolean row the
    opens and the closes share, and their two packed copies (tracemalloc
    peaks: s * n + n/8 + 3.53 and 3.51 at n = 18 and 20 in uint8, 3.54 at
    n = 18 in int16)."""
    n = dist.shape[0]
    return _narrow(dist, maximum).itemsize * n + (n + 7) // 8 + 4


def check_sweep_size(
    n: int, exhaustive_limit: int | None, what: str, profile_bytes: int | None = None
) -> None:
    """Refuse a sweep over all ``2^n`` profiles before anything is allocated.

    The node count must be within ``_exhaustive_limit(exhaustive_limit)``, and the sweep's
    arrays, ``2^n * profile_bytes`` bytes, must fit in physical memory.  Without
    ``profile_bytes`` only the node count is checked: a sweep whose bytes
    depend on the oracle checks it before building one, and again after.
    """
    limit = _exhaustive_limit(exhaustive_limit)
    if n > limit:
        raise StateSpaceTooLarge(f"{what} needs n <= {limit}, got n = {n}")
    if profile_bytes is not None:
        check_memory((1 << n) * profile_bytes, StateSpaceTooLarge, f"{what} at n = {n} needs")


def _thresholds(alpha: Fraction) -> tuple[int, int]:
    """``(open_at, close_at)``: an open improves iff ``dv <= open_at``, a close
    iff ``dv <= close_at``, with ``dv`` the mover's term after minus before.
    A toggle changes only its mover's term, so an open improves iff
    ``alpha + dv < 0``, that is ``dv <= -(floor(alpha) + 1)``, and a close iff
    ``dv - alpha < 0``, that is ``dv <= ceil(alpha) - 1``.  Clamped to int64
    (``|dv|`` is at most n * diameter); numpy 2 compares them exactly with a
    ``dv`` of any oracle dtype."""
    return max(-(math.floor(alpha) + 1), -_CLAMP), min(math.ceil(alpha) - 1, _CLAMP)


def _terms(
    dist: np.ndarray, a: np.ndarray, base: np.ndarray, maximum: bool, out=(None, None)
) -> np.ndarray:
    """``agg_u min(d(v, u), base(v) + a(u))`` for each ``v``; ``base = a`` gives
    the profile's own terms.  A trailing axis of ``a`` and ``base`` batches
    profiles, with ``dist`` then shaped ``(n, n, 1)`` to share its rows, or
    ``(rows, n, B)`` to give each profile its own; a trace replay passes each
    of ``B`` movers its distance row as ``(1, n, B)``.  ``dist`` may be cut
    to the rows ``base`` covers.  ``out``, the buffers of the
    ``(rows, n, ...)`` temporary and of the ``(rows, ...)`` result, lets a
    sweep reuse both for every chunk; by default each call allocates its own."""
    through, terms = out
    through = np.add(base[:, None], a[None, :], out=through)
    np.minimum(through, dist, out=through)
    if maximum:
        return through.max(axis=1, out=terms)
    return through.sum(axis=1, dtype=through.dtype, out=terms)


def _narrow(dist: np.ndarray, maximum: bool) -> np.ndarray:
    """The distances in the narrowest dtype in which the terms are exact.  A
    subset-minimum entry is at most the sentinel ``n``, so ``a(v) + a(u) <=
    2n``; ``min(d, .) <= d``, so a SUM term never exceeds its node's distance
    row sum; and a MAX term is at most ``n - 1``.  So uint8 is exact when
    ``2n <= 255`` and, for SUM, every row sum is at most 255.  Otherwise
    int16, the oracle's own dtype (``graphs._oracle_dtype``) at the sweeps'
    n <= 63, which is not copied."""
    n = dist.shape[0]
    narrow = 2 * n <= 255 and (maximum or int(dist.sum(axis=1).max()) <= 255)
    return dist.astype(np.uint8 if narrow else np.int16, copy=False)


def _chunk_masks(dn: np.ndarray) -> int:
    """The most masks one chunk of ``_terms`` on the distances ``dn`` may
    hold, at ``n^2`` cells a mask however few rows ``dn`` is cut to."""
    return min(_BATCH_MASKS, max(1, _BATCH_BYTES // (dn.itemsize * dn.shape[1] ** 2)))


def _subset_minima(columns: np.ndarray, sentinel: int) -> np.ndarray:
    """``(rows, 2^k)`` table for ``k`` distance columns: entry ``[v, m]`` is the
    least ``columns[v, j]`` over the set bits ``j`` of ``m``, ``sentinel`` at
    ``m = 0``.  A DP over the highest set bit:
    ``T[:, 2^b : 2^(b+1)] = min(T[:, :2^b], columns[:, b])``."""
    rows, k = columns.shape
    table = np.empty((rows, 1 << k), dtype=columns.dtype)
    table[:, 0] = sentinel
    for b in range(k):
        np.minimum(table[:, : 1 << b], columns[:, b : b + 1], out=table[:, 1 << b : 2 << b])
    return table


class _SearchLayout:
    """What the bounded search reads on every level, built once per search
    from ``classes``, a partition of the nodes into sorted tuples of mutual
    twins; with every node alone, any mask may be costed.  The classes are
    ordered with the nodes alone first, and ``sizes``, ``spans``, the columns
    of ``last`` and ``floor_rows`` follow that order.  ``rows`` holds the twin
    rows, each class's first member and then each larger class's last, and
    ``dist`` their narrowed distances, shaped ``(R, n, 1)``.

    ``minima`` holds ``_subset_minima`` over each byte of node ids,
    transposed to ``(256, n)``.  ``last`` cuts them to each class's last
    member ``x``, whose floor row holds ``G_x(r)`` over ``r = 0..n-1`` for SUM
    and ``D_x(k)`` at entry ``k - 1`` for MAX, both defined in
    ``optimization``."""

    def __init__(self, dist: np.ndarray, classes: Sequence[tuple[int, ...]], maximum: bool):
        n = dist.shape[0]
        dn = _narrow(dist, maximum)
        ordered = sorted(classes, key=lambda c: len(c) > 1)  # stable: the nodes alone first
        firsts, lasts = [c[0] for c in ordered], [c[-1] for c in ordered]
        self.maximum = maximum
        self.alone = alone = sum(len(c) == 1 for c in ordered)
        self.rows = np.array(firsts + lasts[alone:], dtype=np.intp)
        self.dist = dn[self.rows][:, :, None]
        spans = [sum(1 << v for v in c) for c in ordered[alone:]]
        self.spans = np.array(spans, dtype=np.int64)[:, None]
        self.sizes = np.array([len(c) for c in ordered], dtype=np.uint8)
        self.minima = [_subset_minima(dn[:, g : g + 8], n).T.copy() for g in range(0, n, 8)]
        self.last = [m[:, lasts].copy() for m in self.minima]
        far = dn[lasts].astype(np.int32)
        if maximum:
            self.floor_rows = -np.sort(-far, axis=1)
        else:
            reach = np.arange(1, n + 1, dtype=np.int32)
            self.floor_rows = np.minimum(far[:, :, None], reach).sum(axis=1, dtype=np.int32)


def _nearest(minima: list[np.ndarray], masks: np.ndarray) -> np.ndarray:
    """``(P, columns)``: ``a`` at each of ``masks`` on the columns of the byte
    tables ``minima``, the least entry over the bytes of the mask."""
    a = minima[0].take(masks & 255, axis=0)
    for g in range(1, len(minima)):
        np.minimum(a, minima[g].take((masks >> 8 * g) & 255, axis=0), out=a)
    return a


def _twin_rows(layout: _SearchLayout, masks: np.ndarray):
    """``(columns, terms, weights)`` per chunk of ``masks``, in any order, each
    opening a prefix of every twin class.  Twins share every distance outside
    the pair, so swapping two of them maps the graph onto itself, and a
    profile that opens both, or neither, onto itself: there the two have
    equal terms.  So every open member of a class has its first member's
    term and every closed one its last member's, for SUM and MAX alike.
    ``terms`` has the rows of ``layout.rows``, ``(R, chunk)`` with
    ``R = sum_c min(2, |c|)``, and ``weights`` the members each stands for: 1
    in a class of one, else ``t`` and ``|c| - t``, with ``t`` the class's
    open count.  ``a`` is gathered from the byte tables and transposed once
    per chunk."""
    alone, step = layout.alone, _chunk_masks(layout.dist)
    sizes = layout.sizes[alone:, None]
    for start in range(0, masks.shape[0], step):
        chunk = masks[start : start + step]
        a = np.ascontiguousarray(_nearest(layout.minima, chunk).T)
        opened = np.bitwise_count(chunk & layout.spans)
        ones = np.ones((alone, chunk.shape[0]), dtype=np.uint8)
        weights = np.concatenate((ones, opened, sizes - opened))
        terms = _terms(layout.dist, a, a[layout.rows], layout.maximum)
        yield slice(start, start + chunk.shape[0]), terms, weights


def _dense_term_rows(dist: np.ndarray, maximum: bool):
    """``(columns, terms)`` for every mask in order, in chunks of ``2^lb``
    consecutive masks, ``2^lb`` the largest power of two within ``_chunk_masks``
    and ``2^n``: a chunk's low ``lb`` bits run through every value and its high
    bits are one value ``h``, so its ``a`` is ``min(low, high[:, h])``.  The
    chunk's ``a``, its ``(n, n, 2^lb)`` temporary and its terms are buffers
    allocated once, so each chunk's terms are overwritten by the next."""
    n = dist.shape[0]
    dn = _narrow(dist, maximum)
    lb = min(n, _chunk_masks(dn).bit_length() - 1)
    low, high = _subset_minima(dn[:, :lb], n), _subset_minima(dn[:, lb:], n)
    a, terms = np.empty_like(low), np.empty_like(low)
    through = np.empty((n, n, 1 << lb), dtype=dn.dtype)
    for h in range(high.shape[1]):
        np.minimum(low, high[:, h : h + 1], out=a)
        yield slice(h << lb, (h + 1) << lb), _terms(dn[:, :, None], a, a, maximum, (through, terms))


def term_table(dist: np.ndarray, *, maximum: bool) -> np.ndarray:
    """Per-node distance terms for every profile mask, shape (n, 2^n), in the
    dtype ``_narrow`` gives: uint8, or int16 past its bounds.

    Column 0 is the gateway-free world: plain distance sums (or maxima).  It
    is the reference point for the forbidden sole-gateway close.
    """
    n = dist.shape[0]
    out = np.empty((n, 1 << n), dtype=_narrow(dist, maximum).dtype)
    for columns, terms in _dense_term_rows(dist, maximum):
        out[:, columns] = terms
    return out


def term_sums(dist: np.ndarray, *, maximum: bool) -> np.ndarray:
    """Total distance part of the social cost for every profile mask, shape (2^n,)."""
    out = np.empty(1 << dist.shape[0], dtype=np.int64)
    for columns, terms in _dense_term_rows(dist, maximum):
        out[columns] = terms.sum(axis=0, dtype=np.int64)
    return out


def term_sums_for_masks(layout: _SearchLayout, masks: np.ndarray) -> np.ndarray:
    """Total distance part of the social cost for each mask, shape (P,); every
    mask opens a prefix of each twin class of ``layout``."""
    out = np.empty(masks.shape[0], dtype=np.int64)
    for columns, terms, weights in _twin_rows(layout, masks):
        out[columns] = np.multiply(terms, weights, dtype=np.int32).sum(axis=0, dtype=np.int64)
    return out


def term_floors(layout: _SearchLayout, masks: np.ndarray, k: int):
    """``(columns, floors)`` per chunk of canonical ``k``-gateway ``masks``:
    an int32 lower bound on each mask's distance part (the bounds are stated
    and proved in ``optimization``).

    A class adds ``w * h(a)``, with ``a`` its last member's and ``w`` its
    closed count: closed twins share ``a`` and their row, and open members
    add nothing.  A table of this level, ``T[c, t, r] = (|c| - t) h_c(r)``
    and 0 at ``r = 0`` (the last member open, so every member), holds it for
    each open count ``t``.  A chunk gathers ``a``, transposes it once, counts
    the open members of the larger classes (a lone node is open iff
    ``a = 0``) and looks every class up in ``T``, along contiguous rows."""
    per, sizes, alone = layout.floor_rows, layout.sizes, layout.alone
    rows, n = per.shape
    r = np.arange(n, dtype=np.int32)
    if layout.maximum:
        h = np.maximum(r, np.minimum(per[:, k - 1 : k], r + 1))
    else:
        h = k * r + per
    h[:, 0] = 0
    width = int(sizes.max()) + 1
    table = ((sizes[:, None] - np.arange(width, dtype=np.int32))[:, :, None] * h[:, None, :]).ravel()
    base = (np.arange(rows, dtype=np.intp) * (width * n))[:, None]
    # The int64 index and open counts and the int32 lookups of a chunk: at most
    # 20 bytes per row and mask, within _BATCH_BYTES and a quarter more.
    step = min(_BATCH_MASKS, max(1, _BATCH_BYTES // (16 * rows)))
    for start in range(0, masks.shape[0], step):
        chunk = masks[start : start + step]
        index = _nearest(layout.last, chunk).T.astype(np.intp, order="C")
        extra = k * index.max(axis=0) if layout.maximum else -(n - k) * (k - 1)
        index += base
        opened = np.bitwise_count(layout.spans & chunk).astype(np.intp)
        opened *= n
        index[alone:] += opened
        low = table.take(index).sum(axis=0, dtype=np.int32)
        low += extra
        yield slice(start, start + chunk.shape[0]), low


def improving_tables(table: np.ndarray, alpha: Fraction) -> np.ndarray:
    """The packed move table (layout in the module docstring): bit ``m`` of
    row ``v`` is set iff toggling ``v`` at ``m`` strictly improves.

    ``table`` is ``term_table``'s, uint8 or int16, so every ``dv`` fits in
    int16.  Sole-gateway closes are excluded (forbidden).  Mask 0's bits are
    all clear: it has nothing to close, and opening ``v`` there leaves ``v``'s
    term as it was, so at a positive price it never improves.  Toggling ``v``
    moves a mask ``2^v`` along its row, so row ``v``'s differences
    ``dv[m] = t[m + 2^v] - t[m]`` come from two contiguous slices; at a mask
    ``m`` without ``v`` they decide the open at ``m`` and, negated, the close
    at ``m + 2^v``.  The opens and the closes are packed in turn from one
    boolean row, and the two merge word by word: the positions without bit
    ``v`` take the opens, those with it the closes ``2^v`` below, by a shift
    within each word for ``v < 6`` and a copy of the half blocks of words
    above.  The row's cells past ``2^n - 2^v`` hold stale verdicts of lower
    nodes, all at masks with bit ``v`` set, where no verdict of ``v`` is read;
    its pad cells are never written.
    """
    n, total = table.shape
    open_at, close_at = _thresholds(alpha)
    words = max(1, total >> 6)
    moves = np.empty((n, words), dtype=_WORD)
    row = np.zeros(words << 6, dtype=bool)
    dv = np.empty(total, dtype=np.int16)
    for v in range(n):
        step = 1 << v
        cells = total - step
        np.subtract(table[v, step:], table[v, :cells], out=dv[:cells], dtype=np.int16)
        np.less_equal(dv[:cells], open_at, out=row[:cells])
        opens = np.packbits(row, bitorder="little").view(_WORD)
        np.greater_equal(dv[:cells], -close_at, out=row[:cells])
        row[0] = False  # the close at mask 2^v: v alone, the sole gateway may not close
        closes = np.packbits(row, bitorder="little").view(_WORD)
        if v < 6:
            np.bitwise_and(opens, _STAY[v], out=moves[v])
            closes &= _STAY[v]
            closes <<= _SHIFT[v]
            moves[v] |= closes
        else:
            half = 1 << (v - 6)
            merged = moves[v].reshape(-1, 2, half)
            merged[:, 0] = opens.reshape(-1, 2, half)[:, 0]
            merged[:, 1] = closes.reshape(-1, 2, half)[:, 0]
    return moves


def _unpack(words: np.ndarray, total: int) -> np.ndarray:
    """The first ``total`` bits of each packed row of ``words``, as booleans."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=total, bitorder="little")
    return bits.view(bool)


def _sinks(moves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(movers, masks)`` of a packed move table: the packed set of the
    states with an improving move, the OR of the rows, and the ascending
    masks of the others, the equilibria; mask 0 is no profile and is left out."""
    movers = np.bitwise_or.reduce(moves, axis=0)
    return movers, np.flatnonzero(~_unpack(movers, 1 << moves.shape[0])[1:]) + 1


def _has(words: np.ndarray, m: int) -> bool:
    """Bit ``m`` of a packed set."""
    return int(words[m >> 6]) >> (m & 63) & 1 == 1


def _round(moves: np.ndarray, x: np.ndarray, toggled: np.ndarray, grow: bool) -> np.ndarray:
    """One round of ``_fixpoint``: the states with a move into ``x``, and for
    the reach (``grow=True``) ``x`` with them.  Row ``b`` of ``toggled``, a
    buffer shaped as ``moves``, takes ``x[m ^ (1 << b)]``, every bit reading
    ``x`` as the round found it: the (at most six) in-word rows by one shift
    and mask per direction, broadcast over the ``(6, 1)`` columns, and each
    row ``b >= 6`` by a swap of half blocks.  One AND and one OR-reduce follow."""
    inword = toggled[:6]
    shift, stay = _SHIFT[: inword.shape[0]], _STAY[: inword.shape[0]]
    np.right_shift(x, shift, out=inword)
    inword &= stay
    inword |= (x & stay) << shift
    for b in range(6, moves.shape[0]):
        half = 1 << (b - 6)
        np.copyto(toggled[b].reshape(-1, 2, half), x.reshape(-1, 2, half)[:, ::-1])
    toggled &= moves
    out = np.bitwise_or.reduce(toggled, axis=0)
    if grow:
        out |= x
    return out


def _fixpoint(moves: np.ndarray, x: np.ndarray, grow: bool) -> np.ndarray:
    """The fixpoint of the packed set ``x`` under ``_round``, both Jacobi
    iterations on one toggled buffer: the greatest below ``x`` for the peel
    (``grow=False``), the least above it for the reach (``grow=True``)."""
    toggled = np.empty_like(moves)
    while True:
        out = _round(moves, x, toggled, grow)
        if np.array_equal(out, x):
            return x
        x = out
