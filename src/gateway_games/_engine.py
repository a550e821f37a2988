"""The cost formula and the improvement rule, vectorised for every layer.

Gateways are mutually at distance zero, so with ``a(u)`` the hop distance
from ``u`` to the nearest gateway, node ``v``'s distance term is
``agg_u min(d(v, u), a(v) + a(u))``.  ``_terms`` computes it in integer numpy
arrays, for one profile or a batch of them.

A toggle changes only its mover's term, by an integer ``dv``, so ``alpha``
is only ever compared with integers: an open improves iff ``alpha + dv < 0``,
that is ``dv <= -(floor(alpha) + 1)``, and a close iff ``dv - alpha < 0``,
that is ``dv <= ceil(alpha) - 1``.  ``_thresholds`` states that rule once for
the per-profile move kernel in ``game`` and for the exhaustive tables here.

The sweeps take ``a`` from one ``(256, n)`` table per byte of node ids, built
by a DP over the highest set bit, ``T[2^b : 2^(b+1)] = min(T[:2^b], d(8g+b, .))``
with ``n`` for an empty byte, and form the terms in int16: every value is at
most ``2n`` and a SUM term at most ``n(n-1)``, exact for n <= 181 (callers: n <= 63).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .errors import StateSpaceTooLarge

EXHAUSTIVE_LIMIT_ENV = "GATEWAY_GAMES_EXHAUSTIVE_LIMIT"
DEFAULT_EXHAUSTIVE_LIMIT = 20
# Bytes per node per profile: the int32 term table plus the two boolean move tables.
_TABLE_BYTES = 6
# Bytes per profile beside those tables: the int64 masks and toggled masks and
# the int32 gather and dv that improving_tables builds its columns from, plus
# one-byte column temporaries (tracemalloc: 6n + 26 for classify at n = 20).
# term_table's masks and the classifier's deg and reached take less.
_PROFILE_BYTES = 28
# Read only by perfbench/tracer.py (its fraction_calls counter); nothing in the package uses it.
SCALE_LIMIT = 1 << 40
_CHUNK = 4096
_CLAMP = 1 << 62


def resolve_exhaustive_limit(explicit: int | None) -> int:
    """Explicit argument, else the environment override, else the default."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(EXHAUSTIVE_LIMIT_ENV)
    return int(raw) if raw else DEFAULT_EXHAUSTIVE_LIMIT


def check_sweep_size(n: int, exhaustive_limit: int | None, what: str) -> None:
    """Refuse a sweep over all ``2^n`` profiles before anything is allocated.

    The node count must be within the resolved limit, and the sweep's
    arrays, about ``2^n * (6n + 28)`` bytes, must fit in physical memory.
    """
    limit = resolve_exhaustive_limit(exhaustive_limit)
    if n > limit:
        raise StateSpaceTooLarge(f"{what} needs n <= {limit}, got n = {n}")
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: the limit alone decides
        return
    need = (1 << n) * (n * _TABLE_BYTES + _PROFILE_BYTES)
    if need > have:
        raise StateSpaceTooLarge(
            f"{what} at n = {n} needs about {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


def _thresholds(alpha: Fraction) -> tuple[int, int]:
    """``(open_at, close_at)``: an open improves iff ``dv <= open_at``, a close
    iff ``dv <= close_at``.  Clamped to int64 (``|dv|`` is at most n * diameter)."""
    return max(-(math.floor(alpha) + 1), -_CLAMP), min(math.ceil(alpha) - 1, _CLAMP)


def _terms(dist: np.ndarray, a: np.ndarray, base: np.ndarray, maximum: bool) -> np.ndarray:
    """``agg_u min(d(v, u), base(v) + a(u))`` for each ``v``; ``base = a`` gives
    the profile's own terms.  Leading axes of ``a`` and ``base`` batch profiles;
    ``dist`` may be cut to the rows ``base`` covers."""
    through = base[..., :, None] + a[..., None, :]
    np.minimum(through, dist, out=through)
    return through.max(axis=-1) if maximum else through.sum(axis=-1, dtype=through.dtype)


def _term_rows(dist: np.ndarray, masks: np.ndarray, maximum: bool):
    """``(rows, terms)`` per chunk of ``masks``: the per-node terms of each mask."""
    n = dist.shape[0]
    d16 = dist.astype(np.int16)
    tables = np.full((-(-n // 8), 256, n), n, dtype=np.int16)
    for v in range(n):
        g, b = divmod(v, 8)
        np.minimum(tables[g, : 1 << b], d16[v], out=tables[g, 1 << b : 2 << b])
    for start in range(0, masks.shape[0], _CHUNK):
        chunk = masks[start : start + _CHUNK]
        a = tables[0, chunk & 255]
        for g in range(1, tables.shape[0]):
            np.minimum(a, tables[g, (chunk >> 8 * g) & 255], out=a)
        yield slice(start, start + chunk.shape[0]), _terms(d16, a, a, maximum)


def term_table(dist: np.ndarray, *, maximum: bool) -> np.ndarray:
    """Per-node distance terms for every profile mask, shape (2^n, n).

    Row 0 is the gateway-free world: plain distance sums (or maxima).  It is
    the reference point for the forbidden sole-gateway close.
    """
    n = dist.shape[0]
    out = np.empty((1 << n, n), dtype=np.int32)
    for rows, terms in _term_rows(dist, np.arange(1 << n, dtype=np.int64), maximum):
        out[rows] = terms
    return out


def term_sums_for_masks(dist: np.ndarray, masks: np.ndarray, *, maximum: bool) -> np.ndarray:
    """Total distance part of the social cost for each mask, shape (P,)."""
    out = np.empty(masks.shape[0], dtype=np.int64)
    for rows, terms in _term_rows(dist, masks, maximum):
        out[rows] = terms.sum(axis=1, dtype=np.int64)
    return out


def improving_tables(
    table: np.ndarray, alpha: Fraction
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (2^n, n) tables of strictly improving opens and closes.

    Sole-gateway closes are excluded (forbidden), mask 0 rows are all False.
    """
    total, n = table.shape
    open_at, close_at = _thresholds(alpha)
    masks = np.arange(total, dtype=np.int64)
    valid = masks != 0
    open_ok = np.zeros((total, n), dtype=bool)
    close_ok = np.zeros((total, n), dtype=bool)
    for v in range(n):
        bit = 1 << v
        dv = table[masks ^ bit, v] - table[:, v]
        member = (masks & bit) != 0
        open_ok[:, v] = valid & ~member & (dv <= open_at)
        close_ok[:, v] = member & (masks != bit) & (dv <= close_at)
    return open_ok, close_ok


def ne_vector(open_ok: np.ndarray, close_ok: np.ndarray) -> np.ndarray:
    total = open_ok.shape[0]
    any_move = open_ok.any(axis=1) | close_ok.any(axis=1)
    valid = np.arange(total, dtype=np.int64) != 0
    return valid & ~any_move

