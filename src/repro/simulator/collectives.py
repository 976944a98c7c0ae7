"""Collective communication operations for SPMD rank programs.

Every collective here is a *generator helper*: a rank program invokes it
with ``yield from`` and every member of *group* must make the matching
call.  All collectives are built from point-to-point :class:`Send` /
:class:`Recv` requests, so their costs are *emergent* from the machine
model rather than asserted — which is exactly what lets the test-suite
check the paper's communication-cost expressions against the simulator.

Cost summary on a hypercube (message of *m* words, group of *g* ranks
forming a subcube, one-port):

===============================  =============================================
``bcast_binomial``               ``(ts + tw*m) * log g``      (naive broadcast,
                                 the scheme the paper's CM-5 code uses)
``reduce_binomial``              ``(ts + tw*m) * log g`` + ``m*log g`` adds
``allgather_recursive_doubling`` ``ts*log g + tw*m*(g-1)``  (all-to-all bcast)
``allgather_ring``               ``(ts + tw*m) * (g-1)``
``reduce_scatter_halving``       ``ts*log g + tw*m*(g-1)/g`` + adds
``shift_cyclic``                 ``ts + tw*m``   (per step, pairwise)
===============================  =============================================

Groups are ordered rank lists.  When a group of size ``2**k`` occupies a
subcube whose members differ only in *k* fixed bit positions — which is
how every algorithm in this package lays out its groups — each step of
the power-of-two collectives crosses exactly one hypercube link.

Macro fast path
---------------

When the engine advertises ``info.macro_collectives`` (tracing off, link
contention off, no fault plan, event-driven scheduler), each helper validates its
arguments and then yields a single
:class:`~repro.simulator.request.CollectiveOp` instead of its message
sequence; the engine rendezvouses the group and applies one closed-form,
vectorized clock/stats update (:mod:`repro.simulator.macro`) that is
bit-identical to the message-level path below — same clocks, same
per-rank accounts, same message/word totals, same payload aliasing.  The
message-level implementations remain the reference: the fuzz suite pins
the two paths against each other.

A helper handed a traced block (a trace-compiler probe's stand-in, see
:mod:`repro.simulator.payloads`) posts its ``CollectiveOp`` at any group
size, so the compiler sees one collective whose payload it can move,
not the message-level loop's position-dependent slicing.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.simulator.engine import RankInfo
from repro.simulator.errors import ProgramError
from repro.simulator.payloads import TracedBlock
from repro.simulator.request import Barrier, CollectiveOp, Recv, Send, words_of

__all__ = [
    "my_index",
    "sendrecv",
    "bcast_binomial",
    "reduce_binomial",
    "allgather_recursive_doubling",
    "allgather_ring",
    "reduce_scatter_halving",
    "shift_cyclic",
    "barrier",
    "words_of",
]


#: Smallest group for which a helper takes the macro fast path.  Below
#: this, the per-call numpy overhead of the vectorized executors exceeds
#: the message-level cost (measured crossover is near 64 ranks); above
#: it the fast path wins and keeps widening.  Both paths are
#: bit-identical, so this is purely a performance knob — tests pin it to
#: 2 to force macro coverage of small groups.
MACRO_GROUP_MIN: int = 64


def _posts_op(info: RankInfo, g: int, data: Any) -> bool:
    """Whether a helper posts its :class:`CollectiveOp` form."""
    return isinstance(data, TracedBlock) or (
        info.macro_collectives and g >= MACRO_GROUP_MIN
    )


def my_index(info: RankInfo, group: Sequence[int]) -> int:
    """This rank's position inside *group* (raises if absent)."""
    try:
        return group.index(info.rank)
    except ValueError:
        raise ProgramError(f"rank {info.rank} not in group {list(group)!r}") from None


def sendrecv(info: RankInfo, dst: int, data: Any, src: int, *, nwords: int | None = None, tag: int = 0):
    """Send *data* to *dst* and receive one message from *src* (in that order)."""
    yield Send(dst=dst, data=data, nwords=words_of(data) if nwords is None else nwords, tag=tag)
    received = yield Recv(src=src, tag=tag)
    return received


def bcast_binomial(
    info: RankInfo,
    group: Sequence[int],
    root_index: int,
    data: Any,
    *,
    nwords: int | None = None,
    tag: int = 0,
):
    """One-to-all broadcast over *group* along a binomial tree.

    *root_index* indexes into *group*.  Non-roots pass ``data=None`` and
    receive the payload as the return value; the root's payload is
    returned unchanged.  Takes ``ceil(log2 g)`` sequential message steps.
    """
    g = len(group)
    if _posts_op(info, g, data):
        result = yield CollectiveOp(
            kind="bcast", group=group if type(group) is list else list(group),
            data=data, nwords=nwords, tag=tag, root_index=root_index,
        )
        return result
    idx = my_index(info, group)
    rel = (idx - root_index) % g
    rounds = max(1, math.ceil(math.log2(g))) if g > 1 else 0

    if rel != 0:
        parent_rel = rel - (1 << (rel.bit_length() - 1))
        data = yield Recv(src=group[(parent_rel + root_index) % g], tag=tag)
    m = words_of(data) if nwords is None else nwords
    for k in range(rel.bit_length(), rounds):
        child_rel = rel + (1 << k)
        if child_rel < g:
            yield Send(dst=group[(child_rel + root_index) % g], data=data, nwords=m, tag=tag)
    return data


def reduce_binomial(
    info: RankInfo,
    group: Sequence[int],
    root_index: int,
    data: Any,
    *,
    op: Callable[[Any, Any], Any] = np.add,
    nwords: int | None = None,
    tag: int = 0,
    charge_op: Callable[[Any], float] | None = None,
):
    """All-to-one reduction over *group* along a binomial tree.

    Returns the reduced value at the root and ``None`` elsewhere.  If
    *charge_op* is given it maps a received payload to a compute cost in
    basic-op units (e.g. ``lambda x: x.size`` for elementwise adds) and
    the cost is charged via a :class:`Compute` request.
    """
    from repro.simulator.request import Compute  # local to avoid cycle noise

    g = len(group)
    if _posts_op(info, g, data):
        result = yield CollectiveOp(
            kind="reduce", group=group if type(group) is list else list(group),
            data=data, nwords=nwords, tag=tag, root_index=root_index,
            op=op, charge_op=charge_op,
        )
        return result
    idx = my_index(info, group)
    rel = (idx - root_index) % g
    rounds = max(1, math.ceil(math.log2(g))) if g > 1 else 0
    m = words_of(data) if nwords is None else nwords

    for k in range(rounds):
        step = 1 << k
        if rel & step:
            yield Send(dst=group[(rel - step + root_index) % g], data=data, nwords=m, tag=tag)
            return None
        partner_rel = rel + step
        if partner_rel < g:
            other = yield Recv(src=group[(partner_rel + root_index) % g], tag=tag)
            if charge_op is not None:
                yield Compute(charge_op(other), label="reduce-op")
            data = op(data, other)
    return data


def allgather_recursive_doubling(
    info: RankInfo,
    group: Sequence[int],
    data: Any,
    *,
    nwords: int | None = None,
    tag: int = 0,
):
    """All-to-all broadcast (all-gather) over a power-of-two *group*.

    Returns the list of every member's contribution, ordered by group
    index.  Message sizes double each round, for a total transfer volume
    of ``m*(g-1)`` words in ``log2 g`` startups — the hypercube
    all-to-all broadcast cost the paper uses for the simple algorithm.
    """
    g = len(group)
    if g & (g - 1):
        raise ProgramError(f"recursive doubling needs a power-of-two group, got {g}")
    if _posts_op(info, g, data):
        result = yield CollectiveOp(
            kind="allgather_rd", group=group if type(group) is list else list(group),
            data=data, nwords=nwords, tag=tag,
        )
        return result
    idx = my_index(info, group)
    m = words_of(data) if nwords is None else nwords

    have: dict[int, Any] = {idx: data}
    sizes: dict[int, int] = {idx: m}
    for k in range(g.bit_length() - 1):
        partner = idx ^ (1 << k)
        payload = dict(have)
        paysize = sum(sizes.values())
        yield Send(dst=group[partner], data=payload, nwords=paysize, tag=tag)
        received = yield Recv(src=group[partner], tag=tag)
        for j, v in received.items():
            have[j] = v
            sizes[j] = words_of(v)
    return [have[j] for j in range(g)]


def allgather_ring(
    info: RankInfo,
    group: Sequence[int],
    data: Any,
    *,
    nwords: int | None = None,
    tag: int = 0,
):
    """All-to-all broadcast over *group* on a logical ring (``g-1`` steps)."""
    g = len(group)
    if _posts_op(info, g, data):
        result = yield CollectiveOp(
            kind="allgather_ring", group=group if type(group) is list else list(group),
            data=data, nwords=nwords, tag=tag,
        )
        return result
    idx = my_index(info, group)
    m = words_of(data) if nwords is None else nwords
    right = group[(idx + 1) % g]
    left = group[(idx - 1) % g]

    out: list[Any] = [None] * g
    out[idx] = data
    piece = data
    src_idx = idx
    for _ in range(g - 1):
        yield Send(dst=right, data=piece, nwords=m, tag=tag)
        piece = yield Recv(src=left, tag=tag)
        src_idx = (src_idx - 1) % g
        out[src_idx] = piece
    return out


def reduce_scatter_halving(
    info: RankInfo,
    group: Sequence[int],
    data: np.ndarray,
    *,
    tag: int = 0,
    charge_adds: bool = True,
):
    """Reduce-scatter over a power-of-two *group* by recursive halving.

    Elementwise-sums the equal-shaped arrays contributed by all members
    and leaves each member with one contiguous slice of the flattened
    result.  Returns ``(piece, lo, hi)`` where ``piece`` is this rank's
    slice of ``sum(data)`` flattened and ``[lo, hi)`` its word interval.
    Total volume ``m*(g-1)/g`` words in ``log2 g`` startups — the scheme
    that gives Berntsen's algorithm its ``tw * n^2 / p^(2/3)`` summation
    term.
    """
    from repro.simulator.request import Compute

    g = len(group)
    if g & (g - 1):
        raise ProgramError(f"recursive halving needs a power-of-two group, got {g}")
    if isinstance(data, TracedBlock):
        flat = data
    else:
        flat = np.ascontiguousarray(data).reshape(-1).astype(
            np.result_type(data, np.float64), copy=True
        )
    if _posts_op(info, g, data):
        # the private working copy above is made eagerly, exactly when the
        # reference path would; the executor reduces it in place
        result = yield CollectiveOp(
            kind="reduce_scatter", group=group if type(group) is list else list(group),
            data=flat, tag=tag, charge_adds=charge_adds,
        )
        return result
    idx = my_index(info, group)
    lo, hi = 0, flat.size

    block = g
    rel = idx
    while block > 1:
        half = block // 2
        mid = lo + (hi - lo) // 2
        in_low = (rel % block) < half
        partner = group[idx + half] if in_low else group[idx - half]
        if in_low:
            # keep the low half, ship the high half
            yield Send(dst=partner, data=flat[mid:hi].copy(), nwords=hi - mid, tag=tag)
            other = yield Recv(src=partner, tag=tag)
            if charge_adds:
                yield Compute(float(mid - lo), label="reduce-scatter-add")
            flat[lo:mid] += other
            hi = mid
        else:
            yield Send(dst=partner, data=flat[lo:mid].copy(), nwords=mid - lo, tag=tag)
            other = yield Recv(src=partner, tag=tag)
            if charge_adds:
                yield Compute(float(hi - mid), label="reduce-scatter-add")
            flat[mid:hi] += other
            lo = mid
        block = half
    return flat[lo:hi].copy(), lo, hi


def shift_cyclic(
    info: RankInfo,
    group: Sequence[int],
    offset: int,
    data: Any,
    *,
    nwords: int | None = None,
    tag: int = 0,
):
    """Cyclic shift: send *data* to index ``i+offset``, receive from ``i-offset``.

    The workhorse of Cannon's rolling phase and Fox's B-block rotation;
    one step costs ``ts + tw*m`` between ring neighbors.
    """
    g = len(group)
    if offset % g == 0:
        my_index(info, group)  # keep the membership check of the slow path
        return data
    if _posts_op(info, g, data):
        result = yield CollectiveOp(
            kind="shift", group=group if type(group) is list else list(group),
            data=data, nwords=nwords, tag=tag, offset=offset,
        )
        return result
    idx = my_index(info, group)
    m = words_of(data) if nwords is None else nwords
    dst = group[(idx + offset) % g]
    src = group[(idx - offset) % g]
    yield Send(dst=dst, data=data, nwords=m, tag=tag)
    received = yield Recv(src=src, tag=tag)
    return received


def barrier(info: RankInfo, label: str = ""):
    """Global synchronization across *all* ranks of the simulation."""
    yield Barrier(label=label)
