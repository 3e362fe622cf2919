"""Collective algorithms for large inputs.

The binomial-tree algorithms in :mod:`repro.collectives.machines` are
"theoretically optimal for small input sizes" (Section V-D of the paper); the
paper explicitly notes that "it is easy to extend our library by additional
collective operations, e.g., for large input sizes".  This module provides
those extensions:

* binomial-tree **scatter** / **scatterv** (the natural dual of gather),
* a **ring allgather(v)** that is bandwidth-optimal for large contributions,
* the **scatter-allgather broadcast** (van de Geijn): split the vector into
  p blocks, scatter them down a binomial tree and re-assemble with a ring
  allgather — ``O(alpha log p + 2 beta n)`` instead of ``O((alpha + beta n) log p)``,
* a **pipelined chain broadcast** that streams fixed-size segments down a
  process chain — asymptotically ``O(alpha (p + k) + beta n)`` for k segments,
* a **ring reduce-scatter** and the **ring allreduce** built from it
  (reduce-scatter + allgather), both bandwidth-optimal,
* :func:`choose_bcast_algorithm` / :func:`choose_allreduce_algorithm`, the
  simple crossover heuristics behind ``algorithm="auto"``
  (:mod:`repro.collectives.dispatch`).

All schedules follow the port protocol of :mod:`repro.collectives.machines`:
they are generators that post sends and receives on the port they are handed,
``yield`` to end a state and finally return the local result, so the same
:class:`~repro.collectives.machines.CollectiveRequest` drives them.

The vector algorithms (scatter-allgather broadcast, reduce-scatter, ring
allreduce, pipelined broadcast) require one-dimensional NumPy array payloads;
the generic object algorithms (scatter, ring allgather) accept any payload.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..simulator.costmodel import (
    DEFAULT_ALLREDUCE_CROSSOVER_WORDS,
    DEFAULT_BCAST_CROSSOVER_WORDS,
    CostModel,
)
from ..simulator.network import freeze_payload, payload_words
from .topology import from_virtual, to_virtual

__all__ = [
    "DEFAULT_SEGMENT_WORDS",
    "LARGE_BCAST_THRESHOLD_WORDS",
    "LARGE_ALLREDUCE_THRESHOLD_WORDS",
    "block_sizes",
    "block_bounds",
    "split_blocks",
    "scatter_schedule",
    "ring_allgather_schedule",
    "bcast_scatter_allgather_schedule",
    "pipeline_bcast_schedule",
    "reduce_scatter_ring_schedule",
    "allreduce_ring_schedule",
    "choose_bcast_algorithm",
    "choose_allreduce_algorithm",
]

#: Segment size (in machine words) of the pipelined chain broadcast.
DEFAULT_SEGMENT_WORDS = 4096

#: Payload size (words per process) above which ``algorithm="auto"`` switches
#: the broadcast from the binomial tree to the scatter-allgather algorithm
#: when no cost model is consulted.  The crossover of the two cost terms
#: ``(alpha + beta n) log p`` versus ``alpha log p + 2 beta n`` lies near
#: ``n ~ alpha log p / beta``; with the default machine parameters and p in
#: the hundreds this is a few thousand words, so a fixed threshold in that
#: region is a reasonable vendor-style heuristic (exact tuning is the job of
#: the ablation benchmark).  When the executing machine's cost model is
#: available (``choose_*``'s ``model`` argument, wired through
#: :attr:`~repro.collectives.endpoint.TransportEndpoint.cost_model`), the
#: model's own crossover wins — hierarchical machines derive it from their
#: link tiers.
LARGE_BCAST_THRESHOLD_WORDS = DEFAULT_BCAST_CROSSOVER_WORDS

#: Same idea for allreduce (reduce+bcast versus ring).
LARGE_ALLREDUCE_THRESHOLD_WORDS = DEFAULT_ALLREDUCE_CROSSOVER_WORDS


# ---------------------------------------------------------------------------
# Block distribution helpers.
# ---------------------------------------------------------------------------

def block_sizes(total: int, parts: int) -> list[int]:
    """MPI-style block distribution of ``total`` items over ``parts`` blocks.

    The first ``total % parts`` blocks receive one extra item, so sizes differ
    by at most one and sum to ``total``.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def block_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` bounds of every block of the distribution of :func:`block_sizes`."""
    bounds = []
    cursor = 0
    for size in block_sizes(total, parts):
        bounds.append((cursor, cursor + size))
        cursor += size
    return bounds


def split_blocks(array: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split a 1-D array into ``parts`` contiguous blocks (views, no copies)."""
    array = _require_vector(array, "split_blocks")
    return [array[lo:hi] for lo, hi in block_bounds(array.shape[0], parts)]


def _require_vector(value: Any, operation: str) -> np.ndarray:
    array = np.asarray(value)
    if array.ndim != 1:
        raise ValueError(
            f"{operation} requires a one-dimensional array payload, "
            f"got shape {array.shape}")
    return array


# ---------------------------------------------------------------------------
# Scatter / scatterv.
# ---------------------------------------------------------------------------

def scatter_schedule(port, values: Optional[Sequence[Any]], root: int):
    """Binomial-tree scatter: the root distributes ``values[i]`` to rank ``i``.

    ``values`` is only read on the root (its length must equal the group
    size); every rank returns its own element.  Payloads may differ in size,
    so the same schedule implements scatterv.  Internal nodes forward only the
    payloads destined for their subtree, so the volume on every tree edge is
    exactly the data below it — ``O(alpha log p + beta n)`` from the root's
    point of view.
    """
    size = port.size
    rank = port.rank
    if rank == root:
        if values is None:
            raise ValueError("scatter root must provide one payload per rank")
        values = list(values)
        if len(values) != size:
            raise ValueError(
                f"scatter root must provide {size} payloads, got {len(values)}")
    if size == 1:
        return values[0]

    vrank = to_virtual(rank, root, size)
    if vrank == 0:
        bucket = {to_virtual(dest, root, size): values[dest] for dest in range(size)}
    else:
        slot = port.irecv(from_virtual(binomial_parent_of(vrank), root, size))
        yield
        bucket = port.msgs[slot].payload

    my_value = bucket[vrank]

    subtrees = _binomial_subtrees(vrank, size)
    for child, span in subtrees:
        payload = {vr: bucket[vr] for vr in range(child, min(child + span, size))}
        port.isend(payload, from_virtual(child, root, size))
    if subtrees:
        yield
    return my_value


def binomial_parent_of(vrank: int) -> int:
    """Parent of ``vrank`` in the binomial tree (only valid for vrank > 0)."""
    if vrank == 0:
        raise ValueError("virtual rank 0 is the root and has no parent")
    return vrank & (vrank - 1)


def _binomial_subtrees(vrank: int, size: int) -> list[tuple[int, int]]:
    """Children of ``vrank`` with the width of the subtree each one roots.

    Returned largest subtree first (the order a scatter should send in).
    """
    subtrees = []
    mask = 1
    while mask < size:
        if vrank & mask:
            break
        child = vrank | mask
        if child < size:
            subtrees.append((child, mask))
        mask <<= 1
    subtrees.reverse()
    return subtrees


# ---------------------------------------------------------------------------
# Ring allgather.
# ---------------------------------------------------------------------------

def ring_allgather_schedule(port, value: Any):
    """Ring allgather: after p-1 rounds every rank holds every contribution.

    Bandwidth-optimal (every word crosses each link once) but with ``p - 1``
    startups, so it only pays off for large contributions — exactly the
    trade-off of Section IV.  Contributions may differ in size (allgatherv).
    Returns the list of contributions indexed by group rank.
    """
    size = port.size
    rank = port.rank
    gathered: list[Any] = [None] * size
    gathered[rank] = value
    if size == 1:
        return gathered
    succ = (rank + 1) % size
    pred = (rank - 1) % size
    carried = (rank, value)
    for _ in range(size - 1):
        port.isend(carried, succ)
        slot = port.irecv(pred)
        yield
        carried = port.msgs[slot].payload
        src, payload = carried
        gathered[src] = payload
    return gathered


# ---------------------------------------------------------------------------
# Large-message broadcasts.
# ---------------------------------------------------------------------------

def bcast_scatter_allgather_schedule(port, value: Any, root: int):
    """Scatter-allgather (van de Geijn) broadcast for long vectors.

    The root splits the vector into p near-equal blocks, scatters them down a
    binomial tree and the group re-assembles the vector with a ring allgather:
    ``O(alpha (log p + p) + 2 beta n)`` versus ``O((alpha + beta n) log p)``
    for the binomial tree, i.e. a win once ``beta n`` dominates the startups.
    Requires a 1-D array payload on the root; every rank returns the full
    broadcast vector.
    """
    size = port.size
    if size == 1:
        return _require_vector(value, "scatter-allgather broadcast")
    blocks = None
    if port.rank == root:
        array = _require_vector(value, "scatter-allgather broadcast")
        blocks = split_blocks(array, size)
    my_block = yield from scatter_schedule(port, blocks, root)
    gathered = yield from ring_allgather_schedule(port, my_block)
    return np.concatenate([np.asarray(block) for block in gathered])


def pipeline_bcast_schedule(port, value: Any, root: int,
                            segment_words: int = DEFAULT_SEGMENT_WORDS):
    """Pipelined chain broadcast: stream fixed-size segments down a process chain.

    The processes form a chain in virtual-rank order (root first); each one
    forwards segment ``k`` to its successor while already receiving segment
    ``k + 1`` from its predecessor.  For n words in k segments the time is
    ``O((p + k)(alpha + beta n / k))`` — with ``k ~ sqrt(n beta / alpha)`` this
    approaches ``beta n`` for long vectors, at the price of a chain (not
    logarithmic) latency term.  Requires a 1-D array payload on the root.

    A forward is posted right after the resume, so it belongs to the *next*
    state: the rank waits for segment ``k`` to leave together with the
    arrival of segment ``k + 1``.
    """
    if segment_words <= 0:
        raise ValueError("segment_words must be positive")
    size = port.size
    if size == 1:
        return _require_vector(value, "pipelined broadcast")

    vrank = to_virtual(port.rank, root, size)
    succ = from_virtual(vrank + 1, root, size) if vrank + 1 < size else None
    pred = from_virtual(vrank - 1, root, size) if vrank > 0 else None

    if vrank == 0:
        array = _require_vector(value, "pipelined broadcast")
        total = array.shape[0]
        num_segments = max(1, -(-total // segment_words))
        for index in range(num_segments):
            lo = index * segment_words
            segment = array[lo:lo + segment_words]
            port.isend((index, num_segments, segment), succ)
            yield
        return array

    segments: list[np.ndarray] = []
    num_segments: Optional[int] = None
    received = 0
    while num_segments is None or received < num_segments:
        slot = port.irecv(pred)
        yield
        index, num_segments, segment = port.msgs[slot].payload
        segments.append(np.asarray(segment))
        received += 1
        if succ is not None:
            port.isend((index, num_segments, segment), succ)
    if succ is not None:
        yield
    return np.concatenate(segments)


# ---------------------------------------------------------------------------
# Ring reduce-scatter and ring allreduce.
# ---------------------------------------------------------------------------

def reduce_scatter_ring_schedule(port, value: Any,
                                 op: Callable[[Any, Any], Any]):
    """Ring reduce-scatter: rank ``i`` returns the reduction of block ``i``.

    Every rank contributes a 1-D vector of the same length; the vector is cut
    into p near-equal blocks (:func:`block_bounds`) and after ``p - 1`` rounds
    rank ``i`` holds ``op``-reduction over all contributions of block ``i``.
    Bandwidth-optimal: each rank sends and receives ``n (p-1)/p`` words in
    total.  Assumes a commutative ``op`` (contributions are folded in ring
    order, not rank order).
    """
    size = port.size
    rank = port.rank
    array = _require_vector(value, "ring reduce-scatter")
    bounds = block_bounds(array.shape[0], size)
    if size == 1:
        return array.copy()

    succ = (rank + 1) % size
    pred = (rank - 1) % size

    def local_block(index: int) -> np.ndarray:
        lo, hi = bounds[index % size]
        return array[lo:hi]

    # Invariant: before step s the rank holds the partial reduction of block
    # (rank - s - 1) mod p over the contributions of ranks (rank - s)..rank.
    current = local_block(rank - 1).copy()
    pending_delay = 0.0
    for step in range(size - 1):
        # ``current`` is always a buffer this rank owns (the initial copy or
        # a fresh ``op`` result) and is never touched after the send, so it
        # travels frozen — the transport skips its defensive snapshot.
        port.isend(freeze_payload(current), succ, pending_delay)
        slot = port.irecv(pred)
        yield
        incoming = port.msgs[slot].payload
        mine = local_block(rank - step - 2)
        pending_delay = port.op_delay(payload_words(incoming))
        current = op(incoming, mine)
    return current


def allreduce_ring_schedule(port, value: Any,
                            op: Callable[[Any, Any], Any]):
    """Ring allreduce = ring reduce-scatter followed by a ring allgather.

    ``O(alpha p + 2 beta n)`` — bandwidth-optimal and the standard choice for
    long vectors; the small-input alternative (binomial reduce + broadcast)
    lives in :func:`repro.collectives.machines.allreduce_schedule`.
    """
    size = port.size
    array = _require_vector(value, "ring allreduce")
    my_block = yield from reduce_scatter_ring_schedule(port, array, op)
    if size == 1:
        return my_block
    gathered = yield from ring_allgather_schedule(port, my_block)
    return np.concatenate([np.asarray(block) for block in gathered])


# ---------------------------------------------------------------------------
# Algorithm selection for ``algorithm="auto"``.
# ---------------------------------------------------------------------------

def choose_bcast_algorithm(words: int, size: int, payload: Any = None,
                           model: Optional[CostModel] = None,
                           hierarchical: bool = False) -> str:
    """Pick a broadcast algorithm for a payload of ``words`` machine words.

    Vector payloads above the crossover size on more than two processes use
    the scatter-allgather algorithm, everything else the binomial tree.  The
    crossover comes from the executing machine's cost ``model``
    (:meth:`~repro.simulator.costmodel.CostModel.bcast_crossover_words`) when
    one is given — hierarchical machines derive it from their link tiers —
    and falls back to :data:`LARGE_BCAST_THRESHOLD_WORDS`.  Non-array
    payloads never use scatter-allgather because they cannot be split into
    blocks.

    ``hierarchical=True`` states that the executing machine exposes a
    non-trivial placement (:func:`repro.collectives.hierarchical.hierarchy_of`):
    every case that would use the topology-blind binomial tree then uses the
    node-leader tree instead (it handles arbitrary payloads).
    """
    small = "hierarchical" if hierarchical else "binomial"
    if payload is not None and not isinstance(payload, np.ndarray):
        return small
    if payload is not None and np.asarray(payload).ndim != 1:
        return small
    threshold = (model.bcast_crossover_words(size) if model is not None
                 else LARGE_BCAST_THRESHOLD_WORDS)
    if size > 2 and words >= threshold:
        return "scatter_allgather"
    return small


def choose_allreduce_algorithm(words: int, size: int, payload: Any = None,
                               model: Optional[CostModel] = None,
                               hierarchical: bool = False) -> str:
    """Pick an allreduce algorithm (``"reduce_bcast"``, ``"hierarchical"``
    or ``"ring"``).

    Like :func:`choose_bcast_algorithm`, the crossover consults the machine's
    cost ``model`` when given and falls back to
    :data:`LARGE_ALLREDUCE_THRESHOLD_WORDS`; below it, a machine with a
    non-trivial placement (``hierarchical=True``) uses the node-leader
    reduce+bcast instead of the flat one.
    """
    small = "hierarchical" if hierarchical else "reduce_bcast"
    if payload is not None and not isinstance(payload, np.ndarray):
        return small
    if payload is not None and np.asarray(payload).ndim != 1:
        return small
    threshold = (model.allreduce_crossover_words(size) if model is not None
                 else LARGE_ALLREDUCE_THRESHOLD_WORDS)
    if size > 2 and words >= threshold:
        return "ring"
    return small
