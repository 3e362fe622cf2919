"""The port log: the lockstep tier's one mirror of ``Transport.post_send``.

``post_send`` prices a message in two halves.  The *sender* half takes the
send port, ``leave = max(start, send_free) + alpha + wire * beta``, with
the link the uniform one or ``params.link(src, dst, placement)``; the
*receiver* half folds ``arrival = max(leave, recv_free + wire * beta)``
onto the destination's receive port.  Both count the message for the tracer.
The pricers of :mod:`repro.core.spmd` say only which messages a schedule
sends and when; :class:`PortLog` prices them.  :meth:`PortLog.send` is the
sender half, :meth:`PortLog.receive` the receiver half and
:meth:`PortLog.message` both at once; the dissemination vector pass reads
and writes the same state as member arrays (:meth:`PortLog.port_arrays`,
:meth:`PortLog.member_links`, :meth:`PortLog.count`).  The event tier's
``post_send`` keeps its own copy, with the shared-NIC branch this mirror
leaves out (shared NICs are not lockstep-eligible).

A send port is written by its own member alone, in native order, so the
sender half is a plain fold.  The receive port is folded in engine (time,
seq) order, that is in *post* order, but a phase prices a whole tree or
round at once, and an eagerly priced phase can apply a write before another
phase's earlier-posted one.  The log keeps each receive port's recent
writes sorted by post time and folds every write at its native position:
in order onto the live port state; out of order by re-inserting it and
re-folding the later writes, each of which may grow only up to its *cap*
(the value its consumer committed, always through a ``max``); tied at one
instant only where the engine's tie order is known or provably irrelevant.
Anything else raises :class:`LockstepError`.

Entries are ``[post, leave, transfer, free_before, arrival, cap, owner,
replay]``: ``transfer`` is the message's ``wire * beta`` (one port sees
several link tiers), ``cap`` is None until the writer commits it (+inf
while it may still re-read the arrival), ``owner`` the writing phase's
token, ``replay`` marks a run of ties with a schedule-IR replay in it.  The
dissemination vector pass logs a whole phase as one :class:`_RoundBlock`
of arrays, unpacked into a port's list when a write first touches it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

import numpy as np

__all__ = ["LockstepError", "PortLog", "POST"]

#: Post time of a log entry, and of the tree pricers' (post, leave, wire,
#: payload, transfer) edges: the sort key of both.
POST = itemgetter(0)

#: A port list is pruned when a write finds it this long.
PRUNE_AT = 24


class LockstepError(RuntimeError):
    """A lockstep phase cannot mirror the native execution exactly: its
    participants disagree on its shape, or the native port-write order is
    ambiguous (e.g. two messages posted to one port at the same instant).
    Run the program without opting in (``env.lockstep_collectives = False``).
    """


def _contention(world: int, why: str) -> LockstepError:
    return LockstepError(
        f"lockstep: receive-port contention on world rank {world} {why}; run "
        f"this workload with env.lockstep_collectives off")


class PortLog:
    """The ports, links and message counters of one transport, and every
    receive port's recent writes, for all phases of that transport.

    ``live`` holds the first joins of live phases: a live phase posts at or
    after its first join and a future one at or after now, so ``min(now,
    *live)`` bounds how far back a port can still be overtaken, and older
    entries are pruned.  While a driver prices ahead of the clock (the
    batched sort's plan), ``frontier`` -- the earliest instant a write still
    to come can post -- stands in for now.
    """

    __slots__ = ("lists", "blocks", "_port_blocks", "_port_members",
                 "_next_block", "live", "frontier", "_cached", "_send_free",
                 "_recv_free", "_engine", "_uniform", "_params", "_placement",
                 "_placement_ids", "_sent", "_sent_words", "_recvd",
                 "_recvd_words")

    def __init__(self, transport):
        self._send_free = transport._send_port_free
        self._recv_free = transport._recv_port_free
        self._engine = transport.engine
        self._uniform = transport._uniform_link
        self._params = transport.params
        self._placement = transport.placement
        self._placement_ids = None   # (node ids, island ids), on first use
        stats = transport.tracer.stats
        self._sent = stats.per_rank_messages_sent
        self._sent_words = stats.per_rank_words_sent
        self._recvd = stats.per_rank_messages_received
        self._recvd_words = stats.per_rank_words_received
        self.lists: dict = {}     # world rank -> its port's entries
        # Round blocks by serial, and per world rank the serial of its
        # newest pending block (-1: none) and its member row there; a port
        # has a list or pending blocks, never both.
        self.blocks: dict = {}
        self._port_blocks = self._port_members = None
        self._next_block = 0
        self.live: list = []
        self.frontier = None
        self._cached = None   # (now, bound) as last computed

    def clear(self) -> None:
        self.lists.clear()
        self.blocks.clear()
        self._port_blocks = self._port_members = None
        self.live.clear()
        self.frontier = None

    # ------------------------------------------------------------ the bound

    def bound(self) -> float:
        """The post time below which no entry can be overtaken any more
        (reused within an instant: a phase opened since first joined now)."""
        live = self.live
        frontier = self.frontier
        if frontier is not None:
            return min(frontier, min(live)) if live else frontier
        now = self._engine._now
        cached = self._cached
        if cached is None or cached[0] != now:
            cached = self._cached = (now, min(now, min(live)) if live else now)
        return cached[1]

    @staticmethod
    def _prune(log: list, bound: float) -> None:
        drop = bisect_left(log, bound, key=POST)
        if drop:
            del log[:drop]

    # ---------------------------------------------------------- port lists

    def log(self, world: int, bound: float = -np.inf) -> list:
        """World rank ``world``'s port list, created on first use from its
        pending blocks (oldest first, without writes posted below
        ``bound``; a dropped block and all older ones posted below it)."""
        log = self.lists.get(world)
        if log is None:
            log = self.lists[world] = []
            ports = self._port_blocks
            serial = member = -1
            if ports is not None:
                serial = ports.item(world)
                member = self._port_members.item(world)
                ports[world] = -1
            chain = []
            while serial in self.blocks:
                block = self.blocks[serial]
                chain.append((block, member))
                serial = block.below.item(member)
                member = block.below_member.item(member)
            for block, member in reversed(chain):
                block.unpack(member, log, bound)
        return log

    # ------------------------------------------------------ the sender half

    def send(self, src: int, dst: int, start: float, wire: int) -> tuple:
        """Price a message of ``wire`` words from world rank ``src`` to
        ``dst`` on ``src``'s send port, from ``start`` (the caller's ready
        time, local delays included); returns ``(leave, transfer)``, the
        ``wire * beta`` its receive folds."""
        uniform = self._uniform
        alpha, beta = uniform if uniform is not None \
            else self._params.link(src, dst, self._placement)
        send_free = self._send_free
        port_free = send_free[src]
        if port_free > start:
            start = port_free
        leave = start + alpha + wire * beta
        send_free[src] = leave
        self._sent[src] += 1
        self._sent_words[src] += wire
        return leave, wire * beta

    def message(self, src: int, dst: int, post: float, start: float,
                wire: int, owner, hier: bool) -> list:
        """:meth:`send` and :meth:`receive` of one message posted at
        ``post``; returns its entry (``entry[1]`` is its leave)."""
        leave, transfer = self.send(src, dst, start, wire)
        return self.receive(dst, post, leave, transfer, wire, owner, hier)

    # ---------------------------------------------------- the receiver half

    def receive(self, world: int, post: float, leave: float, transfer: float,
                wire: int, owner, hier: bool) -> list:
        """Fold one write of ``wire`` words onto world rank ``world``'s
        receive port and count it; returns its entry, whose arrival the
        caller reads and whose cap it sets where it commits that.  ``hier``
        marks a schedule-IR replay."""
        self._recvd[world] += 1
        self._recvd_words[world] += wire
        log = self.lists.get(world)
        if log is None:
            ports = self._port_blocks
            if ports is not None and ports.item(world) >= 0:
                log = self.log(world, self.bound())
            else:
                log = self.lists[world] = []
        if log:
            tail = log[-1]
            if post <= tail[0] and (post < tail[0] or hier or tail[7]):
                if post < tail[0]:
                    return self._insert(log, world, post, leave, transfer,
                                        owner, hier)
                self._prove_tie(log, len(log), world, post, leave, transfer,
                                owner)
                hier = True   # the run of ties has a replay in it
            if len(log) >= PRUNE_AT:
                self._prune(log, self.bound())
        # In post order (a flat tie folds in application order, which is
        # the engine's): onto the live port state.
        recv_free = self._recv_free
        free = recv_free[world]
        arrival = free + transfer
        if leave > arrival:
            arrival = leave
        recv_free[world] = arrival
        entry = [post, leave, transfer, free, arrival, None, owner, hier]
        log.append(entry)
        return entry

    def _insert(self, log: list, world: int, post: float, leave: float,
                transfer: float, owner, hier: bool) -> list:
        """A write posted before the port's last one: insert it at its
        native position and re-fold the writes applied after it.  A later
        arrival may grow without diverging while it stays within its cap."""
        index = bisect_right(log, post, key=POST)
        tied = index > 0 and log[index - 1][0] == post
        if tied and (hier or log[index - 1][7]):
            self._prove_tie(log, index, world, post, leave, transfer, owner)
        # max(fold, leave) is the fold's "if leave > fold" bit for bit.
        free = log[index][3]
        arrival = max(free + transfer, leave)
        entry = [post, leave, transfer, free, arrival, None, owner,
                 hier or (tied and log[index - 1][7])]
        free = arrival
        for later in log[index:]:
            later[3] = free
            refold = max(free + later[2], later[1])
            if refold == later[4]:
                break   # re-converged: everything after is untouched
            cap = later[5]
            if cap is None or refold > cap:
                raise _contention(
                    world,
                    f"spans overlapping collective phases (a write posted at "
                    f"{post} changes the arrival of a later write posted at "
                    f"{later[0]} beyond what its phase observed)")
            later[4] = refold
            free = refold
        else:
            self._recv_free[world] = free
        log.insert(index, entry)
        return entry

    @staticmethod
    def absorb(table: np.ndarray, row: int, receivers: slice,
               late: np.ndarray, posts: np.ndarray, leaves: np.ndarray,
               transfer, frees: np.ndarray, arrival: np.ndarray,
               tails: np.ndarray, last: np.ndarray):
        """The vector pass's mirror of :meth:`_insert`.

        Round ``row``'s writes to ports ``receivers[late]`` posted before
        the ports' last write (``last``).  Absorbed when that write is this
        phase's own (in ``table``) and the one before it (or the pre-phase
        ``tails``) posted strictly earlier: the write goes one entry back
        and the overtaken one re-folds within its cap.  Updates ``frees``,
        ``arrival`` and ``table`` and returns the ports' new free times;
        None declines, having written nothing.
        """
        if not row:
            return None
        members = late + receivers.start
        posts_t, leaves_t, transfers_t, frees_t, arrivals_t, caps_t = table.T
        # A log is sorted by post (ties in write order), so the port's last
        # write is the latest-posted one of the latest round.
        earlier = posts_t[:row, members]
        top = earlier.max(axis=0)
        back = row - 1 - np.argmax(earlier[::-1] == top, axis=0)
        earlier[back, np.arange(late.size)] = -np.inf
        before = np.maximum(earlier.max(axis=0), tails[members])
        if np.any(top < last[late]) or np.any(before >= posts[late]):
            return None
        front = frees_t[back, members]
        inserted = front + (transfer if transfer.__class__ is float
                            else transfer[late])
        np.maximum(inserted, leaves[late], out=inserted)
        refold = inserted + transfers_t[back, members]
        np.maximum(refold, leaves_t[back, members], out=refold)
        if np.any((refold != arrivals_t[back, members])
                  & (refold > caps_t[back, members])):
            return None
        frees_t[back, members] = inserted
        arrivals_t[back, members] = refold
        frees[late] = front
        arrival[late] = inserted
        port = arrival.copy()
        port[late] = refold
        return port

    def _prove_tie(self, log: list, end: int, world: int, post: float,
                   leave: float, transfer: float, owner) -> None:
        """Refuse a write tying the run ``log[start:end]`` (a replay among
        them) unless its place is irrelevant.

        A replay's stages interleave across generations, so the engine's
        tie order depends on history the pricer cannot see.  Safe are a run
        of this owner's writes (emission order is native) and a fold that
        commutes: at the run's *front* it leaves every tied arrival as it is
        and gets the arrival it gets at the *back*; the fold is monotone in
        the free time, so that covers every place between.
        """
        start = bisect_left(log, post, 0, end, key=POST)
        if all(log[k][6] is owner for k in range(start, end)):
            return
        free = front = max(log[start][3] + transfer, leave)
        for entry in log[start:end]:
            free = max(free + entry[2], entry[1])
            if free != entry[4]:
                break
        else:
            back = log[end][3] if end < len(log) else self._recv_free[world]
            if front == max(back + transfer, leave):
                return
        raise _contention(
            world,
            f"— writes from overlapping collective phases posted at exactly "
            f"{post} and their fold depends on the native tie order")

    # ------------------------------------------------ the vector pass's arrays

    def port_arrays(self, world: list, affine) -> tuple:
        """The send and receive port free times of the members ``world``
        (member -> world rank, ``affine`` its ``(first, stride)`` or None)
        as float64 arrays."""
        return (_gather(self._send_free, world, affine),
                _gather(self._recv_free, world, affine))

    def set_port_arrays(self, world: list, affine, send_free: np.ndarray,
                        recv_free: np.ndarray) -> None:
        """Store :meth:`port_arrays`' arrays back, as the exact floats the
        scalar stores would leave."""
        _scatter(self._send_free, world, affine, send_free)
        _scatter(self._recv_free, world, affine, recv_free)

    def member_links(self, worlds: np.ndarray):
        """Link prices of sends among the members ``worlds`` (world ranks,
        an index array): the uniform ``(alpha, beta)``, or on a tiered
        machine ``(alphas, betas, nodes, islands)`` -- the cost model's
        three tiers and the members' node and island ids.  None when the
        tiered model has no tier table (``tier_link``)."""
        uniform = self._uniform
        if uniform is not None:
            return uniform
        tier_link = getattr(self._params, "tier_link", None)
        if tier_link is None:
            return None
        ids = self._placement_ids
        if ids is None:
            placement = self._placement
            ids = self._placement_ids = (
                np.asarray(placement.nodes, dtype=np.intp),
                np.asarray(placement.islands, dtype=np.intp))
        tiers = [tier_link(tier) for tier in range(3)]
        return (np.array([pair[0] for pair in tiers], dtype=np.float64),
                np.array([pair[1] for pair in tiers], dtype=np.float64),
                ids[0][worlds], ids[1][worlds])

    @staticmethod
    def edge_links(links: tuple, senders, dests, sources, wire: int) -> tuple:
        """``(alpha, transfer, received)`` of a round's sends from members
        ``senders`` to ``dests`` under :meth:`member_links`' ``links``:
        ``transfer`` is ``wire * beta`` per send, ``received`` the same per
        receiver (whose sender ``sources`` picks).  Floats on a uniform
        machine; else arrays, each edge's tier found elementwise as
        ``Placement.tier_of`` finds it, its values those ``params.link``
        returns."""
        if len(links) == 2:
            alpha, beta = links
            transfer = wire * beta
            return alpha, transfer, transfer
        alphas, betas, nodes, islands = links
        tier = np.where(islands[senders] != islands[dests], 2,
                        np.where(nodes[senders] != nodes[dests], 1, 0))
        transfer = wire * betas[tier]
        return alphas[tier], transfer, transfer[sources]

    def count(self, world: list, sent: list, received: list,
              wire: int) -> None:
        """Count a vector pass's messages of ``wire`` words: member ``i``
        (world rank ``world[i]``) sent ``sent[i]``, received
        ``received[i]``."""
        sent_by_rank = self._sent
        sent_words = self._sent_words
        recvd_by_rank = self._recvd
        recvd_words = self._recvd_words
        for member, rank in enumerate(world):
            sent_by_rank[rank] += sent[member]
            recvd_by_rank[rank] += received[member]
            if wire:
                sent_words[rank] += sent[member] * wire
                recvd_words[rank] += received[member] * wire

    # ------------------------------------------------------- the block path

    def tails(self, world: list, worlds: np.ndarray, hier: bool) -> tuple:
        """``(tails, hazards, listed)`` of the members' ports (``worlds``:
        ``world`` as an index array): each port's last post (-inf: none),
        that post again where a tie to it needs :meth:`_prove_tie` (which
        the vector pass cannot run), and the members whose port has a list.
        """
        size = len(world)
        tails = np.full(size, -np.inf)
        hazards = np.full(size, -np.inf)
        listed = []
        lists = self.lists
        if lists:
            for member, rank in enumerate(world):
                log = lists.get(rank)
                if log is not None:
                    listed.append(member)
                    if log:
                        tail = log[-1]
                        tails[member] = tail[0]
                        if hier or tail[7]:
                            hazards[member] = tail[0]
        ports = self._port_blocks
        if ports is not None:
            serials = ports[worlds]
            members = self._port_members[worlds]
            blocks = self.blocks
            for serial in np.unique(serials[serials >= 0]).tolist():
                block = blocks.get(serial)
                if block is None:
                    continue   # dropped: all posted below every write to come
                where = serials == serial
                posts = block.tail_posts[members[where]]
                tails[where] = posts
                if hier or block.hier:
                    hazards[where] = posts
        return tails, hazards, listed

    def add_block(self, table: np.ndarray, offsets, world: list,
                  worlds: np.ndarray, owner, hier: bool, reordered: bool,
                  listed: list) -> None:
        """Log a vector pass's writes: appended to the ports that have a
        list, pending in a :class:`_RoundBlock` for the others (entries and
        order as the scalar fold leaves them; only prune timing differs).
        Blocks that posted wholly below the prune bound are dropped."""
        block = _RoundBlock(table, offsets, owner, hier, reordered)
        bound = self.bound()
        lists = self.lists
        for member in listed:
            log = lists[world[member]]
            if len(log) >= PRUNE_AT:
                self._prune(log, bound)
            block.unpack(member, log, bound)
        size = len(world)
        pending = np.ones(size, dtype=bool)
        pending[:offsets[0]] = False   # members that never receive
        pending[listed] = False
        if not pending.any():
            return
        blocks = self.blocks
        for serial in [serial for serial, old in blocks.items()
                       if old.max_post < bound]:
            del blocks[serial]
        ports = self._port_blocks
        rows = self._port_members
        if ports is None:
            ports = self._port_blocks = np.full(
                len(self._recv_free), -1, dtype=np.intp)
            rows = self._port_members = np.full_like(ports, -1)
        serial = self._next_block
        self._next_block = serial + 1
        receiving = worlds[pending]
        block.below = np.full(size, -1, dtype=np.intp)
        block.below_member = np.full(size, -1, dtype=np.intp)
        block.below[pending] = ports[receiving]
        block.below_member[pending] = rows[receiving]
        ports[receiving] = serial
        rows[receiving] = np.flatnonzero(pending)
        blocks[serial] = block


def _gather(ports: list, world: list, affine) -> np.ndarray:
    """The members' slice of a per-world-rank port list, as float64."""
    if affine is not None and affine[1] > 0:
        first, stride = affine
        return np.array(ports[first:first + len(world) * stride:stride],
                        dtype=np.float64)
    return np.fromiter(map(ports.__getitem__, world), dtype=np.float64,
                       count=len(world))


def _scatter(ports: list, world: list, affine, values: np.ndarray) -> None:
    """Write a member-indexed array back into a per-world-rank port list
    (``ndarray.tolist`` yields the exact Python floats)."""
    items = values.tolist()
    if affine is not None and affine[1] > 0:
        first, stride = affine
        ports[first:first + len(world) * stride:stride] = items
    else:
        for rank, item in zip(world, items):
            ports[rank] = item


class _RoundBlock:
    """A vector pass's writes: ``table[member, round]`` holds fields 0-5 of
    the entry a member received in a round (members below
    ``offsets[round]`` received none); ``below[member]`` and
    ``below_member[member]`` locate the port's previous pending block and
    its row there (-1: none).
    """

    __slots__ = ("table", "offsets", "owner", "hier", "reordered",
                 "tail_posts", "max_post", "below", "below_member")

    def __init__(self, table, offsets, owner, hier, reordered):
        self.table = table
        self.offsets = offsets
        self.owner = owner
        self.hier = hier
        # An absorbed overtake leaves a port's writes out of round order.
        self.reordered = reordered
        self.tail_posts = table[:, :, 0].max(axis=1)
        self.max_post = float(self.tail_posts.max())
        self.below = self.below_member = None

    def unpack(self, member: int, log: list, bound: float) -> None:
        """Append ``member``'s writes posted at or after ``bound`` to its
        port's list, in post order (ties keep round order)."""
        owner = self.owner
        hier = self.hier
        entries = [
            [post, leave, transfer, free, arrival, cap, owner, hier]
            for (post, leave, transfer, free, arrival, cap), offset in zip(
                self.table[member].tolist(), self.offsets)
            if member >= offset and post >= bound]
        if self.reordered:
            entries.sort(key=POST)
        log.extend(entries)
