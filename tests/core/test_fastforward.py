"""Differential tests for the lockstep fast-forward tier.

:mod:`repro.core.spmd` carries a second, vectorised pricer for barrier and
scan phases: instead of advancing a frontier rank by rank, whole collective
rounds are priced with numpy once every member has joined.  Its contract is
the same as lockstep's own — *bit-identical or refuse*: every observable of
a simulation (finish times, results, simulated time, tracer statistics, port
logs' effect on later phases) must match the event-by-event run of the same
program on the oracle (``tests/oracle.py``), and workloads lockstep refuses
must be refused with the tier armed, with the same
:class:`~repro.core.spmd.LockstepError`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import collective_program
from repro.collectives.endpoint import TransportEndpoint
from repro.collectives.machines import SCHEDULES, CollectiveRequest
from repro.core import spmd
from repro.messaging import RecvRequest, wait_all
from repro.mpi import init_mpi
from repro.mpi.datatypes import ANY_SOURCE, MAX, MIN, PROD, SUM
from repro.rbc import collectives as rbc
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster, HierarchicalParams
from repro.simulator.errors import RankFailedError

from oracle import assert_equal_observables, run_both


def _collective_program(env, *, op, words, reps, skew=0.0, reduce_op=SUM,
                        float_payload=False):
    """Barrier-separated collectives with optional per-rank join skew."""
    env.lockstep_collectives = True
    world_mpi = init_mpi(env, vendor="generic")
    world_rbc = yield from create_rbc_comm(world_mpi)
    if float_payload:
        payload = float(env.rank + 1)
    elif words:
        payload = np.ones(words) * (env.rank + 1)
    else:
        payload = np.zeros(0)
    digests = []
    for _ in range(reps):
        yield from rbc.barrier(world_rbc)
        if skew:
            # Unequal compute before the join: ranks enter the phase at
            # genuinely different virtual times, so the vectorised pricer
            # sees non-uniform resume/port state.
            yield from env.compute_time(skew * ((env.rank * 7) % 5))
        if op == "barrier":
            request = rbc.ibarrier(world_rbc)
        elif op == "scan":
            request = rbc.iscan(world_rbc, payload, reduce_op)
        else:
            raise AssertionError(op)
        yield from env.wait_until(request.test)
        value = request.result()
        digests.append(None if value is None else float(np.sum(value)))
    return (env.now, tuple(digests))


def _run_both(num_ranks, **kwargs):
    return run_both(num_ranks, _collective_program, **kwargs)


def _passes(result, num_ranks, phases, vector=None):
    """Assert which pass priced a run's ``phases`` dissemination phases:
    ``vector`` of them (default: all) took the vector pass from
    VECTOR_CUTOFF members, none below it, the rest the scalar pass, and no
    vector attempt declined."""
    if num_ranks < spmd.VECTOR_CUTOFF:
        vector = 0
    elif vector is None:
        vector = phases
    assert (result.obs["phases_fastforward"], result.obs["phases_lockstep"],
            result.obs["fastforward_fallbacks"]) == \
        (vector, phases - vector, 0)


@pytest.mark.parametrize("op", ["barrier", "scan"])
@pytest.mark.parametrize("num_ranks", [16, 17, 24, 31, 33, 64])
def test_fastforward_bit_identical(op, num_ranks):
    vector, native = _run_both(num_ranks, op=op, words=4, reps=3)
    assert_equal_observables(vector, native)
    # The three barriers and the three collectives they separate all took
    # the vector pass (every group is at least VECTOR_CUTOFF members).
    _passes(vector, num_ranks, 6)


@pytest.mark.parametrize("num_ranks", [5, 8, 16, 17, 31, 64])
@pytest.mark.parametrize("op", ["barrier", "scan"])
def test_fastforward_bit_identical_under_join_skew(op, num_ranks):
    """Skewed joins give the vector pass non-uniform resume and port state:
    the barriers take it once the last member joins; a skewed scan streams
    its prefix through the scalar pass, as member 0 joins ahead of the
    rest.  Either way the run equals the oracle's exactly."""
    default, native = _run_both(num_ranks, op=op, words=2, reps=4, skew=0.37)
    assert_equal_observables(default, native)
    _passes(default, num_ranks, 8, vector=8 if op == "barrier" else 4)


@pytest.mark.parametrize("num_ranks", [13, 17])
@pytest.mark.parametrize("reduce_op", [SUM, PROD, MIN, MAX])
def test_fastforward_scan_operators(reduce_op, num_ranks):
    """Array scans vectorise per operator (the array plan); values and
    timing match below and above the cutoff."""
    default, native = _run_both(num_ranks, op="scan", words=8, reps=2,
                                reduce_op=reduce_op)
    assert_equal_observables(default, native)
    _passes(default, num_ranks, 4)


@pytest.mark.parametrize("num_ranks", [9, 17])
@pytest.mark.parametrize("reduce_op", [SUM, PROD])
def test_fastforward_float_scan(reduce_op, num_ranks):
    """Plain-float payloads take the float vector plan (SUM/PROD only)."""
    default, native = _run_both(num_ranks, op="scan", words=0, reps=2,
                                reduce_op=reduce_op, float_payload=True)
    assert_equal_observables(default, native)
    _passes(default, num_ranks, 4)


def test_fastforward_scan_results_stay_writable_equivalently():
    """Ranks whose event-by-event result is a fresh accumulator must not get
    a frozen (read-only) array from the vector path, and vice versa."""

    def program(env):
        env.lockstep_collectives = True
        world_mpi = init_mpi(env, vendor="generic")
        world_rbc = yield from create_rbc_comm(world_mpi)
        yield from rbc.barrier(world_rbc)
        request = rbc.iscan(world_rbc, np.ones(4) * (env.rank + 1))
        yield from env.wait_until(request.test)
        value = request.result()
        return bool(np.asarray(value).flags.writeable)

    for p in (16, 17, 19, 23, 27, 32):
        vector, native = run_both(p, program)
        assert vector.obs["phases_fastforward"] == 2, p
        assert vector.results == native.results, p


def test_fastforward_preserves_lockstep_refusal():
    """The workload lockstep must refuse (receive-port contention across
    overlapping gather phases) is refused with the fast-forward tier armed —
    the tier's log entries feed the same contention detector."""

    def program(env):
        env.lockstep_collectives = True
        world_mpi = init_mpi(env, vendor="generic")
        world_rbc = yield from create_rbc_comm(world_mpi)
        yield from rbc.barrier(world_rbc)
        for _ in range(2):
            request = rbc.igather(world_rbc, np.ones(8), root=0)
            yield from env.wait_until(request.test)

    cluster = Cluster(28)
    with pytest.raises(RankFailedError) as info:
        cluster.run(program)
    assert isinstance(info.value.__cause__, spmd.LockstepError)
    assert "receive-port contention" in str(info.value.__cause__)
    assert cluster._obs_snapshot()["phases_fastforward"] == 1  # the barrier


def test_fastforward_never_processes_more_events():
    """Flush fusion may reduce the event count but must never inflate it."""
    vector, native = _run_both(32, op="scan", words=4, reps=3)
    assert vector.events_processed <= native.events_processed


# ---------------------------------------------------------------------------
# Fed (whole phase at once) vs joined (member by member) pricing.
#
# A phase class has one pricer: a driver runs it over everyone
# (``_feed_all``), a join hands it the members that join made resolvable.
# Whatever the join order, both entries must leave byte-equal finish times,
# results, port arrays, port logs and tracer statistics — or refuse with
# the same ``LockstepError``.  The data exchange is only ever fed, so its
# reference is the event engine itself (further down).
# ---------------------------------------------------------------------------

WORLD = 12       # ranks of the scratch cluster the phases are priced on
GROUP_FIRST = 2  # the group under test starts at this world rank


class _Bench:
    """One unstarted cluster with a coordinator to price phases on."""

    def __init__(self):
        # Room for a group of VECTOR_CUTOFF + 1 members at GROUP_FIRST.
        self.cluster = Cluster(WORLD + spmd.VECTOR_CUTOFF)
        self.env = self.cluster.envs[0]
        self.coordinator = spmd.SpmdCoordinator(self.cluster.transport)

    def phase(self, factory, op, size, first=GROUP_FIRST, stride=1, root=0):
        endpoint = TransportEndpoint(
            self.env.transport, context=("fed", factory.kind), tag=0,
            size=size, world_affine=(first, stride))
        phase = factory(endpoint, op, root, self.coordinator)
        # Driver-owned, like ``_PhaseBase._sub_phase`` sets a sub-phase up.
        phase._retired = True
        phase._gen_key = None
        phase.first_join = 0.0
        return phase

    def foreign_write(self, port, post_time, sender=None):
        """Another phase's (already capped) write on world rank ``port``,
        posted at ``post_time`` by world rank ``sender`` (default: the rank
        just below the port)."""
        if sender is None:
            sender = port - 1
        bcast = self.phase(spmd._BcastPhase, None, 2, first=sender,
                           stride=port - sender)
        bcast._feed_all([post_time, post_time], [np.ones(3), None])

    def joined(self, phase, times, values, order):
        for member in order:
            phase._join_at(member, values[member], times[member])
        if getattr(phase, "_flush_armed", False):
            phase._flush(None)
        assert None not in phase.finish
        # Synthetic members get no request object.
        assert phase.requests == [None] * phase.size
        return phase.finish, phase.results

    def observables(self):
        transport = self.cluster.transport
        stats = self.cluster.tracer.stats
        owners: dict = {}
        logs = {}
        for port in range(self.cluster.num_ranks):
            # Building a port's list unpacks what round blocks hold for it.
            log = self.coordinator.ports.log(port)
            if log:
                logs[port] = [
                    entry[:6] + [owners.setdefault(id(entry[6]), len(owners)),
                                 entry[7]] for entry in log]
        return (list(transport._send_port_free),
                list(transport._recv_port_free), logs,
                stats.messages_sent, stats.words_sent,
                list(stats.per_rank_messages_sent),
                list(stats.per_rank_words_sent),
                list(stats.per_rank_messages_received),
                list(stats.per_rank_words_received))


def _plain(value):
    """A result as comparable plain data (arrays keep their writability)."""
    if isinstance(value, np.ndarray):
        return ("array", value.tolist(), value.flags.writeable)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _price_both_ways(factory, op, times, values, *, root=0, order=None,
                     foreign=None, cutoffs=None):
    """(outcome, observables, fallbacks, tier) of the joined and of the fed
    pricing; ``cutoffs``, if given, is the VECTOR_CUTOFF each of the two
    runs under."""
    size = len(times)
    outcomes = []
    for fed in (False, True):
        bench = _Bench()
        if foreign is not None:
            bench.foreign_write(*foreign)
        phase = bench.phase(factory, op, size, root=root)
        try:
            with pytest.MonkeyPatch.context() as patch:
                if cutoffs is not None:
                    patch.setattr(spmd, "VECTOR_CUTOFF", cutoffs[fed])
                if fed:
                    finish, results = phase._feed_all(times, values)
                else:
                    finish, results = bench.joined(
                        phase, times, values, order or range(size))
            outcome = (list(finish), _plain(results))
        except spmd.LockstepError:
            outcomes.append(("refused", None, None, None))
            continue
        outcomes.append((outcome, bench.observables(),
                         bench.coordinator.fastforward_fallbacks, phase.tier))
    return outcomes


_DISSEMINATION = {"scan": (spmd._DisseminationPhase, SUM),
                  "barrier": (spmd._DisseminationBarrier, None)}
CUTOFF_SIZES = [spmd.VECTOR_CUTOFF - 1, spmd.VECTOR_CUTOFF,
                spmd.VECTOR_CUTOFF + 1]


def _native_dissemination(env, kind, times, values):
    """The group's scan or barrier as a rank program: the members sleep to
    their join times and run the dissemination schedule event by event."""
    member = env.rank - GROUP_FIRST
    if not 0 <= member < len(times):
        return None
    yield from env.sleep(times[member])
    endpoint = TransportEndpoint(
        env.transport, context=kind, tag=0, size=len(times),
        world_affine=(GROUP_FIRST, 1))
    request = CollectiveRequest(env, endpoint, SCHEDULES[kind], values[member],
                                _DISSEMINATION[kind][1], 0)
    yield from env.wait_until(request.test)
    return env.now, request.result()


def _scan_inputs(size, skew):
    times = [skew * ((member * 7) % 5) for member in range(size)]
    values = [np.array([member % 3, 1 - member % 2], dtype=np.int64)
              for member in range(size)]
    return times, values


@pytest.mark.parametrize("size", CUTOFF_SIZES)
@pytest.mark.parametrize("skew", [0.0, 0.37])
@pytest.mark.parametrize("kind", ["scan", "barrier"])
def test_fed_dissemination_matches_joined_at_cutoff_boundary(kind, size,
                                                             skew):
    """The last scalar size, the first vector size and their neighbours: fed
    and joined take the same pass by the one selection rule."""
    times, values = _scan_inputs(size, skew)
    if kind == "barrier":
        values = [None] * size
    factory, op = _DISSEMINATION[kind]
    joined, fed = _price_both_ways(factory, op, times, values)
    assert joined[:2] == fed[:2]
    # The rule reads only the group size (every member has joined here),
    # and the vector pass takes these in-order rounds without a fallback.
    tier = "fastforward" if size >= spmd.VECTOR_CUTOFF else "lockstep"
    assert joined[2:] == fed[2:] == (0, tier)
    # The size cutoff only selects a pass, never a result: on either side
    # of it the fed pass leaves what the oracle's event-by-event run of the
    # same group leaves.
    cluster = Cluster(WORLD + spmd.VECTOR_CUTOFF, reference_engine=True)
    native = cluster.run(_native_dissemination, kind, times, values)
    members = native.results[GROUP_FIRST:GROUP_FIRST + size]
    (finish, results), observables = fed[:2]
    assert [float.hex(time) for time in finish] == \
        [float.hex(time) for time, _ in members]
    assert results == [_plain(value) for _, value in members]
    assert observables[0] == cluster.transport._send_port_free
    assert observables[1] == cluster.transport._recv_port_free
    assert observables[3:] == (
        native.stats.messages_sent, native.stats.words_sent,
        native.stats.per_rank_messages_sent, native.stats.per_rank_words_sent,
        native.stats.per_rank_messages_received,
        native.stats.per_rank_words_received)


@pytest.mark.parametrize("size", CUTOFF_SIZES)
@pytest.mark.parametrize("op", ["scan", "barrier"])
def test_joined_dissemination_tier_at_cutoff_boundary(op, size):
    """Through the engine's joins: the scalar pass below the cutoff, the
    vector pass from it, for the barriers and the collectives alike."""
    default, oracle = _run_both(size, op=op, words=4, reps=2)
    assert_equal_observables(default, oracle)
    _passes(default, size, 4)


@pytest.mark.parametrize("num_ranks, events", [(32, 136), (256, 1033)])
def test_staggered_scan_arms_one_flush(num_ranks, events):
    """Members join in descending rank order, so rank 0 joins last.  The
    phase arms one flush event, on rank 0's join, and prices the whole
    phase there — not one flush per join that finds the frontier empty
    (167 and 1288 events before)."""

    def program(env):
        env.lockstep_collectives = True
        world = yield from create_rbc_comm(init_mpi(env, vendor="generic"))
        yield from env.compute_time(0.5 * (num_ranks - env.rank))
        request = rbc.iscan(world, np.ones(4) * env.rank)
        yield from env.wait_until(request.test)
        return env.now, request.result()

    default, oracle = run_both(num_ranks, program)
    assert_equal_observables(default, oracle)
    assert default.obs["phases_fastforward"] == 1
    assert default.events_processed == events


@pytest.mark.parametrize("early", [1, 31])
def test_scan_vectorises_behind_an_early_joiner(early):
    """One member other than rank 0 joins ahead of everyone else: nothing
    is resolvable before rank 0 joins, so the flush waits for rank 0's
    batch and the whole scan still takes the vector pass."""

    def program(env):
        env.lockstep_collectives = True
        world = yield from create_rbc_comm(init_mpi(env, vendor="generic"))
        if env.rank != early:
            yield from env.compute_time(1.0)
        request = rbc.iscan(world, np.ones(4) * env.rank)
        yield from env.wait_until(request.test)
        return env.now, request.result()

    default, oracle = run_both(32, program)
    assert_equal_observables(default, oracle)
    assert default.obs["phases_fastforward"] == 1
    assert default.obs["phases_lockstep"] == 0


@given(kind=st.sampled_from(sorted(_DISSEMINATION)),
       size=st.integers(min_value=2, max_value=WORLD - GROUP_FIRST),
       skew=st.sampled_from([0.0, 0.05, 0.37, 3.0]),
       foreign_port=st.integers(min_value=GROUP_FIRST + 1,
                                max_value=WORLD - 1),
       foreign_post=st.one_of(st.none(), st.sampled_from([0.2, 1.5, 40.0])))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_fed_scan_matches_joined(kind, size, skew, foreign_port,
                                          foreign_post):
    """Scan and barrier, vector pass against scalar pass: the joined phase
    runs with the cutoff lowered to 2, so it takes the vector pass at every
    size; the fed one with the cutoff past the group, so it takes the
    scalar pass.  A foreign write posted after the phase's own posts trips
    the vector pass's out-of-order guard, which must decline before
    touching any state."""
    times, values = _scan_inputs(size, skew)
    factory, op = _DISSEMINATION[kind]
    if kind == "barrier":
        values = [None] * size
    foreign = None if foreign_post is None else (foreign_port, foreign_post)
    joined, fed = _price_both_ways(factory, op, times, values,
                                   foreign=foreign, cutoffs=(2, size + 1))
    assert joined[:2] == fed[:2]
    if fed[0] != "refused":
        assert fed[2:] == (0, "lockstep")
        assert joined[3] == ("lockstep" if joined[2] else "fastforward")


@pytest.mark.parametrize("kind, words, late_join", [
    ("scan", 2, 0.0), ("barrier", 0, 0.0),
    # 2048-word messages: the re-fold moves the later write's arrival,
    # inside its cap (member 2's own late join).
    ("scan", 2048, 30.0)])
def test_vector_pass_absorbs_in_phase_overtakes(kind, words, late_join):
    """Member 1 joins late, so member 0's round-2 write reaches port 2
    before member 1's round-1 write to it was posted: the port log inserts
    it one entry back and re-folds the later write.  The vector pass does
    the same without falling back, logs the phase as one round block out
    of round order, and leaves what the scalar pass and the oracle's
    event-by-event run leave."""
    size = spmd.VECTOR_CUTOFF
    times = [0.0] * size
    times[1] = 10.0
    times[2] = late_join
    factory, op = _DISSEMINATION[kind]
    values = [np.full(words, member % 3, dtype=np.int64)
              for member in range(size)] if kind == "scan" else [None] * size
    scalar, vector = _price_both_ways(factory, op, times, values,
                                      cutoffs=(size + 1, size))
    assert scalar[:2] == vector[:2]
    assert (scalar[2:], vector[2:]) == ((0, "lockstep"), (0, "fastforward"))

    bench = _Bench()
    bench.phase(factory, op, size)._feed_all(times, values)
    (block,) = bench.coordinator.ports.blocks.values()
    assert block.reordered
    assert not bench.coordinator.ports.lists   # no list until a port is read
    cluster = Cluster(WORLD + spmd.VECTOR_CUTOFF, reference_engine=True)
    native = cluster.run(_native_dissemination, kind, times, values)
    members = native.results[GROUP_FIRST:GROUP_FIRST + size]
    assert [float.hex(time) for time in vector[0][0]] == \
        [float.hex(time) for time, _ in members]
    assert vector[0][1] == [_plain(value) for _, value in members]
    assert vector[1][1] == cluster.transport._recv_port_free


def test_round_blocks_chain_and_unpack_in_log_order():
    """A barrier then a scan on one group leave two pending blocks per
    port; a foreign write afterwards unpacks both into the port's list in
    post order, and the fed pricing equals the scalar pass's, lists and
    all."""
    size = spmd.VECTOR_CUTOFF + 1
    times, values = _scan_inputs(size, 0.05)
    outcomes = []
    for cutoff in (2, size + 1):
        bench = _Bench()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spmd, "VECTOR_CUTOFF", cutoff)
            barrier = bench.phase(spmd._DisseminationBarrier, None, size)
            finish, _ = barrier._feed_all(times, [None] * size)
            scan = bench.phase(spmd._DisseminationPhase, SUM, size)
            finish, results = scan._feed_all(list(finish), values)
        if cutoff == 2:
            assert len(bench.coordinator.ports.blocks) == 2
        bench.foreign_write(GROUP_FIRST + 5, 40.0)
        port = bench.coordinator.ports.lists[GROUP_FIRST + 5]
        assert [entry[0] for entry in port] == \
            sorted(entry[0] for entry in port)
        outcomes.append((list(finish), _plain(results), bench.observables()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("operation", ["scan", "gather"])
@pytest.mark.parametrize("num_ranks", [32, 64, 128])
def test_tiered_opening_barrier_takes_the_vector_pass(operation, num_ranks):
    """The figure cells' opening barrier on a two-tier machine: members
    leave a round at different times, so a round's write reaches some
    ports before the previous round's write to them was posted.  The
    vector pass absorbs those overtakes (it used to fall back to the
    scalar pass on every such cell), and the run equals the oracle's."""
    default, oracle = run_both(
        num_ranks, collective_program, params=HierarchicalParams.two_tier(),
        operation=operation, impl="rbc", vendor="intel", words=16)
    assert_equal_observables(default, oracle)
    assert default.obs["fastforward_fallbacks"] == 0
    assert default.obs["phases_fastforward"] == 1    # the barrier


_TREES = {"bcast": (spmd._BcastPhase, None),
          "reduce": (spmd._ReducePhase, SUM),
          "gather": (spmd._GatherPhase, None)}


@given(kind=st.sampled_from(sorted(_TREES)),
       size=st.integers(min_value=2, max_value=WORLD - GROUP_FIRST),
       root=st.sampled_from([0, 0, 1, 3, 7]),
       lists=st.booleans(),
       skew=st.sampled_from([0.0, 0.05, 0.37, 3.0]),
       order_seed=st.one_of(st.none(),
                            st.integers(min_value=0, max_value=10 ** 6)),
       foreign_port=st.integers(min_value=GROUP_FIRST + 1,
                                max_value=WORLD - 1),
       foreign_post=st.one_of(st.none(), st.sampled_from([0.2, 1.5, 40.0])))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_fed_trees_match_joined(kind, size, root, lists, skew,
                                         order_seed, foreign_port,
                                         foreign_post):
    """Any join order equals the fed order for the tree phases: root 0 and
    a rotated root, array and list payloads (a SUM of lists concatenates,
    so the up-tree word counts grow), skewed and tied join times — the
    joins come in member order, or in any order once the times are made
    distinct — and an optional foreign write on one receive port."""
    factory, op = _TREES[kind]
    root %= size
    times = [skew * ((member * 7) % 5) for member in range(size)]
    order = None
    if order_seed is not None:
        times = [time + 0.001 * member for member, time in enumerate(times)]
        order = np.random.default_rng(order_seed).permutation(size).tolist()
    if lists:
        values = [[float(member), 1.0] for member in range(size)]
    else:
        values = [np.array([member % 3, 1.5 * member])
                  for member in range(size)]
    if kind == "bcast":
        values = [value if member == root else None
                  for member, value in enumerate(values)]
    foreign = None if foreign_post is None else (foreign_port, foreign_post)
    joined, fed = _price_both_ways(factory, op, times, values, root=root,
                                   order=order, foreign=foreign)
    assert joined[:2] == fed[:2]


# ---------------------------------------------------------------------------
# The fed data exchange vs the event engine.
#
# ``_ExchangePhase`` has no join path to compare against: its reference is
# the native loop of ``jquick._exchange`` run event by event on the
# reference engine.
# ---------------------------------------------------------------------------

_PIECE = st.tuples(st.integers(min_value=0, max_value=7),   # dest (mod size)
                   st.integers(min_value=1, max_value=5))   # words
_EXCHANGE_TAG = 7
_FOREIGN_SENDER = 0     # a world rank below GROUP_FIRST: outside the group


def _native_exchange(env, feed, times, foreign):
    """The data exchange of ``jquick._exchange`` as a plain rank program."""
    if foreign is not None and env.rank == _FOREIGN_SENDER:
        port, post_time = foreign
        yield from env.sleep(post_time)
        handle = env.transport.isend(_FOREIGN_SENDER, port, 0, "foreign",
                                     np.ones(3))
        yield from env.wait_until(handle.test)
        return None
    member = env.rank - GROUP_FIRST
    if not 0 <= member < len(feed):
        return None
    pieces, expected, cap_words, charge = feed[member]
    yield from env.sleep(times[member])
    sends = [env.transport.isend(env.rank, GROUP_FIRST + dest, _EXCHANGE_TAG,
                                 "exchange", np.zeros(words))
             for dest, words in pieces]
    inbound = 0
    if expected:
        request = RecvRequest(env, env.transport, "exchange", ANY_SOURCE,
                              _EXCHANGE_TAG)
        while inbound < expected:
            yield from env.wait_until(request.test)
            request.take()
            inbound += 1
    if charge:
        yield from env.compute(cap_words)
    yield from wait_all(env, sends)
    return env.now, inbound


def _exchange_feed(rows):
    """Per-member ``(pieces, expected, cap_words, charge)`` and join times."""
    size = len(rows)
    pieces = [[(dest % size, words) for dest, words in row[0]
               if dest % size != member] for member, row in enumerate(rows)]
    expected = [0] * size
    for row in pieces:
        for dest, _ in row:
            expected[dest] += 1
    feed = [(pieces[m], expected[m], rows[m][2], rows[m][3])
            for m in range(size)]
    return feed, [row[1] for row in rows]


@given(rows=st.lists(st.tuples(st.lists(_PIECE, max_size=3),
                               st.sampled_from([0.0, 0.0, 0.4, 1.1, 2.5]),
                               st.integers(min_value=0, max_value=4),
                               st.booleans()),
                     min_size=2, max_size=8),
       foreign_port=st.integers(min_value=GROUP_FIRST + 1,
                                max_value=WORLD - 1),
       foreign_post=st.one_of(st.none(), st.sampled_from([0.2, 1.5, 40.0])))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_fed_exchange_matches_engine(rows, foreign_port,
                                              foreign_post):
    """Skewed and tied join times, members without pieces, everything sent
    to one member (a degenerate split), several pieces to one destination
    and a foreign write on one receive port (posted by a rank outside the
    group: a two-member bcast phase on the scratch cluster, a real
    ``post_send`` at the same instant on the engine).  The fed pass must
    leave the engine's finish times, inbound counts, port arrays and
    per-rank word counts, bit for bit, or refuse."""
    feed, times = _exchange_feed(rows)
    foreign = None if foreign_post is None else (foreign_port, foreign_post)
    bench = _Bench()
    if foreign is not None:
        bench.foreign_write(*foreign, sender=_FOREIGN_SENDER)
    phase = bench.phase(spmd._ExchangePhase, None, len(rows))
    try:
        finish, inbound = phase._feed_all(times, feed)
    except spmd.LockstepError:
        return
    cluster = Cluster(bench.cluster.num_ranks, reference_engine=True)
    native = cluster.run(_native_exchange, feed, times, foreign)
    members = native.results[GROUP_FIRST:GROUP_FIRST + len(rows)]
    assert [float.hex(time) for time in finish] == \
        [float.hex(time) for time, _ in members]
    assert inbound == [count for _, count in members]
    priced = bench.cluster.transport
    assert priced._send_port_free == cluster.transport._send_port_free
    assert priced._recv_port_free == cluster.transport._recv_port_free
    assert bench.cluster.tracer.stats.per_rank_words_sent == \
        native.stats.per_rank_words_sent
    assert bench.cluster.tracer.stats.per_rank_words_received == \
        native.stats.per_rank_words_received


def test_fed_exchange_refuses_a_missing_inbound_message():
    """A member announces a message nobody posts: the native loop would
    wait forever; the fed pass checks the counts once and refuses."""
    bench = _Bench()
    phase = bench.phase(spmd._ExchangePhase, None, 3)
    values = [([(1, 2)], 0, 0, False), ([], 2, 0, False), ([], 0, 0, False)]
    with pytest.raises(spmd.LockstepError, match="disagree on the assignment"):
        phase._feed_all([0.0, 0.0, 0.0], values)


def test_fed_exchange_refuses_a_surplus_inbound_message():
    """One more message arrives than its receiver announced."""
    bench = _Bench()
    phase = bench.phase(spmd._ExchangePhase, None, 3)
    values = [([(1, 2)], 0, 0, False), ([], 1, 0, False),
              ([(1, 1)], 0, 0, False)]
    with pytest.raises(spmd.LockstepError, match="disagree on the assignment"):
        phase._feed_all([0.0, 0.0, 0.0], values)
