"""The event tier's observables, pinned against the request-list protocol.

``PARENT`` was printed by this file run as a script on the tree whose
schedules still yielded lists of ``SendHandle`` / ``RecvRequest`` objects to
``CollectiveRequest`` (commit 94f02a9), so it is the contract the port
protocol has to reproduce, not a snapshot of it:

    PYTHONPATH=src python tests/collectives/test_port_protocol.py

One line per ``(operation, root, implementation, machine)`` holds one cell per
group size of :data:`SIZES`: ``float.hex`` of the latest finish time, a digest
over every rank's finish time and result, ``messages_sent`` and
``words_sent``.  Lockstep pricing is off (the default), so every message
crosses ``Transport.post_send`` and every receive ``take_exact``.
``events_processed`` is deliberately not in the table — arming one sender
wake-up per state instead of one per send lowers it — but each cell runs on
both event cores and they must agree on it.
"""

import hashlib

import numpy as np
import pytest

from repro.collectives.dispatch import start
from repro.mpi import MpiGroup, init_mpi
from repro.mpi.datatypes import SUM
from repro.rbc import collectives as rbc
from repro.rbc import create_rbc_comm
from repro.rbc.comm import RbcComm
from repro.simulator import MACHINE_PRESETS, Cluster, Placement
from repro.simulator.network import IndexedMailbox

SIZES = (1, 2, 3, 5, 8, 13, 64)
IMPLS = {"rbc": "generic", "intel": "intel", "ibm": "ibm"}
MACHINES = ("flat", "two_tier", "shared_nic")
#: operation -> (dispatched name, explicit algorithm); None: not dispatched.
OPS = {
    "bcast": ("bcast", None), "reduce": ("reduce", None),
    "gather": ("gather", None), "allreduce": ("allreduce", None),
    "scan": ("scan", None), "barrier": ("barrier", None),
    "scatter_allgather": ("bcast", "scatter_allgather"),
    "pipeline": ("bcast", "pipeline"), "ring": ("allreduce", "ring"),
    "exscan": None, "allgather": None, "alltoallv": None,
}
ROOTED = ("bcast", "reduce", "gather", "scatter_allgather", "pipeline")
WORDS = 7
SEGMENT_WORDS = 2


def _cluster(p, machine, reference):
    # Small nodes and islands, so that every size above 4 spans several of
    # both and most sizes leave the last node ragged.
    placement = None if machine == "flat" else Placement.regular(
        p, ranks_per_node=4, nodes_per_island=2)
    return Cluster(p, MACHINE_PRESETS[machine](), placement=placement,
                   reference_engine=reference)


def _value(op, rank, size):
    if op == "alltoallv":
        return [np.full((rank + dest) % 3, float(rank)) for dest in range(size)]
    if op in ("gather", "allgather"):
        return np.full(1 + rank % 3, float(rank))
    if op == "barrier":
        return None
    return np.arange(WORDS, dtype=np.float64) + rank


def _start(op, impl, world_mpi, comm, root):
    """Start ``op`` on the RBC range ``comm`` or on ``world_mpi``."""
    native = impl != "rbc"
    rank, size = (world_mpi.rank, world_mpi.size) if native \
        else (comm.rank, comm.size)
    value = _value(op, rank, size)
    if OPS[op] is None:
        return getattr(world_mpi, "i" + op)(value) if native \
            else getattr(rbc, "i" + op)(comm, value)
    name, algorithm = OPS[op]
    if name == "bcast" and rank != root:
        value = None
    if native:
        return start(world_mpi.env, world_mpi._collective_endpoint(name), name,
                     value, SUM, root, algorithm=algorithm,
                     segment_words=SEGMENT_WORDS,
                     node_aware=world_mpi.vendor.node_aware)
    if name == "bcast":
        return rbc.ibcast(comm, value, root, algorithm=algorithm,
                          segment_words=SEGMENT_WORDS)
    if name == "allreduce":
        return rbc.iallreduce(comm, value, algorithm=algorithm)
    if name == "barrier":
        return rbc.ibarrier(comm)
    if name == "scan":
        return rbc.iscan(comm, value)
    return getattr(rbc, "i" + name)(comm, value, root=root)


def _collective(env, *, op, impl, root):
    world_mpi = init_mpi(env, vendor=IMPLS[impl])
    world_rbc = yield from create_rbc_comm(world_mpi)
    request = _start(op, impl, world_mpi, world_rbc, root)
    yield from env.wait_until(request.test)
    return request.result()


def _two_outstanding(env, *, impl):
    """A broadcast and a reduction in flight at once, polled alternately.

    On RBC they share the communicator *and* the tag (their messages travel
    in opposite directions, so per-pair FIFO keeps them apart); native MPI
    separates them by sequence number.
    """
    world_mpi = init_mpi(env, vendor=IMPLS[impl])
    world_rbc = yield from create_rbc_comm(world_mpi)
    comm = world_mpi if impl != "rbc" else world_rbc
    down = comm.ibcast(_value("bcast", 0, comm.size) if comm.rank == 0
                       else None, 0)
    up = comm.ireduce(_value("reduce", comm.rank, comm.size), SUM, 0)
    yield from env.wait_until(lambda: up.test() & down.test())
    return down.result(), up.result()


def _janus(env, *, impl):
    """Rank 4 of 9 sits in the ranges 0..4 and 4..8 and progresses both."""
    world_mpi = init_mpi(env, vendor=IMPLS[impl])
    yield from create_rbc_comm(world_mpi)
    requests = [rbc.iallreduce(RbcComm(world_mpi, first, first + 4),
                               float(env.rank))
                for first in (0, 4) if first <= env.rank <= first + 4]
    yield from env.wait_until(
        lambda: all([request.test() for request in requests]))
    return [request.result() for request in requests]


def _create(env, *, impl, method):
    """Fig. 5: the communicator of this rank's half of the world."""
    world_mpi = init_mpi(env, vendor=IMPLS[impl])
    size, rank = world_mpi.size, world_mpi.rank
    half = size // 2
    first, last = (0, half - 1) if rank < half else (half, size - 1)
    if method == "create_group":
        group = MpiGroup.range_incl([(first, last, 1)])
        sub = yield from world_mpi.create_group(group, tag=1)
    else:
        sub = yield from world_mpi.split(color=int(rank >= half), key=-rank)
    return sub.size, sub.rank


def _canonical(value):
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tolist())
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def observe(machine, p, program, **kwargs):
    """The cell of one run; both event cores must produce it."""
    cells = []
    for reference in (False, True):
        result = _cluster(p, machine, reference).run(program, **kwargs)
        times = [time.hex() for time in result.finish_times]
        digest = hashlib.sha256(repr(
            (times, _canonical(result.results))).encode()).hexdigest()[:10]
        cells.append((f"{max(result.finish_times).hex()} {digest} "
                      f"{result.stats.messages_sent} {result.stats.words_sent}",
                      result.events_processed))
    assert cells[0] == cells[1]
    return cells[0][0]


def collective_cells(op, root_is_last, impl, machine):
    return [observe(machine, p, _collective, op=op, impl=impl,
                    root=p - 1 if root_is_last else 0) for p in SIZES]


def shape_cells(impl, machine):
    cells = [observe(machine, p, _two_outstanding, impl=impl)
             for p in (5, 13)]
    if impl == "rbc":
        cells.append(observe(machine, 9, _janus, impl=impl))
    else:
        cells += [observe(machine, p, _create, impl=impl, method=method)
                  for method in ("create_group", "split") for p in (8, 13)]
    return cells


def _keys():
    for op in OPS:
        for root_is_last in (False, True) if op in ROOTED else (False,):
            for impl in IMPLS:
                for machine in MACHINES:
                    yield op, root_is_last, impl, machine


# One line per (operation, root is the last rank, implementation, machine);
# one cell per size of SIZES.
PARENT = {
    ('bcast', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4604189374bc7p+2 816d1fbc56 1 7',
        '0x1.4374bc6a7ef9ep+3 ba8b558470 2 14',
        '0x1.e3e76c8b43958p+3 5945a825c4 4 28',
        '0x1.e3e76c8b43958p+3 5ee98cda4d 7 49',
        '0x1.422d0e5604189p+4 c66a1975cb 12 84',
        '0x1.e29fbe76c8b43p+4 2b836235b8 63 441',
    ),
    ('bcast', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 8128ad5528 1 7',
        '0x1.491d14e3bcd35p+0 97e2140825 2 14',
        '0x1.932ca57a786c1p+2 e995962c49 4 28',
        '0x1.932ca57a786c1p+2 9226a4d8f7 7 49',
        '0x1.6a0902de00d1cp+3 64a95af965 12 84',
        '0x1.5577318fc5049p+4 760be073c5 63 441',
    ),
    ('bcast', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 8128ad5528 1 7',
        '0x1.491d14e3bcd35p+0 97e2140825 2 14',
        '0x1.932ca57a786c1p+2 e995962c49 4 28',
        '0x1.932ca57a786c1p+2 9226a4d8f7 7 49',
        '0x1.ea7bb2fec56d6p+3 7f2350d5d9 12 84',
        '0x1.0b119ce075f71p+5 4b205a69c1 63 441',
    ),
    ('bcast', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.6a7ef9db22d0ep+2 fb963b462e 1 42',
        '0x1.57ef9db22d0e5p+3 2147aa966b 2 84',
        '0x1.054fdf3b645a1p+4 7ffda58bcf 4 168',
        '0x1.0d4fdf3b645a1p+4 8ec55ae1de 7 294',
        '0x1.5ea7ef9db22d0p+4 e1cbdef2e4 12 504',
        '0x1.0cac083126e98p+5 65811a4d38 63 2646',
    ),
    ('bcast', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.32617c1bda511p+0 d4dace1b28 1 42',
        '0x1.d04816f0068dap+0 6dca9af0b3 2 84',
        '0x1.f972474538ef2p+2 277e35b787 4 168',
        '0x1.f972474538ef2p+2 ee5deccbb9 7 294',
        '0x1.af694467381d7p+3 13c40ab3e6 12 504',
        '0x1.8a64c2f837b4ap+4 e3c2db456f 63 2646',
    ),
    ('bcast', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.32617c1bda511p+0 d4dace1b28 1 42',
        '0x1.d04816f0068dap+0 6dca9af0b3 2 84',
        '0x1.f972474538ef2p+2 277e35b787 4 168',
        '0x1.f972474538ef2p+2 ee5deccbb9 7 294',
        '0x1.190cb295e9e1bp+4 20827585e4 12 504',
        '0x1.27367a0f9096dp+5 039a0011af 63 2646',
    ),
    ('bcast', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5978d4fdf3b64p+2 ba51e5fac5 1 9',
        '0x1.4d4fdf3b645a2p+3 299a128d29 2 18',
        '0x1.f77ced916872cp+3 46bef068f6 4 36',
        '0x1.008b439581063p+4 232ed6173a 7 63',
        '0x1.50d4fdf3b645bp+4 b1d471c656 12 108',
        '0x1.ffced916872b2p+4 243449bb26 63 567',
    ),
    ('bcast', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 16a94cf51c 1 9',
        '0x1.9652bd3c36114p+0 371f1c01d2 2 18',
        '0x1.cd21ff2e48e88p+2 8233137709 4 36',
        '0x1.cd21ff2e48e88p+2 473d86e361 7 63',
        '0x1.90be0ded288d0p+3 b9159358b3 12 108',
        '0x1.728c154c985f2p+4 99eea3ba84 63 567',
    ),
    ('bcast', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 16a94cf51c 1 9',
        '0x1.9652bd3c36114p+0 371f1c01d2 2 18',
        '0x1.cd21ff2e48e88p+2 8233137709 4 36',
        '0x1.cd21ff2e48e88p+2 473d86e361 7 63',
        '0x1.08a8c154c9860p+4 75ff9bc943 12 108',
        '0x1.19b4a2339c0ecp+5 9e00ef4f0f 63 567',
    ),
    ('bcast', True, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4604189374bc7p+2 b3aed01f0a 1 7',
        '0x1.4374bc6a7ef9ep+3 ee5b699e89 2 14',
        '0x1.e3e76c8b43958p+3 c9d5b38933 4 28',
        '0x1.e3e76c8b43958p+3 9339e93d11 7 49',
        '0x1.422d0e5604189p+4 ebb16ff5b4 12 84',
        '0x1.e29fbe76c8b43p+4 273a51f60d 63 441',
    ),
    ('bcast', True, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 924d9deecc 1 7',
        '0x1.491d14e3bcd35p+0 6aa1702a29 2 14',
        '0x1.932ca57a786c1p+2 981eca71c2 4 28',
        '0x1.932ca57a786c1p+2 aeaa551a66 7 49',
        '0x1.6a0902de00d1cp+3 80f6c661a6 12 84',
        '0x1.5577318fc5049p+4 c18350f2b5 63 441',
    ),
    ('bcast', True, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 924d9deecc 1 7',
        '0x1.491d14e3bcd35p+0 6aa1702a29 2 14',
        '0x1.932ca57a786c1p+2 981eca71c2 4 28',
        '0x1.932ca57a786c1p+2 aeaa551a66 7 49',
        '0x1.ea7bb2fec56d6p+3 43720c8904 12 84',
        '0x1.0b119ce075f71p+5 8332c64a94 63 441',
    ),
    ('bcast', True, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.6a7ef9db22d0ep+2 35d2ca80b9 1 42',
        '0x1.57ef9db22d0e5p+3 fda78c40e7 2 84',
        '0x1.054fdf3b645a1p+4 eac6bfcaca 4 168',
        '0x1.0d4fdf3b645a1p+4 53975723ee 7 294',
        '0x1.5ea7ef9db22d0p+4 bb2045d8e4 12 504',
        '0x1.0cac083126e98p+5 5ae3f08e03 63 2646',
    ),
    ('bcast', True, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.32617c1bda511p+0 bacd3d03d3 1 42',
        '0x1.d04816f0068dap+0 14f49bc14d 2 84',
        '0x1.f972474538ef2p+2 835bfc2d9c 4 168',
        '0x1.f972474538ef2p+2 dce07f30e7 7 294',
        '0x1.af694467381d7p+3 b43911d3fb 12 504',
        '0x1.8a64c2f837b4ap+4 9265768baf 63 2646',
    ),
    ('bcast', True, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.32617c1bda511p+0 bacd3d03d3 1 42',
        '0x1.d04816f0068dap+0 14f49bc14d 2 84',
        '0x1.f972474538ef2p+2 835bfc2d9c 4 168',
        '0x1.f972474538ef2p+2 dce07f30e7 7 294',
        '0x1.190cb295e9e1bp+4 7dcf00e53f 12 504',
        '0x1.27367a0f9096dp+5 de32615959 63 2646',
    ),
    ('bcast', True, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5978d4fdf3b64p+2 5c0b68510b 1 9',
        '0x1.4d4fdf3b645a2p+3 19aa23848a 2 18',
        '0x1.f77ced916872cp+3 34fd7c74e3 4 36',
        '0x1.008b439581063p+4 5ab62fa369 7 63',
        '0x1.50d4fdf3b645bp+4 9d70653d54 12 108',
        '0x1.ffced916872b2p+4 4b376dc861 63 567',
    ),
    ('bcast', True, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 2eb9617af4 1 9',
        '0x1.9652bd3c36114p+0 7aa5f23d5b 2 18',
        '0x1.cd21ff2e48e88p+2 04ed26c92f 4 36',
        '0x1.cd21ff2e48e88p+2 99ec4590c8 7 63',
        '0x1.90be0ded288d0p+3 a42c854866 12 108',
        '0x1.728c154c985f2p+4 aee8af3623 63 567',
    ),
    ('bcast', True, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 2eb9617af4 1 9',
        '0x1.9652bd3c36114p+0 7aa5f23d5b 2 18',
        '0x1.cd21ff2e48e88p+2 04ed26c92f 4 36',
        '0x1.cd21ff2e48e88p+2 99ec4590c8 7 63',
        '0x1.08a8c154c9860p+4 bf0260f115 12 108',
        '0x1.19b4a2339c0ecp+5 f73c120409 63 567',
    ),
    ('reduce', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4604189374bc7p+2 9beaea5011 1 7',
        '0x1.46e978d4fdf3cp+2 8174ec04ae 2 14',
        '0x1.43e76c8b43958p+3 f857fd0968 4 28',
        '0x1.e53f7ced91687p+3 ebb40eebe2 7 49',
        '0x1.e5b22d0e56041p+3 fe786f684b 12 84',
        '0x1.e5fbe76c8b439p+4 6fb0ccaee4 63 441',
    ),
    ('reduce', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 5a3a41b1b0 1 7',
        '0x1.5f06f69446738p-1 0cc76c2783 2 14',
        '0x1.4631f8a0902dep+2 86414ffd99 4 28',
        '0x1.941205bc01a37p+2 32c54be3e7 7 49',
        '0x1.438bac710cb29p+3 0d331e0f90 12 84',
        '0x1.565c91d14e3bcp+4 248ea99eca 63 441',
    ),
    ('reduce', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 5a3a41b1b0 1 7',
        '0x1.5f06f69446738p-1 0cc76c2783 2 14',
        '0x1.4604189374bc7p+2 6dd84f7fed 4 28',
        '0x1.941205bc01a37p+2 32c54be3e7 7 49',
        '0x1.c3e76c8b43959p+3 d6e9ea6c3b 12 84',
        '0x1.0b844d013a92ap+5 b3580621a8 63 441',
    ),
    ('reduce', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.753f7ced91687p+2 8af1a293c2 1 126',
        '0x1.85604189374bcp+2 4fb7fc9d50 2 252',
        '0x1.7322d0e560419p+3 bd0dd77085 4 504',
        '0x1.160c49ba5e354p+4 a9f5ba279f 7 882',
        '0x1.1a147ae147ae1p+4 0026043be5 12 1512',
        '0x1.166a7ef9db22dp+5 500f72a4b8 63 7938',
    ),
    ('reduce', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3afb7e90ff972p+0 90a3f3fe8a 1 126',
        '0x1.47e28240b7803p+0 2b7a734e74 2 252',
        '0x1.78793dd97f62bp+2 f47b9b3415 4 504',
        '0x1.04b295e9e1b09p+3 afec058456 7 882',
        '0x1.744d013a92a31p+3 8bec75a4eb 12 1512',
        '0x1.971de69ad42c3p+4 ba70905a28 63 7938',
    ),
    ('reduce', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3afb7e90ff972p+0 90a3f3fe8a 1 126',
        '0x1.47e28240b7803p+0 2b7a734e74 2 252',
        '0x1.753f7ced91687p+2 17348dea29 4 504',
        '0x1.04b295e9e1b09p+3 afec058456 7 882',
        '0x1.fac083126e979p+3 4762ee00c1 12 1512',
        '0x1.319b3d07c84b5p+5 bee8bd30ef 63 7938',
    ),
    ('reduce', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5978d4fdf3b64p+2 4ed4bb4ce2 1 9',
        '0x1.5a9fbe76c8b43p+2 af45f26b23 2 18',
        '0x1.575c28f5c28f6p+3 ec41a4d022 4 36',
        '0x1.01374bc6a7efap+4 4bf931d028 7 63',
        '0x1.01810624dd2f2p+4 dc7156e9b7 12 108',
        '0x1.0195810624dd4p+5 2dad4114f4 63 567',
    ),
    ('reduce', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 63d574575d 1 9',
        '0x1.f972474538ef4p-1 7184c2ce99 2 18',
        '0x1.59b3d07c84b5dp+2 d2aca07509 4 36',
        '0x1.ce075f6fd21ffp+2 b526cba9dc 7 63',
        '0x1.5706f69446738p+3 d8462c5ba9 12 108',
        '0x1.7371758e21965p+4 d3d6ff245a 63 567',
    ),
    ('reduce', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 63d574575d 1 9',
        '0x1.f972474538ef4p-1 7184c2ce99 2 18',
        '0x1.5978d4fdf3b64p+2 121d0cb1b1 4 36',
        '0x1.ce075f6fd21ffp+2 b526cba9dc 7 63',
        '0x1.d77ced916872bp+3 dee50c69d0 12 108',
        '0x1.1a27525460aa6p+5 9df0c3d2bc 63 567',
    ),
    ('reduce', True, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4604189374bc7p+2 af6dffb52f 1 7',
        '0x1.46e978d4fdf3cp+2 16a134e1f6 2 14',
        '0x1.43e76c8b43958p+3 cea39bf56f 4 28',
        '0x1.e53f7ced91687p+3 67f6222a9a 7 49',
        '0x1.e5b22d0e56041p+3 c4aaba23d4 12 84',
        '0x1.e5fbe76c8b439p+4 30d628de86 63 441',
    ),
    ('reduce', True, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 89926f1dd2 1 7',
        '0x1.5f06f69446738p-1 0d9652a6bd 2 14',
        '0x1.941205bc01a37p+2 c707741d37 4 28',
        '0x1.941205bc01a37p+2 bd2ef31778 7 49',
        '0x1.6a7bb2fec56d6p+3 d47142c25c 12 84',
        '0x1.565c91d14e3bcp+4 0eeb71f25e 63 441',
    ),
    ('reduce', True, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 89926f1dd2 1 7',
        '0x1.5f06f69446738p-1 0d9652a6bd 2 14',
        '0x1.941205bc01a37p+2 c707741d37 4 28',
        '0x1.941205bc01a37p+2 bd2ef31778 7 49',
        '0x1.eaee631f8a091p+3 1d4be8e300 12 84',
        '0x1.0b844d013a92ap+5 c27d928193 63 441',
    ),
    ('reduce', True, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.753f7ced91687p+2 df822e808b 1 126',
        '0x1.85604189374bcp+2 87c4b55d46 2 252',
        '0x1.7322d0e560419p+3 865edddd2d 4 504',
        '0x1.160c49ba5e354p+4 6dbd7f6c70 7 882',
        '0x1.1a147ae147ae1p+4 638974c7c2 12 1512',
        '0x1.166a7ef9db22dp+5 f41f7b1a27 63 7938',
    ),
    ('reduce', True, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3afb7e90ff972p+0 cef80059db 1 126',
        '0x1.47e28240b7803p+0 e46b4f3de0 2 252',
        '0x1.04b295e9e1b09p+3 d59ae100ae 4 504',
        '0x1.04b295e9e1b09p+3 b54db68de5 7 882',
        '0x1.bcc2f837b4a24p+3 3fe3298426 12 1512',
        '0x1.971de69ad42c3p+4 7c9325ff50 63 7938',
    ),
    ('reduce', True, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3afb7e90ff972p+0 cef80059db 1 126',
        '0x1.47e28240b7803p+0 e46b4f3de0 2 252',
        '0x1.04b295e9e1b09p+3 d59ae100ae 4 504',
        '0x1.04b295e9e1b09p+3 b54db68de5 7 882',
        '0x1.2269ad42c3c9fp+4 fb253b7c53 12 1512',
        '0x1.319b3d07c84b5p+5 a2ebfc5fac 63 7938',
    ),
    ('reduce', True, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5978d4fdf3b64p+2 5115a36fd1 1 9',
        '0x1.5a9fbe76c8b43p+2 b525a436ec 2 18',
        '0x1.575c28f5c28f6p+3 1f6b490de8 4 36',
        '0x1.01374bc6a7efap+4 399ff1cc85 7 63',
        '0x1.01810624dd2f2p+4 ec39ad7675 12 108',
        '0x1.0195810624dd4p+5 bc17fed4fd 63 567',
    ),
    ('reduce', True, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 a3bab1bdeb 1 9',
        '0x1.f972474538ef4p-1 69c1a4d1f2 2 18',
        '0x1.ce075f6fd21ffp+2 a8dce2fa00 4 36',
        '0x1.ce075f6fd21ffp+2 1cf6ee6537 7 63',
        '0x1.9130be0ded289p+3 831c809a88 12 108',
        '0x1.7371758e21965p+4 b96bad196e 63 567',
    ),
    ('reduce', True, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.f79a6b50b0f28p-1 a3bab1bdeb 1 9',
        '0x1.f972474538ef4p-1 69c1a4d1f2 2 18',
        '0x1.ce075f6fd21ffp+2 a8dce2fa00 4 36',
        '0x1.ce075f6fd21ffp+2 1cf6ee6537 7 63',
        '0x1.08e219652bd3cp+4 149271f2a3 12 108',
        '0x1.1a27525460aa6p+5 606092f615 63 567',
    ),
    ('gather', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.45810624dd2f2p+2 10e60b736e 1 3',
        '0x1.4604189374bc7p+2 a87a5bc240 2 7',
        '0x1.43126e978d4fep+3 9bf6ef6d53 4 14',
        '0x1.e3d70a3d70a3dp+3 edb07cec8c 7 35',
        '0x1.e4cccccccccccp+3 5468b7a7d6 12 65',
        '0x1.e73b645a1cac1p+4 2ddc64655e 63 573',
    ),
    ('gather', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.5cc63f141205bp-1 8624bad623 1 3',
        '0x1.5d97f62b6ae7dp-1 343662bb75 2 7',
        '0x1.45a858793dd98p+2 334e6d47f5 4 14',
        '0x1.9346dc5d63886p+2 c7951a3eb8 7 32',
        '0x1.437b4a2339c0fp+3 a1336c9e22 12 58',
        '0x1.58902de00d1b6p+4 a1869c0194 63 465',
    ),
    ('gather', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.5cc63f141205bp-1 8624bad623 1 3',
        '0x1.5d97f62b6ae7dp-1 343662bb75 2 7',
        '0x1.45810624dd2f2p+2 a7f2480f14 4 14',
        '0x1.9346dc5d63886p+2 c7951a3eb8 7 32',
        '0x1.c4189374bc6a8p+3 080e381467 12 58',
        '0x1.0e2b6ae7d566dp+5 9562c9bf4e 63 465',
    ),
    ('gather', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.65c28f5c28f5cp+2 81d44e7f39 1 5',
        '0x1.66872b020c49bp+2 cc2dd4eb8f 2 11',
        '0x1.63645a1cac083p+3 78aaedbe68 4 23',
        '0x1.0a4dd2f1a9fbfp+4 9eaf04e997 7 56',
        '0x1.0b126e978d4fep+4 08d24a5fba 12 103',
        '0x1.0d6872b020c4ap+5 9d3ce3468e 63 915',
    ),
    ('gather', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.2e978d4fdf3b6p+0 43beada56e 1 5',
        '0x1.2f34d6a161e4fp+0 35a9fc506c 2 11',
        '0x1.6604189374bc6p+2 81d606dcbe 4 23',
        '0x1.f40b780346dc5p+2 16776e4cf1 7 51',
        '0x1.640b780346dc6p+3 72b98cff70 12 92',
        '0x1.8b06f69446739p+4 63271951fd 63 741',
    ),
    ('gather', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.2e978d4fdf3b6p+0 43beada56e 1 5',
        '0x1.2f34d6a161e4fp+0 35a9fc506c 2 11',
        '0x1.65c28f5c28f5cp+2 a9fa560f9b 4 23',
        '0x1.f40b780346dc5p+2 16776e4cf1 7 51',
        '0x1.e50e560418937p+3 4e7abf8a44 12 92',
        '0x1.2889a02752546p+5 2300c5c954 63 741',
    ),
    ('gather', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.58d4fdf3b645ap+2 08ef232020 1 4',
        '0x1.5978d4fdf3b64p+2 d5d2f65ada 2 9',
        '0x1.5676c8b439581p+3 aa810688b2 4 19',
        '0x1.0083126e978d5p+4 c46529d22b 7 46',
        '0x1.0126e978d4fdfp+4 0b87cf0f15 12 86',
        '0x1.02e978d4fdf3cp+5 d31193bed2 63 746',
    ),
    ('gather', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.f694467381d7ep-1 da2f27524e 1 4',
        '0x1.f79a6b50b0f28p-1 c060c2a00d 2 9',
        '0x1.59096bb98c7e2p+2 61a272bc70 4 19',
        '0x1.cd4fdf3b645a2p+2 b0fee6466e 7 42',
        '0x1.56f694467381dp+3 baa32519a0 12 76',
        '0x1.7690ff9724745p+4 e5b006ebe6 63 605',
    ),
    ('gather', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.f694467381d7ep-1 da2f27524e 1 4',
        '0x1.f79a6b50b0f28p-1 c060c2a00d 2 9',
        '0x1.58d4fdf3b645ap+2 3e388824d4 4 19',
        '0x1.cd4fdf3b645a2p+2 b0fee6466e 7 42',
        '0x1.d7be76c8b4395p+3 76309a4185 12 76',
        '0x1.1dbb2fec56d5dp+5 88ca66d3d5 63 605',
    ),
    ('gather', True, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.45604189374bcp+2 091b86ad46 1 2',
        '0x1.45c28f5c28f5cp+2 cfa998267c 2 5',
        '0x1.434395810624ep+3 99237c0781 4 15',
        '0x1.e3c6a7ef9db23p+3 0c1297b1d8 7 35',
        '0x1.e4ccccccccccdp+3 03b1df3ace 12 67',
        '0x1.e7851eb851eb8p+4 759121f511 63 579',
    ),
    ('gather', True, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.5c91d14e3bcd3p-1 3eafb6f0cd 1 2',
        '0x1.5d2f1a9fbe76cp-1 e50f09fd1a 2 5',
        '0x1.932617c1bda51p+2 6e07170d84 4 19',
        '0x1.932617c1bda51p+2 bdbaf80ea4 7 30',
        '0x1.6aa9930be0dedp+3 862923a653 12 71',
        '0x1.58902de00d1b7p+4 4c28cee4eb 63 469',
    ),
    ('gather', True, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.5c91d14e3bcd3p-1 3eafb6f0cd 1 2',
        '0x1.5d2f1a9fbe76cp-1 e50f09fd1a 2 5',
        '0x1.932617c1bda51p+2 6e07170d84 4 19',
        '0x1.932617c1bda51p+2 bdbaf80ea4 7 30',
        '0x1.ebafb7e90ff97p+3 d1df23cf76 12 71',
        '0x1.0e27525460aa6p+5 934077dafb 63 469',
    ),
    ('gather', True, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.65810624dd2f2p+2 05bd164116 1 3',
        '0x1.6624dd2f1a9fcp+2 0257acb82a 2 8',
        '0x1.63a5e353f7cedp+3 4dd42d61b6 4 23',
        '0x1.0a45a1cac0832p+4 9038a86c99 7 56',
        '0x1.0b1a9fbe76c8cp+4 565893adab 12 107',
        '0x1.0d9db22d0e560p+5 05b3cd74e4 63 923',
    ),
    ('gather', True, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.2e631f8a0902ep+0 88840db688 1 3',
        '0x1.2ee631f8a0903p+0 0745d2ba5c 2 8',
        '0x1.f3eab367a0f90p+2 cfcc03b3f6 4 31',
        '0x1.f3eab367a0f90p+2 53e1a9d317 7 49',
        '0x1.abafb7e90ff96p+3 b5c0e0a03e 12 113',
        '0x1.8afec56d5cfaap+4 ae866691e4 63 746',
    ),
    ('gather', True, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.2e631f8a0902ep+0 88840db688 1 3',
        '0x1.2ee631f8a0903p+0 0745d2ba5c 2 8',
        '0x1.f3eab367a0f90p+2 cfcc03b3f6 4 31',
        '0x1.f3eab367a0f90p+2 53e1a9d317 7 49',
        '0x1.16acd9e83e425p+4 c8265a09d6 12 113',
        '0x1.287d566cf41f2p+5 122316cc9e 63 746',
    ),
    ('gather', True, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.58b4395810625p+2 6267c66a08 1 3',
        '0x1.59374bc6a7efap+2 4491721c5d 2 7',
        '0x1.56a7ef9db22d1p+3 54830dc372 4 20',
        '0x1.007ae147ae148p+4 f1feb901cf 7 46',
        '0x1.011eb851eb852p+4 1e84d22f73 12 87',
        '0x1.0316872b020c5p+5 dd8ae07cd0 63 753',
    ),
    ('gather', True, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.f65fd8adab9f5p-1 37f19ec617 1 3',
        '0x1.f7318fc504817p-1 cc57692ec9 2 7',
        '0x1.cd14e3bcd35a8p+2 f24419ee1d 4 25',
        '0x1.cd14e3bcd35a8p+2 d840462def 7 40',
        '0x1.9199999999999p+3 12b57ca2b5 12 93',
        '0x1.76978d4fdf3b7p+4 14ea61f7b5 63 611',
    ),
    ('gather', True, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.f65fd8adab9f5p-1 37f19ec617 1 3',
        '0x1.f7318fc504817p-1 cc57692ec9 2 7',
        '0x1.cd14e3bcd35a8p+2 f24419ee1d 4 25',
        '0x1.cd14e3bcd35a8p+2 d840462def 7 40',
        '0x1.0978d4fdf3b64p+4 c9ceda40af 12 93',
        '0x1.1dba5e353f7cep+5 5bf22b422a 63 611',
    ),
    ('allreduce', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4374bc6a7ef9ep+3 7d7a186f05 2 14',
        '0x1.e45a1cac08312p+3 393ba80f42 4 28',
        '0x1.929fbe76c8b43p+4 e78c4f4e3b 8 56',
        '0x1.e34bc6a7ef9dbp+4 c4852d4ec8 14 98',
        '0x1.19df3b645a1cbp+5 a149b59cf7 24 168',
        '0x1.e3a9fbe76c8b6p+5 f504a81c68 126 882',
    ),
    ('allreduce', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.491d14e3bcd35p+0 9c432a303f 2 14',
        '0x1.e425aee631f89p+0 9256c9967c 4 28',
        '0x1.6a1ff2e48e8a7p+3 97467bff1d 8 56',
        '0x1.910ff97247454p+3 91c2805b53 14 98',
        '0x1.5582a9930be0fp+4 367c0ba717 24 168',
        '0x1.55460aa64c2f9p+5 17cef08bf3 126 882',
    ),
    ('allreduce', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.491d14e3bcd35p+0 9c432a303f 2 14',
        '0x1.e425aee631f89p+0 9256c9967c 4 28',
        '0x1.6a0902de00d1cp+3 69d298e9c4 8 56',
        '0x1.910ff97247454p+3 91c2805b53 14 98',
        '0x1.d5e9e1b089a03p+4 a3371a9bbb 24 168',
        '0x1.0af9096bb98c5p+6 2432e8833c 126 882',
    ),
    ('allreduce', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.6624dd2f1a9fbp+3 78e682403a 2 56',
        '0x1.04dd2f1a9fbe7p+4 b67646864c 4 112',
        '0x1.b5fbe76c8b43ap+4 3a9a074854 8 224',
        '0x1.0ba9fbe76c8b4p+5 ac330ea838 14 392',
        '0x1.348f5c28f5c29p+5 18bc5d3785 24 672',
        '0x1.0bd916872b020p+6 d7cee3567a 126 3528',
    ),
    ('allreduce', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.26b50b0f27bb3p+1 febd209212 2 56',
        '0x1.765fd8adab9f6p+1 ffcf0e19cf 4 112',
        '0x1.ad9e83e425aeep+3 74f781b265 8 224',
        '0x1.f4d35a858793dp+3 53f47ad226 14 392',
        '0x1.889a027525461p+4 7828ce225f 24 672',
        '0x1.883afb7e90ffap+5 fbea1b54ab 126 3528',
    ),
    ('allreduce', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.26b50b0f27bb3p+1 febd209212 2 56',
        '0x1.765fd8adab9f6p+1 ffcf0e19cf 4 112',
        '0x1.ad42c3c9eecbfp+3 848dbdd097 8 224',
        '0x1.f4d35a858793dp+3 53f47ad226 14 392',
        '0x1.051b71758e219p+5 ba1643ed97 24 672',
        '0x1.25758e219652bp+6 a9b0871e0a 126 3528',
    ),
    ('allreduce', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.570a3d70a3d70p+3 76cbb2b5db 2 20',
        '0x1.f851eb851eb84p+3 c1c787add4 4 40',
        '0x1.a64dd2f1a9fbep+4 785bcaf1cc 8 80',
        '0x1.005604189374cp+5 9be9192b54 14 140',
        '0x1.28a7ef9db22d1p+5 4c54234da2 24 240',
        '0x1.00851eb851eb8p+6 1b41677be3 126 1260',
    ),
    ('allreduce', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e353f7ced9168p+0 cbfffe9fb9 2 20',
        '0x1.3f7ced916872bp+1 c33fe32d07 4 40',
        '0x1.910624dd2f1a9p+3 ea31e93af5 8 80',
        '0x1.cb33333333332p+3 4c83afccae 14 140',
        '0x1.72c083126e97bp+4 ef04449512 24 240',
        '0x1.727ef9db22d0dp+5 08854fbb34 126 1260',
    ),
    ('allreduce', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e353f7ced9168p+0 cbfffe9fb9 2 20',
        '0x1.3f7ced916872bp+1 c33fe32d07 4 40',
        '0x1.90e5604189374p+3 d2f2e87fd1 8 80',
        '0x1.cb33333333332p+3 4c83afccae 14 140',
        '0x1.f353f7ced916ap+4 2fce5ce20b 24 240',
        '0x1.19ba5e353f7cdp+6 00aaeb8767 126 1260',
    ),
    ('scan', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4604189374bc7p+2 409cc0aa1d 1 7',
        '0x1.4374bc6a7ef9ep+3 4d191db082 3 21',
        '0x1.e3e76c8b43958p+3 3288fab1e8 8 56',
        '0x1.e4cccccccccccp+3 8940e534eb 17 119',
        '0x1.42d916872b020p+4 f380474095 37 259',
        '0x1.e3be76c8b4394p+4 c480a82039 321 2247',
    ),
    ('scan', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 7201b006bb 1 7',
        '0x1.491d14e3bcd35p+0 4ffc87ea01 3 21',
        '0x1.941205bc01a37p+2 7cc2e08e86 6 42',
        '0x1.910ff97247454p+3 403a359696 14 98',
        '0x1.18faacd9e83e5p+4 f8cb9aac70 26 182',
        '0x1.b9e00d1b71759p+4 04f7c931d8 174 1218',
    ),
    ('scan', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5d97f62b6ae7dp-1 7201b006bb 1 7',
        '0x1.491d14e3bcd35p+0 4ffc87ea01 3 21',
        '0x1.941205bc01a37p+2 7cc2e08e86 6 42',
        '0x1.910ff97247454p+3 403a359696 14 98',
        '0x1.d9a6b50b0f27cp+4 84d1402145 26 182',
        '0x1.7d7f62b6ae7d5p+5 b2e2ffcb3e 174 1218',
    ),
    ('scan', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.67ced916872b0p+2 96782b3780 1 21',
        '0x1.653f7ced91687p+3 3d30ce9d1b 3 63',
        '0x1.0b4bc6a7ef9dcp+4 371d12fe6b 8 168',
        '0x1.0bbe76c8b4396p+4 6619e4aa51 17 357',
        '0x1.64a3d70a3d70bp+4 71e118b88c 37 777',
        '0x1.0b374bc6a7efap+5 ce2070e067 321 6741',
    ),
    ('scan', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.303afb7e90ff9p+0 8a015d7aa4 1 21',
        '0x1.25fd8adab9f55p+1 0d6f4039cf 3 63',
        '0x1.f694467381d7ep+2 7249c7230b 6 126',
        '0x1.e3923a29c779ap+3 c077075a08 14 294',
        '0x1.4aae7d566cf44p+4 813f962208 26 546',
        '0x1.fc793dd97f62ep+4 50e4d13258 174 3654',
    ),
    ('scan', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.303afb7e90ff9p+0 8a015d7aa4 1 21',
        '0x1.25fd8adab9f55p+1 0d6f4039cf 3 63',
        '0x1.f694467381d7ep+2 7249c7230b 6 126',
        '0x1.e3923a29c779ap+3 c077075a08 14 294',
        '0x1.06594af4f0d85p+5 f2c6fec7c1 26 546',
        '0x1.9feab367a0f92p+5 7bb90178a7 174 3654',
    ),
    ('scan', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5f7ced916872bp+2 42135b72b6 1 56',
        '0x1.5ced916872b02p+3 071bef0523 3 168',
        '0x1.050e560418937p+4 ee5498bc2e 8 448',
        '0x1.05810624dd2f1p+4 e551aecced 17 952',
        '0x1.5c51eb851eb84p+4 51fe550664 37 2072',
        '0x1.04f9db22d0e55p+5 728f48bb99 321 17976',
    ),
    ('scan', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.009d495182a99p+0 d50ea86994 1 56',
        '0x1.ecbfb15b573ebp+0 47e4e300af 3 168',
        '0x1.d67381d7dbf48p+2 085ff5e8c7 6 336',
        '0x1.c9d7dbf487fcbp+3 c193c3687d 14 784',
        '0x1.3bbcd35a8587ap+4 b30a1bc573 26 1456',
        '0x1.e95e9e1b089a1p+4 d04c78eff7 174 9744',
    ),
    ('scan', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.009d495182a99p+0 d50ea86994 1 56',
        '0x1.ecbfb15b573ebp+0 47e4e300af 3 168',
        '0x1.d67381d7dbf48p+2 085ff5e8c7 6 336',
        '0x1.c9d7dbf487fcbp+3 c193c3687d 14 784',
        '0x1.008e8a71de69bp+5 6e4537db40 26 1456',
        '0x1.992a305532616p+5 cbbeacdb28 174 9744',
    ),
    ('barrier', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.451eb851eb852p+2 141fa45fc9 2 0',
        '0x1.428f5c28f5c29p+3 c4b760b57d 6 0',
        '0x1.e28f5c28f5c29p+3 e3fe7ce88b 15 0',
        '0x1.e28f5c28f5c29p+3 fae8a4195c 24 0',
        '0x1.4147ae147ae14p+4 f5c2fdf548 52 0',
        '0x1.e147ae147ae14p+4 7165d4a0ce 384 0',
    ),
    ('barrier', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.5c28f5c28f5c2p-1 e4ca0171dc 2 0',
        '0x1.47ae147ae147ap+0 518ff3101a 6 0',
        '0x1.e28f5c28f5c29p+3 7739ccc271 15 0',
        '0x1.e28f5c28f5c29p+3 585ea435bc 24 0',
        '0x1.4147ae147ae14p+4 f5c2fdf548 52 0',
        '0x1.e147ae147ae14p+4 de614d8d55 384 0',
    ),
    ('barrier', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.5c28f5c28f5c2p-1 e4ca0171dc 2 0',
        '0x1.47ae147ae147ap+0 518ff3101a 6 0',
        '0x1.68f5c28f5c28fp+3 cd038bfd09 8 0',
        '0x1.8f5c28f5c28f5p+3 bc2bff582e 14 0',
        '0x1.d47ae147ae148p+4 9de8efaf3a 24 0',
        '0x1.09eb851eb851ep+6 24bf1df174 126 0',
    ),
    ('barrier', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.651eb851eb852p+2 7e49e65dcf 2 0',
        '0x1.628f5c28f5c29p+3 5421484f88 6 0',
        '0x1.0947ae147ae14p+4 732fd83e33 15 0',
        '0x1.0947ae147ae14p+4 7cc83c0b85 24 0',
        '0x1.6147ae147ae14p+4 272f80f865 52 0',
        '0x1.08a3d70a3d70ap+5 be5481e938 384 0',
    ),
    ('barrier', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.2e147ae147ae1p+0 afe116d08c 2 0',
        '0x1.23d70a3d70a3dp+1 743111d9e8 6 0',
        '0x1.0947ae147ae14p+4 c18802099f 15 0',
        '0x1.0947ae147ae14p+4 da2cc173a7 24 0',
        '0x1.6147ae147ae14p+4 272f80f865 52 0',
        '0x1.08a3d70a3d70ap+5 dc4490f21d 384 0',
    ),
    ('barrier', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.2e147ae147ae1p+0 afe116d08c 2 0',
        '0x1.23d70a3d70a3dp+1 743111d9e8 6 0',
        '0x1.a8f5c28f5c28fp+3 e3843f2ccd 8 0',
        '0x1.ef5c28f5c28f5p+3 959e093af1 14 0',
        '0x1.023d70a3d70a4p+5 12066958ea 24 0',
        '0x1.21eb851eb851ep+6 538179eca7 126 0',
    ),
    ('barrier', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.5851eb851eb85p+2 30292f5724 2 0',
        '0x1.55c28f5c28f5cp+3 f81f87e061 6 0',
        '0x1.ff5c28f5c28f6p+3 cd4f192db2 15 0',
        '0x1.ff5c28f5c28f6p+3 e13ac6e676 24 0',
        '0x1.547ae147ae148p+4 ca782993c4 52 0',
        '0x1.fe147ae147ae2p+4 126f81f5de 384 0',
    ),
    ('barrier', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.f5c28f5c28f5cp-1 08e5ec60ee 2 0',
        '0x1.e147ae147ae14p+0 add8d5b557 6 0',
        '0x1.ff5c28f5c28f6p+3 36b1047f02 15 0',
        '0x1.ff5c28f5c28f6p+3 d12da09a4e 24 0',
        '0x1.547ae147ae148p+4 ca782993c4 52 0',
        '0x1.fe147ae147ae2p+4 cc49b742c5 384 0',
    ),
    ('barrier', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.f5c28f5c28f5cp-1 08e5ec60ee 2 0',
        '0x1.e147ae147ae14p+0 add8d5b557 6 0',
        '0x1.8f5c28f5c28f6p+3 61d7203ccd 8 0',
        '0x1.c8f5c28f5c290p+3 455b53ea95 14 0',
        '0x1.f147ae147ae16p+4 41ead8b238 24 0',
        '0x1.1851eb851eb83p+6 39a93b7de7 126 0',
    ),
    ('scatter_allgather', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4322d0e560419p+3 a17db46781 3 13',
        '0x1.41ba5e353f7cfp+4 042d35d97e 8 26',
        '0x1.18f9db22d0e56p+5 ad2f9b4da1 24 59',
        '0x1.91126e978d4fep+5 ccd03f62fc 63 126',
        '0x1.40a7ef9db22d2p+6 adfae0f2d0 168 271',
        '0x1.597851eb851eep+8 9ecd2ab600 4095 4674',
    ),
    ('scatter_allgather', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.489a027525461p+0 a6224248f3 3 13',
        '0x1.3e28240b78034p+1 f6ff4d96f3 8 26',
        '0x1.a4e703afb7e91p+4 69dc9a88bd 24 59',
        '0x1.4a94467381d7dp+5 dd9d540e08 63 126',
        '0x1.1d5fd8adab9f4p+6 5ddca6212b 168 271',
        '0x1.508c2f837b4a8p+8 f982fbafd8 4095 4674',
    ),
    ('scatter_allgather', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.489a027525461p+0 a6224248f3 3 13',
        '0x1.3e28240b78034p+1 f6ff4d96f3 8 26',
        '0x1.91a9fbe76c8b4p+4 5a7ef00cd8 24 59',
        '0x1.4a92a30553262p+5 488dbdfd05 63 126',
        '0x1.ed90ff9724747p+6 a5d46ecd24 168 271',
        '0x1.2c66594af4f13p+9 aff161cb36 4095 4674',
    ),
    ('scatter_allgather', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.6604189374bc7p+3 a01a195683 3 78',
        '0x1.5bf7ced916872p+4 46cc63ad82 8 156',
        '0x1.3276c8b439582p+5 9dfb3d731a 24 354',
        '0x1.bb0a3d70a3d72p+5 2ea55d2dc3 63 756',
        '0x1.603d70a3d70a5p+6 3fa1e86454 168 1626',
        '0x1.7d2d0e560418ap+8 608a30350e 4095 28044',
    ),
    ('scatter_allgather', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.269ad42c3c9efp+1 6dc62ae176 3 78',
        '0x1.00ded288ce703p+2 80b05f8cb8 8 156',
        '0x1.d703afb7e9100p+4 e65294c9a4 24 354',
        '0x1.743c9eecbfb16p+5 9a5c1df6f7 63 756',
        '0x1.3ca57a786c227p+6 be09db7b8f 168 1626',
        '0x1.7455cfaacd9e9p+8 9c9405294d 4095 28044',
    ),
    ('scatter_allgather', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.269ad42c3c9efp+1 6dc62ae176 3 78',
        '0x1.00ded288ce703p+2 80b05f8cb8 8 156',
        '0x1.bb645a1cac084p+4 c0260a96b5 24 354',
        '0x1.743c9eecbfb16p+5 1eac0615c6 63 756',
        '0x1.06e631f8a0904p+7 dbd3a6c9d6 168 1626',
        '0x1.3eeae7d566cf5p+9 47bb411090 4095 28044',
    ),
    ('scatter_allgather', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5676c8b439581p+3 646f5431df 3 16',
        '0x1.504189374bc6bp+4 2d00a6759b 8 34',
        '0x1.276872b020c4bp+5 860d2510be 24 69',
        '0x1.a916872b020c3p+5 4b7bd11641 63 130',
        '0x1.52ac083126e97p+6 3f93d435da 168 276',
        '0x1.6e1374bc6a800p+8 86de1adbe6 4095 4709',
    ),
    ('scatter_allgather', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e26809d495183p+0 db30191b28 3 16',
        '0x1.b18fc504816efp+1 390aace881 8 34',
        '0x1.c1c5d63886595p+4 de81e2db80 24 69',
        '0x1.629ba5e353f7cp+5 90ab22059f 63 130',
        '0x1.2f66666666663p+6 ee94c0530b 168 276',
        '0x1.6544ea4a8c164p+8 75a2760049 4095 4709',
    ),
    ('scatter_allgather', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e26809d495183p+0 db30191b28 3 16',
        '0x1.b18fc504816efp+1 390aace881 8 34',
        '0x1.a9a9fbe76c8b4p+4 d7cbb2f2a7 24 69',
        '0x1.629ba5e353f7cp+5 2f9b995087 63 130',
        '0x1.ff99999999999p+6 e2960c6328 168 276',
        '0x1.36c60aa64c2fep+9 17c75607da 4095 4709',
    ),
    ('scatter_allgather', True, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4333333333333p+3 c2ae77be2c 3 14',
        '0x1.41c28f5c28f5bp+4 644c042653 8 27',
        '0x1.18fdf3b645a1dp+5 d42b1faac0 24 60',
        '0x1.9116872b020c4p+5 2d1d1eef1f 63 129',
        '0x1.40a9fbe76c8b5p+6 3263c6862d 168 274',
        '0x1.5978d4fdf3b67p+8 5a5b90b9af 4095 4677',
    ),
    ('scatter_allgather', True, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.48b4395810625p+0 acdaff810b 3 14',
        '0x1.3e353f7ced916p+1 58eaf735b1 8 27',
        '0x1.18f1a9fbe76cap+5 653489788e 24 60',
        '0x1.91126e978d4fep+5 980c814a9c 63 129',
        '0x1.409db22d0e562p+6 ad4b268a21 168 274',
        '0x1.595ba5e353f84p+8 93b15578a1 4095 4677',
    ),
    ('scatter_allgather', True, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.48b4395810625p+0 acdaff810b 3 14',
        '0x1.3e353f7ced916p+1 58eaf735b1 8 27',
        '0x1.18f1a9fbe76cap+5 653489788e 24 60',
        '0x1.91126e978d4fep+5 980c814a9c 63 129',
        '0x1.2074bc6a7ef9ep+7 1dc85e1192 168 274',
        '0x1.36d16872b0213p+9 73e2c17c8d 4095 4677',
    ),
    ('scatter_allgather', True, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.6666666666667p+3 0f55b52a5a 3 84',
        '0x1.5c28f5c28f5c2p+4 159c1d19ab 8 162',
        '0x1.32a7ef9db22d2p+5 950c93a5d1 24 360',
        '0x1.bb53f7ced916ap+5 bee7ef8715 63 774',
        '0x1.60624dd2f1aa0p+6 f5f7b1ca91 168 1644',
        '0x1.7d3020c49ba5fp+8 5729aa7609 4095 28062',
    ),
    ('scatter_allgather', True, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.26e978d4fdf3bp+1 1a6ce2f435 3 84',
        '0x1.010624dd2f1aap+2 5026c88c02 8 162',
        '0x1.2e76c8b439582p+5 cd1b02ad21 24 360',
        '0x1.b73b645a1cac2p+5 982da68d7e 63 774',
        '0x1.5e189374bc6a8p+6 1f49c80d43 168 1644',
        '0x1.7cad0e560418ap+8 ef23ff11b3 4095 28062',
    ),
    ('scatter_allgather', True, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.26e978d4fdf3bp+1 1a6ce2f435 3 84',
        '0x1.010624dd2f1aap+2 5026c88c02 8 162',
        '0x1.2e76c8b439582p+5 cd1b02ad21 24 360',
        '0x1.b73b645a1cac2p+5 982da68d7e 63 774',
        '0x1.2f810624dd2f2p+7 ccc566723e 168 1644',
        '0x1.48e2d0e560419p+9 c63f8d4fd3 4095 28062',
    ),
    ('scatter_allgather', True, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.56872b020c49cp+3 7ff844a789 3 17',
        '0x1.5049ba5e353f8p+4 17d21b31e6 8 35',
        '0x1.2774bc6a7ef9ep+5 dfb7a566b6 24 70',
        '0x1.a922d0e560417p+5 21a8736ae6 63 133',
        '0x1.52b22d0e56041p+6 2eaf6d245d 168 279',
        '0x1.6e13f7ced9179p+8 4fee1a044e 4095 4712',
    ),
    ('scatter_allgather', True, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e28240b780347p+0 83fb4cade3 3 17',
        '0x1.b19ce075f6fd1p+1 c663482dba 8 35',
        '0x1.24fdf3b645a1ep+5 321dec0bf3 24 70',
        '0x1.a6b851eb851eap+5 cacd997369 63 133',
        '0x1.5172b020c49b9p+6 c4dc803052 168 279',
        '0x1.6dc6a7ef9db33p+8 cdd50ed977 4095 4712',
    ),
    ('scatter_allgather', True, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e28240b780347p+0 83fb4cade3 3 17',
        '0x1.b19ce075f6fd1p+1 c663482dba 8 35',
        '0x1.24fdf3b645a1ep+5 321dec0bf3 24 70',
        '0x1.a6b851eb851eap+5 cacd997369 63 133',
        '0x1.28cac083126e7p+7 b211847fd1 168 279',
        '0x1.40e2d0e56041fp+9 abb89ad3f9 4095 4712',
    ),
    ('pipeline', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.41c28f5c28f5cp+4 404f331ed0 4 15',
        '0x1.91e353f7ced91p+4 a8dee630d9 8 30',
        '0x1.19126e978d4fep+5 7088500df1 16 60',
        '0x1.914395810624fp+5 54b0215dd3 28 105',
        '0x1.2ccac083126eap+6 75d42e8e8a 48 180',
        '0x1.4a9b22d0e5603p+8 9d02a17892 252 945',
    ),
    ('pipeline', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3e353f7ced916p+1 099073949a 4 15',
        '0x1.8b367a0f9096bp+1 a2068adba5 8 30',
        '0x1.5ea305532617cp+4 42aa3eeb50 16 60',
        '0x1.7b7e90ff97249p+4 04db4b80a9 28 105',
        '0x1.1c52bd3c36114p+5 0f9a199ffa 48 180',
        '0x1.dc63f141205b4p+6 23cd2aafdc 252 945',
    ),
    ('pipeline', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3e353f7ced916p+1 099073949a 4 15',
        '0x1.8b367a0f9096bp+1 a2068adba5 8 30',
        '0x1.5ea305532617cp+4 42aa3eeb50 16 60',
        '0x1.7b7e90ff97249p+4 04db4b80a9 28 105',
        '0x1.9c89a02752545p+5 a8ecf85e10 48 180',
        '0x1.3e5844d013a91p+7 8439938d3f 252 945',
    ),
    ('pipeline', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.6428f5c28f5c3p+4 aaa4d364f4 4 90',
        '0x1.bced916872b02p+4 f9e56eb2dc 8 180',
        '0x1.373b645a1cac0p+5 3e6ea88f17 16 360',
        '0x1.bc624dd2f1aa0p+5 d8453b7945 28 630',
        '0x1.4d26e978d4fe0p+6 16dae1325e 48 1080',
        '0x1.6e3c6a7ef9db4p+8 e47410a9d6 252 5670',
    ),
    ('pipeline', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.210624dd2f1aap+2 3e0e6780ae 4 90',
        '0x1.6809d495182a9p+2 d53db42d14 8 180',
        '0x1.996bb98c7e282p+4 17cc423343 16 360',
        '0x1.ce90ff9724747p+4 3a04b07ecc 28 630',
        '0x1.5abd3c3611341p+5 d3ecacdee3 48 1080',
        '0x1.325f06f694469p+7 f160631685 252 5670',
    ),
    ('pipeline', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.210624dd2f1aap+2 3e0e6780ae 4 90',
        '0x1.6809d495182a9p+2 d53db42d14 8 180',
        '0x1.996bb98c7e282p+4 17cc423343 16 360',
        '0x1.ce90ff9724747p+4 3a04b07ecc 28 630',
        '0x1.dc068db8bac71p+5 2c6397e114 48 1080',
        '0x1.8344d013a92a6p+7 11fc5322d5 252 5670',
    ),
    ('pipeline', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5516872b020c5p+4 e6e334363c 4 19',
        '0x1.aa0c49ba5e355p+4 4982edcc51 8 38',
        '0x1.29fbe76c8b43bp+5 e0a19a14e8 16 76',
        '0x1.a96c8b4395810p+5 e7af0a9122 28 133',
        '0x1.3ee978d4fdf3ap+6 4ec517da11 48 228',
        '0x1.5e89ba5e353f9p+8 f728376b36 252 1197',
    ),
    ('pipeline', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.d80346dc5d638p+1 ae178e3a80 4 19',
        '0x1.25bc01a36e2eap+2 a21c6b6fc4 8 38',
        '0x1.80624dd2f1aa1p+4 4bd94c33dc 16 76',
        '0x1.aba92a3055329p+4 48785aedae 28 133',
        '0x1.4072b020c49bcp+5 ba43b33341 48 228',
        '0x1.15e7d566cf417p+7 26805a4dc1 252 1197',
    ),
    ('pipeline', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.d80346dc5d638p+1 ae178e3a80 4 19',
        '0x1.25bc01a36e2eap+2 a21c6b6fc4 8 38',
        '0x1.80624dd2f1aa1p+4 4bd94c33dc 16 76',
        '0x1.aba92a3055329p+4 48785aedae 28 133',
        '0x1.c0b9f559b3d09p+5 8be4e55462 48 228',
        '0x1.66185f06f6945p+7 d875e82ba5 252 1197',
    ),
    ('pipeline', True, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.41c28f5c28f5cp+4 d8058c4bc6 4 15',
        '0x1.91e353f7ced91p+4 761b6a0b7e 8 30',
        '0x1.19126e978d4fep+5 2aef9fa3b5 16 60',
        '0x1.914395810624fp+5 360fe3210a 28 105',
        '0x1.2ccac083126eap+6 2162a976a5 48 180',
        '0x1.4a9b22d0e5603p+8 d3186ea2fb 252 945',
    ),
    ('pipeline', True, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3e353f7ced916p+1 e313f79c0f 4 15',
        '0x1.8b367a0f9096bp+1 7701b4bfd8 8 30',
        '0x1.5e9e1b089a029p+4 72e277cc3c 16 60',
        '0x1.c200d1b71758fp+4 3c4e7acff3 28 105',
        '0x1.1c504816f0069p+5 5d5930a989 48 180',
        '0x1.ee04816f00684p+6 5a9ad6fe49 252 945',
    ),
    ('pipeline', True, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.3e353f7ced916p+1 e313f79c0f 4 15',
        '0x1.8b367a0f9096bp+1 7701b4bfd8 8 30',
        '0x1.5e9e1b089a029p+4 72e277cc3c 16 60',
        '0x1.c200d1b71758fp+4 3c4e7acff3 28 105',
        '0x1.bc9e1b089a029p+5 f8751b04b3 48 180',
        '0x1.4f2ca57a786bfp+7 ba5e1346bc 252 945',
    ),
    ('pipeline', True, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.6428f5c28f5c3p+4 405c305df2 4 90',
        '0x1.bced916872b02p+4 d1694f5c19 8 180',
        '0x1.373b645a1cac0p+5 8d08cdb877 16 360',
        '0x1.bc624dd2f1aa0p+5 792de4721f 28 630',
        '0x1.4d26e978d4fe0p+6 4da48a0d6e 48 1080',
        '0x1.6e3c6a7ef9db4p+8 e171d991e0 252 5670',
    ),
    ('pipeline', True, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.210624dd2f1aap+2 2fa7a45c23 4 90',
        '0x1.6809d495182a9p+2 b6f14b27d5 8 180',
        '0x1.994e3bcd35a88p+4 dc20187486 16 360',
        '0x1.0acf41f212d77p+5 2e18a91a86 28 630',
        '0x1.5aae7d566cf42p+5 8b9ea03df6 48 1080',
        '0x1.3b40b780346dep+7 4dbb5d5878 252 5670',
    ),
    ('pipeline', True, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.210624dd2f1aap+2 2fa7a45c23 4 90',
        '0x1.6809d495182a9p+2 b6f14b27d5 8 180',
        '0x1.994e3bcd35a88p+4 dc20187486 16 360',
        '0x1.0acf41f212d77p+5 2e18a91a86 28 630',
        '0x1.fc816f0068db9p+5 cb93cd4d2d 48 1080',
        '0x1.943f141205bc3p+7 91caa69b12 252 5670',
    ),
    ('pipeline', True, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.5516872b020c5p+4 3d8806fb39 4 19',
        '0x1.aa0c49ba5e355p+4 dc1a00c372 8 38',
        '0x1.29fbe76c8b43bp+5 5ab9e92eaf 16 76',
        '0x1.a96c8b4395810p+5 f3028d6536 28 133',
        '0x1.3ee978d4fdf3ap+6 5bb839c503 48 228',
        '0x1.5e89ba5e353f9p+8 fffe3e7613 252 1197',
    ),
    ('pipeline', True, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.d80346dc5d638p+1 40ac4f82e8 4 19',
        '0x1.25bc01a36e2eap+2 f435fe5429 8 38',
        '0x1.805d63886594dp+4 3070baa8fb 16 76',
        '0x1.f231f8a0902e1p+4 7aaff62390 28 133',
        '0x1.40703afb7e912p+5 df6fcd0f24 48 228',
        '0x1.1eb8ef34d6a10p+7 3cac962469 252 1197',
    ),
    ('pipeline', True, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.d80346dc5d638p+1 40ac4f82e8 4 19',
        '0x1.25bc01a36e2eap+2 f435fe5429 8 38',
        '0x1.805d63886594dp+4 3070baa8fb 16 76',
        '0x1.f231f8a0902e1p+4 7aaff62390 28 133',
        '0x1.e0d288ce703b2p+5 050648288c 48 228',
        '0x1.76ee978d4fdf8p+7 bb6c5f9d6c 252 1197',
    ),
    ('ring', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.4322d0e560419p+3 27b3b6ccc9 4 16',
        '0x1.41d2f1a9fbe77p+4 8f15a40fe2 12 34',
        '0x1.410e560418938p+5 cc7b12dc10 40 76',
        '0x1.1889374bc6a7fp+6 826ccbdffc 112 154',
        '0x1.e0b22d0e56048p+6 28283e8f58 312 324',
        '0x1.3b4a7ef9db23dp+9 4a189dddc1 8064 4914',
    ),
    ('ring', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.489a027525461p+0 f2d96bf091 4 16',
        '0x1.3eecbfb15b573p+1 3d502f1fef 12 34',
        '0x1.40fdf3b645a1dp+5 c3627551d2 40 76',
        '0x1.18872b020c49cp+6 0d2b602a7c 112 154',
        '0x1.e0978d4fdf3b8p+6 b776b11b15 312 324',
        '0x1.3b1fbe76c8b42p+9 48e3c2aa2c 8064 4914',
    ),
    ('ring', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.489a027525461p+0 f2d96bf091 4 16',
        '0x1.3eecbfb15b573p+1 3d502f1fef 12 34',
        '0x1.40fdf3b645a1dp+5 c3627551d2 40 76',
        '0x1.18872b020c49cp+6 0d2b602a7c 112 154',
        '0x1.b0645a1cac084p+7 a92e17c0a0 312 324',
        '0x1.1b99ba5e353fbp+10 0dcfc73ba9 8064 4914',
    ),
    ('ring', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.64dd2f1a9fbe7p+3 0c0566ff04 4 64',
        '0x1.632b020c49ba6p+4 9dde5b0d92 12 136',
        '0x1.6204189374bc6p+5 102b287480 40 304',
        '0x1.350a3d70a3d71p+6 ccbf36058d 112 616',
        '0x1.08c7ae147ae17p+7 4189a42b08 312 1296',
        '0x1.5b5ba5e353f78p+9 6784bd473a 8064 19656',
    ),
    ('ring', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.25aee631f8a09p+1 97040867c9 4 64',
        '0x1.2089a02752546p+2 0250eebb93 12 136',
        '0x1.61c28f5c28f5cp+5 d86f78fe32 40 304',
        '0x1.35020c49ba5e5p+6 45246e9f73 112 616',
        '0x1.089ba5e353f7dp+7 8d4cc7c02c 312 1296',
        '0x1.5adae147ae150p+9 b17a5c1e21 8064 19656',
    ),
    ('ring', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.25aee631f8a09p+1 97040867c9 4 64',
        '0x1.2089a02752546p+2 0250eebb93 12 136',
        '0x1.61c28f5c28f5cp+5 d86f78fe32 40 304',
        '0x1.35020c49ba5e5p+6 45246e9f73 112 616',
        '0x1.c904189374bc8p+7 12d162dc1b 312 1296',
        '0x1.2b94dd2f1a9fep+10 097589c3e1 8064 19656',
    ),
    ('ring', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.56978d4fdf3b6p+3 bd10cc9766 4 23',
        '0x1.55374bc6a7efap+4 2de712b087 12 48',
        '0x1.54624dd2f1aa0p+5 5167796bac 40 104',
        '0x1.29645a1cac082p+6 459580e077 112 203',
        '0x1.fd978d4fdf3b5p+6 a0b2235165 312 408',
        '0x1.4e410624dd2dep+9 98db9f8636 8064 5355',
    ),
    ('ring', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e29c779a6b50bp+0 2abbaf67cd 4 23',
        '0x1.d8d4fdf3b645bp+1 cc71f47492 12 48',
        '0x1.544dd2f1a9fbep+5 b1461383f0 40 104',
        '0x1.29604189374bcp+6 a88eb2ad4d 112 203',
        '0x1.fd70a3d70a3d4p+6 8c3d287c91 312 408',
        '0x1.4e07ef9db22c5p+9 0cde4549e9 8064 5355',
    ),
    ('ring', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 cbf9d90ee1 0 0',
        '0x1.e29c779a6b50bp+0 2abbaf67cd 4 23',
        '0x1.d8d4fdf3b645bp+1 cc71f47492 12 48',
        '0x1.544dd2f1a9fbep+5 b1461383f0 40 104',
        '0x1.29604189374bcp+6 a88eb2ad4d 112 203',
        '0x1.bed916872b023p+7 cfc2655194 312 408',
        '0x1.250eb851eb846p+10 a1711e3840 8064 5355',
    ),
    ('exscan', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.4374bc6a7ef9ep+3 4ecf6de5bb 2 14',
        '0x1.e3e76c8b43958p+3 ac894d0065 5 35',
        '0x1.422d0e5604189p+4 98e083b75b 12 84',
        '0x1.429fbe76c8b43p+4 4a272adddb 24 168',
        '0x1.93126e978d4fdp+4 ba6cb15433 49 343',
        '0x1.19fbe76c8b439p+5 bf092637b1 384 2688',
    ),
    ('exscan', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.491d14e3bcd35p+0 8aef51583a 2 14',
        '0x1.e36e2eb1c432bp+0 85aa9d62ae 5 35',
        '0x1.4374bc6a7ef9ep+3 aff5fc19ac 12 84',
        '0x1.429fbe76c8b43p+4 886d3cb9fc 24 168',
        '0x1.92d916872b020p+4 0e0f9f1a7b 49 343',
        '0x1.19fbe76c8b439p+5 267133a2a4 384 2688',
    ),
    ('exscan', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.491d14e3bcd35p+0 8aef51583a 2 14',
        '0x1.e36e2eb1c432bp+0 85aa9d62ae 5 35',
        '0x1.422d0e5604189p+4 48c6309abc 12 84',
        '0x1.4189374bc6a80p+5 8e39f83176 24 168',
        '0x1.4553f7ced9169p+6 2986d9b13a 49 343',
        '0x1.6947ae147ae14p+7 2b0c526dd7 384 2688',
    ),
    ('exscan', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.653f7ced91687p+3 0462b0432b 2 42',
        '0x1.0b4bc6a7ef9dcp+4 66b35df3cb 5 105',
        '0x1.63f7ced916874p+4 72cab9b68c 12 252',
        '0x1.646a7ef9db22ep+4 c1fb1b5934 24 504',
        '0x1.bd4fdf3b645a3p+4 75cd13533b 49 1029',
        '0x1.378d4fdf3b646p+5 97c2cb3805 384 8064',
    ),
    ('exscan', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.25fd8adab9f55p+1 70276a82db 2 42',
        '0x1.b3dd97f62b6aep+1 3e9fe3bef3 5 105',
        '0x1.653f7ced91687p+3 acf60e967d 12 252',
        '0x1.646a7ef9db22ep+4 827a283e70 24 504',
        '0x1.bd16872b020c6p+4 ccd264e093 49 1029',
        '0x1.378d4fdf3b646p+5 9fa85cbb10 384 8064',
    ),
    ('exscan', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.25fd8adab9f55p+1 70276a82db 2 42',
        '0x1.b3dd97f62b6aep+1 3e9fe3bef3 5 105',
        '0x1.4bf7ced916873p+4 2466ca3441 12 252',
        '0x1.4b53f7ced916ap+5 6d0a8599f5 24 504',
        '0x1.495810624dd30p+6 67f4fc72eb 49 1029',
        '0x1.6d851eb851ebap+7 6d41090a2b 384 8064',
    ),
    ('exscan', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.5ced916872b02p+3 f679d34126 2 112',
        '0x1.050e560418937p+4 3e6aa1c1d8 5 280',
        '0x1.5ba5e353f7cedp+4 1c176d6520 12 672',
        '0x1.5c189374bc6a7p+4 6d1c2e8b3a 24 1344',
        '0x1.b2e978d4fdf3ap+4 76213ef601 49 2744',
        '0x1.3045a1cac0830p+5 89d9efbcdb 384 21504',
    ),
    ('exscan', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.ecbfb15b573ebp+0 adcedb3d01 2 112',
        '0x1.6c710cb295e9fp+1 809d8536ee 5 280',
        '0x1.5ced916872b02p+3 2dd8137e51 12 672',
        '0x1.5c189374bc6a7p+4 135b546760 24 1344',
        '0x1.b2b020c49ba5dp+4 1ad92bf340 49 2744',
        '0x1.3045a1cac0830p+5 14e61f0a60 384 21504',
    ),
    ('exscan', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 6bcb1169fb 0 0',
        '0x1.ecbfb15b573ebp+0 adcedb3d01 2 112',
        '0x1.6c710cb295e9fp+1 809d8536ee 5 280',
        '0x1.4d3f7ced91687p+4 c53616b710 12 672',
        '0x1.4c9ba5e353f7cp+5 3467988418 24 1344',
        '0x1.4d95810624dd3p+6 d08a68c9c0 49 2744',
        '0x1.7251eb851eb84p+7 2a44210961 384 21504',
    ),
    ('allgather', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.42f1a9fbe76c9p+3 d2048391d1 2 6',
        '0x1.e3c6a7ef9db24p+3 c5e01b3cd4 4 19',
        '0x1.9266666666667p+4 f36a2aece3 8 50',
        '0x1.e35c28f5c28f6p+4 5605a8420c 14 140',
        '0x1.1acccccccccccp+5 6dcb783fd6 24 365',
        '0x1.efced916872aep+5 1f48ffd6d2 126 8574',
    ),
    ('allgather', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.484b5dcc63f14p+0 fe0588f0c6 2 6',
        '0x1.e339c0ebedfa3p+0 d2d8bcaeab 4 19',
        '0x1.6a0902de00d1cp+3 f998112d43 8 50',
        '0x1.91930be0ded28p+3 5eb6437438 14 140',
        '0x1.56fd21ff2e491p+4 37767111a8 24 365',
        '0x1.5fa786c22680bp+5 407659f4e3 126 8574',
    ),
    ('allgather', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.484b5dcc63f14p+0 fe0588f0c6 2 6',
        '0x1.e339c0ebedfa3p+0 d2d8bcaeab 4 19',
        '0x1.4353f7ced9169p+3 65751427bf 8 50',
        '0x1.91930be0ded28p+3 9630a013a0 14 140',
        '0x1.d8395810624dfp+4 6d3b52095e 24 365',
        '0x1.1436113404ea4p+6 efc38ced86 126 8574',
    ),
    ('allgather', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.63126e978d4fep+3 00dcd44a73 2 8',
        '0x1.022d0e560418ap+4 8df44b2b58 4 28',
        '0x1.b3020c49ba5e2p+4 ba28a4490a 8 76',
        '0x1.0a2d0e5604189p+5 cd0492b97f 14 206',
        '0x1.33e76c8b43958p+5 f9496597ea 24 552',
        '0x1.13a9fbe76c8b4p+6 99d86c178b 126 12823',
    ),
    ('allgather', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.243fe5c91d14ep+1 a5d0e38b18 2 8',
        '0x1.7212d77318fc5p+1 3e4b0e789a 4 28',
        '0x1.9a95e9e1b0899p+3 d12a9e90b3 8 76',
        '0x1.f2a305532617dp+3 5e25f10135 14 206',
        '0x1.80432ca57a788p+4 ef6b5ddf01 24 552',
        '0x1.9582a9930be0fp+5 453593dba5 126 12823',
    ),
    ('allgather', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.243fe5c91d14ep+1 a5d0e38b18 2 8',
        '0x1.7212d77318fc5p+1 3e4b0e789a 4 28',
        '0x1.63b645a1cac09p+3 d2191fe26a 8 76',
        '0x1.f2a305532617dp+3 20a6f47c4a 14 206',
        '0x1.010f27bb2fec6p+5 5c95c4c716 24 552',
        '0x1.3150b0f27bb2ep+6 0da0623a9d 126 12823',
    ),
    ('allgather', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.5645a1cac0830p+3 c1b279f984 2 8',
        '0x1.f75c28f5c28f6p+3 9d924fd56d 4 25',
        '0x1.a5fbe76c8b43bp+4 01847e65da 8 67',
        '0x1.006a7ef9db22dp+5 bf1a0dc6f6 14 186',
        '0x1.29d2f1a9fbe77p+5 38a85f5ba6 24 470',
        '0x1.089374bc6a7eep+6 9f533feffe 126 11141',
    ),
    ('allgather', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.e219652bd3c37p+0 a1277cc3d2 2 8',
        '0x1.3eb851eb851ecp+1 cb9cd185b3 4 25',
        '0x1.87318fc504815p+3 fa105ee87a 8 67',
        '0x1.cbe76c8b43957p+3 ded35c7a8e 14 186',
        '0x1.6fbb2fec56d5dp+4 e65085c678 24 470',
        '0x1.7ffcb923a29c6p+5 9f985837bc 126 11141',
    ),
    ('allgather', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 47b6b89bdb 0 0',
        '0x1.e219652bd3c37p+0 a1277cc3d2 2 8',
        '0x1.3eb851eb851ecp+1 cb9cd185b3 4 25',
        '0x1.56c8b43958105p+3 0ba0b8f5a3 8 67',
        '0x1.cbe76c8b43957p+3 cf328ea3fe 14 186',
        '0x1.f1566cf41f214p+4 9384560f69 24 470',
        '0x1.25b089a027523p+6 2724f051ff 126 11141',
    ),
    ('alltoallv', False, 'rbc', 'flat'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.453f7ced91687p+2 230d224b0b 2 2',
        '0x1.42c083126e979p+3 8fc6b02753 6 6',
        '0x1.41810624dd2f2p+4 5a21001696 20 20',
        '0x1.18d916872b021p+5 59c5cd8ba6 56 56',
        '0x1.e10624dd2f1aap+5 9167a1dcaa 156 156',
        '0x1.3b54fdf3b6467p+8 d0b78507c8 4032 4032',
    ),
    ('alltoallv', False, 'rbc', 'two_tier'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.5c5d63886594ap-1 2fac6394e4 2 2',
        '0x1.47fcb923a29c6p+0 716562a886 6 6',
        '0x1.416872b020c49p+4 bf96f242e6 20 20',
        '0x1.5e64c2f837b4ap+4 7af99e25c0 56 56',
        '0x1.e0d4fdf3b645ap+5 21e2936ae8 156 156',
        '0x1.2e1f559b3d089p+8 823a8b4a5b 4032 4032',
    ),
    ('alltoallv', False, 'rbc', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.5c5d63886594ap-1 2fac6394e4 2 2',
        '0x1.47fcb923a29c6p+0 716562a886 6 6',
        '0x1.416872b020c49p+4 33fb2c3e26 20 20',
        '0x1.4072b020c49bap+6 e38cd5942a 56 56',
        '0x1.343be76c8b43ap+8 9befce9ad9 156 156',
        '0x1.063cccccccc9ap+11 53833e79ac 4032 4032',
    ),
    ('alltoallv', False, 'intel', 'flat'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.653f7ced91687p+2 4c9352b462 2 2',
        '0x1.52c083126e979p+3 48137e82c9 6 6',
        '0x1.49810624dd2f2p+4 35d6987f41 20 20',
        '0x1.1cd916872b021p+5 af0bc0c59d 56 56',
        '0x1.e50624dd2f1aap+5 5589221c3f 156 156',
        '0x1.3bd4fdf3b6467p+8 8b7f298a1d 4032 4032',
    ),
    ('alltoallv', False, 'intel', 'two_tier'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.2e2eb1c432ca5p+0 382f3fbdbc 2 2',
        '0x1.c7fcb923a29c6p+0 08b006c7e2 6 6',
        '0x1.496872b020c49p+4 c52eec7f6b 20 20',
        '0x1.6664c2f837b4ap+4 d87a00d3e2 56 56',
        '0x1.e4d4fdf3b645ap+5 9eb37a7c8e 156 156',
        '0x1.2e9f559b3d089p+8 ac857ad1c5 4032 4032',
    ),
    ('alltoallv', False, 'intel', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.2e2eb1c432ca5p+0 382f3fbdbc 2 2',
        '0x1.c7fcb923a29c6p+0 08b006c7e2 6 6',
        '0x1.496872b020c49p+4 05141dd3c4 20 20',
        '0x1.4272b020c49bap+6 606617206b 56 56',
        '0x1.34bbe76c8b43ap+8 6eb1f878b0 156 156',
        '0x1.064cccccccc9ap+11 baac2a5b49 4032 4032',
    ),
    ('alltoallv', False, 'ibm', 'flat'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.5872b020c49bap+2 e262ca3fee 2 2',
        '0x1.4c5a1cac08312p+3 924eb517ae 6 6',
        '0x1.464dd2f1a9fbep+4 3ff1f4b50d 20 20',
        '0x1.1b3f7ced91688p+5 10a4668c69 56 56',
        '0x1.e36c8b4395810p+5 ae15c3bd55 156 156',
        '0x1.3ba1cac083133p+8 15ab01a057 4032 4032',
    ),
    ('alltoallv', False, 'ibm', 'two_tier'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.f5f6fd21ff2e4p-1 2ec28b162b 2 2',
        '0x1.94c985f06f694p+0 f696f214d9 6 6',
        '0x1.46353f7ced916p+4 9ec0eab867 20 20',
        '0x1.63318fc504817p+4 c97fb18b15 56 56',
        '0x1.e33b645a1cac0p+5 4e173228b1 156 156',
        '0x1.2e6c226809d55p+8 8e2e7cd28f 4032 4032',
    ),
    ('alltoallv', False, 'ibm', 'shared_nic'): (
        '0x1.47ae147ae147bp-4 14c3a97f27 0 0',
        '0x1.f5f6fd21ff2e4p-1 2ec28b162b 2 2',
        '0x1.94c985f06f694p+0 f696f214d9 6 6',
        '0x1.46353f7ced916p+4 cf714ca223 20 20',
        '0x1.41a5e353f7cedp+6 24495418af 56 56',
        '0x1.3488b43958107p+8 594b68dad2 156 156',
        '0x1.0646666666634p+11 53c6b41a9d 4032 4032',
    ),
}

# (implementation, machine): two outstanding collectives at p = 5 and 13,
# then the janus rank (RBC) or create_group / split at p = 8 and 13 (native).
PARENT_SHAPES = {
    ('rbc', 'flat'): (
        '0x1.422d0e5604189p+4 92bd98058b 8 56',
        '0x1.92d916872b020p+4 fbc62b38ae 24 168',
        '0x1.9178d4fdf3b64p+4 dc37f04d57 16 16',
    ),
    ('rbc', 'two_tier'): (
        '0x1.932ca57a786c1p+2 e96b4d25f3 8 56',
        '0x1.053dd97f62b6bp+4 21df6729d0 24 168',
        '0x1.69205bc01a36fp+3 82db481036 16 16',
    ),
    ('rbc', 'shared_nic'): (
        '0x1.932ca57a786c1p+2 e96b4d25f3 8 56',
        '0x1.7266666666666p+4 ad6d215c89 24 168',
        '0x1.349eecbfb15b6p+4 18356287df 16 16',
    ),
    ('intel', 'flat'): (
        '0x1.595810624dd2ep+4 fefad80b11 8 672',
        '0x1.b2c083126e977p+4 6018fb2e2f 24 2016',
        '0x1.9eb851eb851ecp+4 481dc3d258 12 384',
        '0x1.f8fdf3b645a1dp+4 3bc891c00a 22 704',
        '0x1.3a76c8b43957fp+6 587c19ba25 28 664',
        '0x1.6b76c8b43957ep+6 129ffed5a7 48 1324',
    ),
    ('intel', 'two_tier'): (
        '0x1.f972474538ef2p+2 61e619057e 8 672',
        '0x1.23bcd35a85879p+4 56bf900444 24 2016',
        '0x1.03afb7e90ff97p+3 90d59e224b 12 384',
        '0x1.b0bfb15b573ebp+4 9cff2f44c2 22 704',
        '0x1.58ebedfa43fe6p+5 d0d469ad78 28 664',
        '0x1.ecc56d5cfaacdp+5 2725ad4ba8 48 1324',
    ),
    ('intel', 'shared_nic'): (
        '0x1.f972474538ef2p+2 61e619057e 8 672',
        '0x1.8d604189374bdp+4 f47eb80c34 24 2016',
        '0x1.03afb7e90ff97p+3 90d59e224b 12 384',
        '0x1.5ed013a92a305p+5 aefaea4019 22 704',
        '0x1.58ebedfa43fe6p+5 ae0a979afa 28 664',
        '0x1.3741205bc01a2p+6 cca4abf78d 48 1324',
    ),
    ('ibm', 'flat'): (
        '0x1.4c083126e978ep+4 ab8e45b1ea 8 72',
        '0x1.9ce5604189376p+4 020124fd44 24 216',
        '0x1.ec51eb851eb85p+8 ba13654a81 12 384',
        '0x1.13c189374bc6ap+9 5744372049 22 704',
        '0x1.1196872b020c4p+9 3f2d24b7fd 28 664',
        '0x1.3289ba5e353f8p+9 3bb6eca658 48 1324',
    ),
    ('ibm', 'two_tier'): (
        '0x1.cd21ff2e48e88p+2 addd01e1c1 8 72',
        '0x1.13dbf487fcb93p+4 f8d03fbf04 24 216',
        '0x1.da83e425aee63p+8 c5153b8900 12 384',
        '0x1.117f972474539p+9 54cad444c5 22 704',
        '0x1.ffacd9e83e426p+8 3a82030b4f 28 664',
        '0x1.23e7381d7dbf4p+9 8157eeec58 48 1324',
    ),
    ('ibm', 'shared_nic'): (
        '0x1.cd21ff2e48e88p+2 addd01e1c1 8 72',
        '0x1.7c51eb851eb86p+4 385d354b1e 24 216',
        '0x1.da83e425aee63p+8 c5153b8900 12 384',
        '0x1.19e69ad42c3cap+9 e20a85920f 22 704',
        '0x1.ffacd9e83e426p+8 63b0bc1019 28 664',
        '0x1.2c0305532617cp+9 681c75a55c 48 1324',
    ),
}


@pytest.mark.parametrize("key", list(_keys()), ids=lambda key: "-".join(
    [key[0], "last" if key[1] else "first", key[2], key[3]]))
def test_collective_reproduces_the_request_list_protocol(key):
    assert collective_cells(*key) == list(PARENT[key])


@pytest.mark.parametrize("key", sorted(PARENT_SHAPES), ids="-".join)
def test_overlapping_requests_and_comm_create_reproduce_it_too(key):
    assert shape_cells(*key) == list(PARENT_SHAPES[key])


#: ``take_exact`` calls of the busiest rank of the p = 64 alltoallv on the
#: parent tree.  A delivery wakes the rank and the wake-up polls every slot
#: that is still empty, so the count is quadratic in the window on either
#: tree; the parent's ``RequestSet`` only guaranteed that a filled slot is
#: never polled again.
PARENT_ALLTOALLV_POLLS = 6090


def test_alltoallv_window_never_polls_a_filled_slot_again(monkeypatch):
    """A rank's p - 1 receives are one state: a wake-up re-polls only the
    still-empty slots of the window, never the whole window."""
    polls = {}
    matched = set()
    take_exact = IndexedMailbox.take_exact

    def counting(self, key):
        assert (id(self), key) not in matched
        polls[id(self)] = polls.get(id(self), 0) + 1
        message = take_exact(self, key)
        if message is not None:
            matched.add((id(self), key))
        return message

    monkeypatch.setattr(IndexedMailbox, "take_exact", counting)
    p = 64
    result = _cluster(p, "flat", False).run(
        _collective, op="alltoallv", impl="rbc", root=0)
    assert result.stats.messages_sent == len(matched) == p * (p - 1)
    assert len(polls) == p
    assert max(polls.values()) <= PARENT_ALLTOALLV_POLLS


def _generate():
    print("PARENT = {")
    for key in _keys():
        print(f"    {key!r}: (")
        for cell in collective_cells(*key):
            print(f"        {cell!r},")
        print("    ),")
    print("}\n\nPARENT_SHAPES = {")
    for impl in IMPLS:
        for machine in MACHINES:
            print(f"    {(impl, machine)!r}: (")
            for cell in shape_cells(impl, machine):
                print(f"        {cell!r},")
            print("    ),")
    print("}")


if __name__ == "__main__":
    _generate()
