"""Communicators and point-to-point operations.

All public operations are *simulation coroutines*: call them with
``yield from`` inside a rank's coroutine.  Nonblocking operations return a
:class:`~repro.mpi.request.Request` whose ``wait()`` is itself a
coroutine.

Protocol model (Open MPI-like, §V.A):

* messages up to ``MpiConfig.eager_threshold`` are sent *eagerly*: the
  payload is staged and pushed to the receiver regardless of whether a
  receive is posted; the send completes locally.
* larger messages use *rendezvous*: the sender announces the envelope,
  waits for the receiver to match (clear-to-send), then streams the
  payload zero-copy into the posted buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.errors import MpiError, MpiRankFailed, MpiRevoked
from repro.hardware.cluster import Cluster
from repro.hardware.network import FabricChain
from repro.mpi import collectives as _coll
from repro.mpi.ft import detector_of
from repro.mpi.matching import Endpoint, Envelope, PostedRecv
from repro.mpi.request import Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.sim import LOW, Chain, Environment, Event
from repro.sim.core import PENDING, Next

__all__ = ["MpiConfig", "Communicator"]


@dataclass(frozen=True)
class MpiConfig:
    """MPI-layer tuning knobs."""

    #: eager/rendezvous switch-over in bytes
    eager_threshold: int = 64 * 1024
    #: modelled wire size of a pickled control object
    object_nbytes: int = 256
    #: fault tolerance (active only while a fault injector is attached):
    #: time waited for a delivery ack before the first retransmission
    ack_timeout: float = 1e-4
    #: retransmissions allowed before the send fails with MpiError
    max_retries: int = 8
    #: multiplicative backoff applied to ack_timeout per retransmission
    retry_backoff: float = 2.0


_UINT8 = np.dtype(np.uint8)


def _byte_view(arr: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a contiguous array (no copy)."""
    if not isinstance(arr, np.ndarray):
        raise MpiError(f"buffer must be a numpy array, got {type(arr)!r}")
    if not arr.flags.c_contiguous:
        raise MpiError("message buffers must be C-contiguous")
    if arr.dtype is _UINT8 and arr.ndim == 1:
        return arr
    return arr.reshape(-1).view(np.uint8)


class _CommState:
    """State shared by all ranks' handles of one communicator.

    ``group`` maps communicator ranks to cluster node ids; COMM_WORLD's
    group is the identity, sub-communicators created by ``split`` carry a
    subset.
    """

    def __init__(self, env: Environment, cluster: Cluster, comm_id: int,
                 config: MpiConfig, name: str,
                 group: Optional[list[int]] = None):
        self.env = env
        self.cluster = cluster
        self.comm_id = comm_id
        self.config = config
        self.name = name
        self.group = list(group) if group is not None \
            else list(range(len(cluster)))
        self.size = len(self.group)
        self.endpoints = [Endpoint(name=f"{name}:r{r}")
                          for r in range(self.size)]
        self._seq = 0
        self._dups: list["_CommState"] = []
        self._next_dup = [0] * self.size
        self._coll_seq = [0] * self.size
        self._splits: dict[tuple, "_CommState"] = {}
        # -- ULFM-style fault tolerance state (see repro.mpi.ft) --
        self.revoked = False
        self.revoke_reason = ""
        self.revoke_injected = False
        #: node ids this communicator has learned are fail-stopped
        self.failed_nodes: set[int] = set()
        self._shrink_next = [0] * self.size
        self._shrink_rounds: dict[int, tuple] = {}
        self._shrink_states: dict[int, "_CommState"] = {}
        self._agree_next = [0] * self.size
        self._agree_rounds: dict[int, tuple] = {}

    def node_id(self, rank: int) -> int:
        """Cluster node id hosting communicator rank ``rank``."""
        return self.group[rank]

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def dup_for(self, rank: int) -> "_CommState":
        """Deterministic dup: the n-th dup() call of every rank returns
        the same shared state (ranks must dup in matching order, as the
        MPI standard requires of the collective ``MPI_Comm_dup``)."""
        n = self._next_dup[rank]
        self._next_dup[rank] += 1
        while len(self._dups) <= n:
            child = _CommState(self.env, self.cluster,
                               comm_id=self.comm_id * 1000 + len(self._dups) + 1,
                               config=self.config,
                               name=f"{self.name}.dup{len(self._dups)}",
                               group=self.group)
            self._dups.append(child)
        return self._dups[n]

    def split_state(self, seq: int, node_ids: tuple[int, ...],
                    label) -> "_CommState":
        """Shared child state for one split group (created once)."""
        key = (seq, node_ids)
        if key not in self._splits:
            self._splits[key] = _CommState(
                self.env, self.cluster,
                comm_id=self.comm_id * 1000 + 500 + seq,
                config=self.config,
                name=f"{self.name}.split{seq}[{label}]",
                group=list(node_ids))
        return self._splits[key]


class Communicator:
    """One rank's handle on a communicator (``MPI_Comm``)."""

    def __init__(self, state: _CommState, rank: int):
        if not (0 <= rank < state.size):
            raise MpiError(f"rank {rank} out of range 0..{state.size - 1}")
        self._state = state
        self._rank = rank
        # Hot-path caches: the home node and its fixed per-call host
        # costs (HostSpec is frozen, so these can never go stale).
        home = state.cluster[state.node_id(rank)]
        self._home = home
        self._call_overhead = home.host.spec.call_overhead
        self._sync_overhead = home.host.spec.sync_overhead
        self._cluster_spec = state.cluster.spec

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._state.size

    @property
    def env(self) -> Environment:
        return self._state.env

    @property
    def name(self) -> str:
        return self._state.name

    @property
    def config(self) -> MpiConfig:
        return self._state.config

    def node(self, rank: Optional[int] = None):
        """The hardware node hosting ``rank`` (default: this rank)."""
        if rank is None or rank == self._rank:
            return self._home
        return self._state.cluster[self._state.node_id(rank)]

    def dup(self) -> "Communicator":
        """Duplicate the communicator (fresh matching space, same group)."""
        return Communicator(self._state.dup_for(self._rank), self._rank)

    def split(self, color: int,
              key: Optional[int] = None) -> Generator[Any, Any,
                                                      "Communicator"]:
        """``MPI_Comm_split``: collective; returns this rank's handle on
        the sub-communicator of its ``color`` group, ranked by
        ``(key, old rank)``."""
        key = self._rank if key is None else key
        infos = yield from self._allgather_obj((color, key))
        seq = self._coll_tag()  # aligns the split instance across ranks
        members = sorted(
            (k, old) for old, (c, k) in enumerate(infos) if c == color)
        old_ranks = [old for _k, old in members]
        node_ids = tuple(self._state.node_id(r) for r in old_ranks)
        child = self._state.split_state(seq, node_ids, color)
        return Communicator(child, old_ranks.index(self._rank))

    def _allgather_obj(self, obj: Any) -> Generator[Any, Any, list]:
        """Allgather small Python objects (gather to 0, broadcast back)."""
        tag = (1 << 29) + self._coll_tag()
        if self._rank == 0:
            infos = [None] * self.size
            infos[0] = obj
            for _ in range(self.size - 1):
                got, status = yield from self.recv_obj(ANY_SOURCE, tag)
                infos[status.source] = got
            for dst in range(1, self.size):
                yield from self.send_obj(infos, dst, tag)
            return infos
        yield from self.send_obj(obj, 0, tag)
        infos, _ = yield from self.recv_obj(0, tag)
        return infos

    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise MpiError(f"{what} rank {peer} out of range on {self.name}")

    # =====================================================================
    # point-to-point: typed buffers
    # =====================================================================
    def isend(self, buf: np.ndarray, dest: int, tag: int = 0,
              rate_limit: Optional[float] = None
              ) -> Generator[Any, Any, Request]:
        """Nonblocking send of a contiguous numpy buffer.

        ``rate_limit`` (bytes/s) caps the wire rate; the clMPI mapped
        engine uses it to model the NIC streaming from mapped device
        memory over PCIe.
        """
        self._check_peer(dest, "destination")
        if tag < 0:
            raise MpiError("application tags must be non-negative")
        return (yield from self._isend_impl(buf, dest, tag, rate_limit))

    def isend_bytes(self, view: Optional[np.ndarray], nbytes: int, dest: int,
                    tag: int = 0, rate_limit: Optional[float] = None,
                    flow: int = 0) -> Generator[Any, Any, Request]:
        """Nonblocking raw-byte send of ``nbytes``.

        ``view`` may be None for *timing-only* transfers: the wire time is
        modelled but no data moves (used by the clMPI engines when the
        OpenCL context runs with ``functional=False``).  ``flow`` links
        the message's trace records into an existing causal chain (the
        clMPI engines thread one through staging DMA + wire + drain DMA).
        """
        self._check_peer(dest, "destination")
        if nbytes < 0:
            raise MpiError("negative message size")
        if view is not None and _byte_view(view).nbytes != nbytes:
            raise MpiError("view size does not match nbytes")
        return (yield from self._isend_impl(view, dest, tag, rate_limit,
                                            nbytes_override=nbytes,
                                            flow=flow))

    def irecv_bytes(self, view: Optional[np.ndarray], nbytes: int,
                    source: int, tag: int,
                    rate_limit: Optional[float] = None
                    ) -> Generator[Any, Any, Request]:
        """Nonblocking raw-byte receive; ``view`` may be None (timing-only).

        ``rate_limit`` caps the wire rate from the receiver's side (sent
        back to the sender on the rendezvous clear-to-send).
        """
        self._check_peer(source, "source")
        posted_buf = None if view is None else _byte_view(view)
        if posted_buf is not None and posted_buf.nbytes < nbytes:
            raise MpiError("receive view smaller than nbytes")
        return (yield from self._irecv_impl(posted_buf, source, tag,
                                            is_object=False,
                                            rate_limit=rate_limit))

    def _isend_impl(self, buf, dest, tag, rate_limit=None,
                    is_object=False, nbytes_override=None,
                    flow=0) -> Generator[Any, Any, Request]:
        state, env = self._state, self.env
        if state.revoked:
            raise self._revoked_error("send")
        yield env.timeout(self._call_overhead)  # inlined host.api_call()

        if is_object:
            nbytes = state.config.object_nbytes
            payload = buf  # delivered by reference
        elif nbytes_override is not None:
            payload = None if buf is None else _byte_view(buf)
            nbytes = nbytes_override
        else:
            payload = _byte_view(buf)
            nbytes = payload.nbytes

        eager = nbytes <= state.config.eager_threshold or is_object
        if flow == 0 and env.tracer is not None:
            # Every traced message gets a causal chain, so send->recv
            # pairs stay linked even when no caller threaded a flow in.
            flow = env.tracer.new_flow()
        metrics = env.metrics
        if metrics is not None:
            metrics.inc("mpi.messages")
            metrics.observe("mpi.msg_bytes", nbytes)
            metrics.inc("mpi.eager" if eager else "mpi.rndv")
        envelope = Envelope(
            src=self._rank, dst=dest, tag=tag, comm_id=state.comm_id,
            nbytes=nbytes, seq=state.next_seq(),
            protocol="eager" if eager else "rndv",
            is_object=is_object,
            arrived=Event(env),
            flow=flow,
        )
        completion = Event(env)
        if eager:
            # Stage a private copy so the sender may reuse its buffer.
            if is_object or payload is None:
                envelope.payload = payload
            else:
                envelope.payload = payload.copy()
        else:
            envelope.payload = payload
            envelope.cts = Event(env)

        if env.schedule_policy is None:
            matched = state.endpoints[dest].deliver(envelope)
        else:
            # Deferred matching (schedule-space verifier attached): the
            # envelope is matched in a flush round at this instant, so
            # concurrent senders form one visible candidate set.
            matched = None
            state.endpoints[dest].defer_envelope(envelope)
            self._schedule_flush(dest)
        # The descriptive per-message name is only built when a monitor is
        # attached (the sanitizer's witness chains want it); detached runs
        # pay a constant string instead of two f-strings per message.
        if env.monitor is not None:
            env.monitor.on_mpi_send(self, envelope, completion, matched)
            name = f"mpi.send r{self._rank}->r{dest} t{tag}"
        else:
            name = "mpi.send"
        if matched is not None:
            self._start_recv_finish(envelope, matched, unexpected=False)
        _SendChain(self, envelope, completion, rate_limit, name)
        return Request(env, completion, kind="send")

    def _abort_send(self, envelope: Envelope, completion: Event,
                    exc: BaseException) -> None:
        """Fail both ends' events of an undeliverable message.

        Pre-defused: an application that never waits on the request must
        not have the failure escape ``Environment.run`` (same pattern as
        ``CLEvent._fail``).  Waiters still get the exception re-raised
        at their yield site.
        """
        if not envelope.arrived.triggered:
            envelope.arrived.fail(exc)
            envelope.arrived._defused = True
        if not completion.triggered:
            completion.fail(exc)
            completion._defused = True

    def _fail_send(self, envelope: Envelope, completion: Event) -> None:
        """Give up on a message: fail both ends' events.

        A permanent ``dead`` fate means a fail-stopped peer, which no
        amount of retransmission can mask — the failure detector is
        notified and the error is :class:`MpiRankFailed` naming the dead
        rank, so callers can tell an orphaned message (recover via
        ``revoke``/``shrink``) from an exhausted lossy link (plain
        :class:`MpiError`).
        """
        state, env = self._state, self.env
        dead_rank = dead_node = None
        if envelope.last_fate == "dead" and env.faults is not None:
            for peer in (envelope.dst, envelope.src):
                node = state.node_id(peer)
                if env.faults.node_dead(node):
                    dead_rank, dead_node = peer, node
                    break
        head = (f"{self.name}: message r{envelope.src}->r{envelope.dst} "
                f"tag {envelope.tag} ({envelope.nbytes} B) undeliverable")
        if dead_rank is not None:
            exc = MpiRankFailed(
                f"{head}: rank {dead_rank} (node {dead_node}) has "
                f"fail-stopped (gave up after {envelope.retries} "
                "transmission attempt(s))",
                rank=dead_rank, node=dead_node)
            state.failed_nodes.add(dead_node)
            det = detector_of(env)
            if det is not None:
                det.notice(dead_node, env, rank=dead_rank, comm=state.name)
        else:
            exc = MpiError(
                f"{head} after {state.config.max_retries} retransmissions "
                f"(last fate: {envelope.last_fate})")
        exc.injected = True
        exc.flow = envelope.flow  # locate the failure on the timeline
        self._abort_send(envelope, completion, exc)
        if env.monitor is not None:
            env.monitor.on_fault({"kind": "mpi_giveup", "time": env.now,
                                  "src": envelope.src, "dst": envelope.dst,
                                  "tag": envelope.tag, "nbytes": envelope.nbytes,
                                  "last_fate": envelope.last_fate,
                                  "rank_failed": dead_rank,
                                  "flow": envelope.flow})

    @staticmethod
    def _deposit(src_bytes: np.ndarray, dst_bytes: np.ndarray) -> None:
        """Copy into a posted receive buffer (both already byte views)."""
        if src_bytes.nbytes > dst_bytes.nbytes:
            raise MpiError(
                f"message truncated: {src_bytes.nbytes} bytes into a "
                f"{dst_bytes.nbytes}-byte buffer")
        dst_bytes[:src_bytes.nbytes] = src_bytes

    def irecv(self, buf: Optional[np.ndarray], source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[Any, Any, Request]:
        """Nonblocking receive into a contiguous numpy buffer."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        if buf is None:
            raise MpiError("typed receives require a destination buffer")
        # Validates contiguity up front; the view is carried on the posted
        # receive so the deposit does not have to rebuild it.
        view = _byte_view(buf)
        return (yield from self._irecv_impl(view, source, tag,
                                            is_object=False))

    def _irecv_impl(self, buf, source, tag, is_object,
                    rate_limit=None) -> Generator[Any, Any, Request]:
        state, env = self._state, self.env
        if state.revoked:
            raise self._revoked_error("recv")
        yield env.timeout(self._call_overhead)  # inlined host.api_call()
        posted = PostedRecv(source=source, tag=tag,
                            buf=None if is_object else buf,
                            completion=Event(env), is_object=is_object,
                            rate_limit=rate_limit)
        if env.schedule_policy is None:
            envelope = state.endpoints[self._rank].post(posted)
        else:
            envelope = None
            state.endpoints[self._rank].defer_recv(posted)
            self._schedule_flush(self._rank)
        if env.monitor is not None:
            env.monitor.on_mpi_recv(self, posted, envelope)
        if envelope is not None:
            self._start_recv_finish(envelope, posted, unexpected=True)
        req = Request(env, posted.completion, kind="recv")
        req.posted = posted
        return req

    def _schedule_flush(self, rank: int) -> None:
        """Queue one LOW-priority matching round for ``rank``'s endpoint.

        Deferred matching only.  All registrations at the current
        virtual instant sort before the round (LOW fires after every
        NORMAL event at the same timestamp), so the round sees the
        complete same-instant candidate set and the attached policy
        picks the match order.  At most one round is queued per
        endpoint at a time.
        """
        endpoint = self._state.endpoints[rank]
        if endpoint.flush_pending:
            return
        endpoint.flush_pending = True
        flush = Event(self.env)
        flush.callbacks.append(lambda _evt: self._flush_endpoint(rank))
        flush.succeed(priority=LOW)

    def _flush_endpoint(self, rank: int) -> None:
        endpoint = self._state.endpoints[rank]
        endpoint.flush_pending = False
        policy = self.env.schedule_policy
        for envelope, posted, unexpected in endpoint.resolve(policy):
            self._start_recv_finish(envelope, posted, unexpected)

    def _start_recv_finish(self, envelope: Envelope, posted: PostedRecv,
                           unexpected: bool) -> None:
        """Start the receiver-side chain of a matched pair.

        ``unexpected`` is True when the envelope arrived before the
        receive was posted (buffered eager data costs an extra copy).
        """
        if posted.is_object != envelope.is_object:
            raise MpiError(
                f"object/buffer API mismatch on tag {envelope.tag} "
                f"(src {envelope.src} -> dst {envelope.dst})")
        _RecvChain(self, envelope, posted, unexpected,
                   f"mpi.recv r{envelope.dst}<-r{envelope.src} "
                   f"t{envelope.tag}"
                   if self.env.monitor is not None else "mpi.recv")

    def _fail_recv(self, posted: PostedRecv, exc: BaseException) -> None:
        """Propagate a sender-side delivery failure to the receive request."""
        posted.completion.fail(exc)
        posted.completion._defused = True

    def _trace_recv(self, envelope: Envelope, start: float,
                    end: float) -> None:
        """Receiver-side delivery marker closing the message's flow chain
        (the wire record lives on the *sender's* NIC lane, so without
        this the chain would never reach the receiving node)."""
        tracer = self.env.tracer
        if tracer is not None and envelope.flow:
            tracer.record(
                f"node{self._state.node_id(envelope.dst)}.mpi",
                f"recv t{envelope.tag}", start, end, "host",
                flow=envelope.flow, src=envelope.src,
                nbytes=envelope.nbytes)

    # -- blocking wrappers ---------------------------------------------------
    def _blocking_wait(self, *requests) -> Generator[Any, Any, list]:
        """Wait for requests, charging the wake-up cost only if the host
        thread actually blocked."""
        blocked = any(not r.done for r in requests)
        values = []
        try:
            for r in requests:
                values.append((yield from r.wait()))
        except BaseException:
            # the escaping error abandons the sibling handles — free
            # them, as MPI frees every request of the combined call
            # (otherwise e.g. a revoked sendrecv leaks its send handle)
            for r in requests:
                r.consumed = True
            raise
        if blocked:
            yield from self.node().host.sync_wakeup()
        return values

    def send(self, buf: np.ndarray, dest: int,
             tag: int = 0) -> Generator[Any, Any, None]:
        """Blocking send (returns when the buffer is reusable)."""
        req = yield from self.isend(buf, dest, tag)
        # Single-request _blocking_wait, unrolled (hot path).
        completion = req.completion
        blocked = not completion.triggered
        yield completion
        req.consumed = True
        if blocked:
            yield self.env.timeout(self._sync_overhead)

    def recv(self, buf: Optional[np.ndarray], source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator[Any, Any, Status]:
        """Blocking receive; returns the :class:`Status`."""
        req = yield from self.irecv(buf, source, tag)
        # Single-request _blocking_wait, unrolled (hot path).
        completion = req.completion
        blocked = not completion.triggered
        status = yield completion
        req.consumed = True
        if blocked:
            yield self.env.timeout(self._sync_overhead)
        return status

    def sendrecv(self, sendbuf: np.ndarray, dest: int, sendtag: int,
                 recvbuf: np.ndarray, source: int,
                 recvtag: int) -> Generator[Any, Any, Status]:
        """Combined send+receive (``MPI_Sendrecv``): no deadlock ordering."""
        sreq = yield from self.isend(sendbuf, dest, sendtag)
        rreq = yield from self.irecv(recvbuf, source, recvtag)
        status, _ = yield from self._blocking_wait(rreq, sreq)
        return status

    # =====================================================================
    # point-to-point: small Python objects (control metadata)
    # =====================================================================
    def isend_obj(self, obj: Any, dest: int,
                  tag: int = 0) -> Generator[Any, Any, Request]:
        """Nonblocking send of a small Python object (always eager)."""
        self._check_peer(dest, "destination")
        return (yield from self._isend_impl(obj, dest, tag, is_object=True))

    def irecv_obj(self, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG) -> Generator[Any, Any, Request]:
        """Nonblocking object receive; request value is ``(obj, status)``."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        return (yield from self._irecv_impl(None, source, tag,
                                            is_object=True))

    def send_obj(self, obj: Any, dest: int,
                 tag: int = 0) -> Generator[Any, Any, None]:
        """Blocking object send."""
        req = yield from self.isend_obj(obj, dest, tag)
        yield from req.wait()

    def recv_obj(self, source: int = ANY_SOURCE,
                 tag: int = ANY_TAG) -> Generator[Any, Any, tuple]:
        """Blocking object receive; returns ``(obj, status)``."""
        req = yield from self.irecv_obj(source, tag)
        obj, status = yield from req.wait()
        return obj, status

    # =====================================================================
    # probing
    # =====================================================================
    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe: Status of a matchable message, or None."""
        env_ = self._state.endpoints[self._rank].find_envelope(source, tag)
        if env_ is None:
            return None
        return Status(env_.src, env_.tag, env_.nbytes)

    def probe(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Generator[Any, Any, Status]:
        """Blocking probe: waits until a matching message is announced."""
        status = self.iprobe(source, tag)
        if status is not None:
            return status
        waiter = Event(self.env)
        self._state.endpoints[self._rank].add_prober(source, tag, waiter)
        envlp = yield waiter
        return Status(envlp.src, envlp.tag, envlp.nbytes)

    # =====================================================================
    # fault tolerance (ULFM-style: revoke / shrink / agree)
    # =====================================================================
    @property
    def revoked(self) -> bool:
        """True once any rank has revoked this communicator."""
        return self._state.revoked

    def _revoked_error(self, what: str) -> MpiRevoked:
        exc = MpiRevoked(
            f"{self.name} is revoked "
            f"({self._state.revoke_reason}): {what} aborted")
        exc.injected = self._state.revoke_injected
        return exc

    def _known_failed_nodes(self) -> set:
        """The fault set as of now: ack-timeout detections made by any
        communicator plus a heartbeat sweep of the crash schedule."""
        state = self._state
        det = detector_of(self.env)
        if det is not None:
            det.sweep(self.env, state.group)
            for node in state.group:
                if node in det.failed_nodes:
                    state.failed_nodes.add(node)
        return set(state.failed_nodes)

    def failed_ranks(self) -> list[int]:
        """Ranks of this communicator known to have fail-stopped."""
        dead = self._known_failed_nodes()
        return [r for r, node in enumerate(self._state.group)
                if node in dead]

    def revoke(self, reason: str = "", injected: bool = False) -> None:
        """ULFM ``MPI_Comm_revoke``: poison the communicator for everyone.

        Propagation is modelled as an instantaneous reliable control
        broadcast: every rank blocked in a pending operation on this
        communicator wakes with :class:`MpiRevoked`, and every later
        point-to-point or collective call raises it immediately.
        ``shrink()`` and ``agree()`` keep working — reaching them is the
        entire point of revoking.  Idempotent; any rank may call it.
        """
        state, env = self._state, self.env
        if state.revoked:
            return
        state.revoked = True
        state.revoke_reason = reason or f"revoked by rank {self._rank}"
        state.revoke_injected = injected
        if env.metrics is not None:
            env.metrics.inc("ft.revokes")
        if env.monitor is not None:
            env.monitor.on_fault({"kind": "comm_revoked", "time": env.now,
                                  "comm": state.name, "by": self._rank,
                                  "reason": state.revoke_reason})
        for endpoint in state.endpoints:
            for posted in endpoint.pending_recv_list():
                # Marked matched so the matching tables drop the entry:
                # revocation consumed it, it is not a leak.
                posted.matched = True
                exc = self._revoked_error("pending recv")
                posted.completion.fail(exc)
                posted.completion._defused = True
            for envelope in endpoint.unmatched_envelope_list():
                cts = envelope.cts
                if cts is not None and not cts.triggered:
                    # Wake the rendezvous sender parked on clear-to-send;
                    # its chain (_SendChain._cleared) turns this into a
                    # failed (defused) request on the sender's side.
                    cts.fail(self._revoked_error("rendezvous"))
                    cts._defused = True
                envelope.matched = True

    def _consensus_delay(self, participants: int
                         ) -> Generator[Any, Any, None]:
        """Latency model of an all-survivor agreement round: a
        dissemination pattern of reliable control packets —
        ceil(log2(P)) wire rounds — plus the blocked-host wake-up."""
        fabric = self._state.cluster.fabric
        rounds = max(1, (max(participants, 1) - 1).bit_length())
        yield self.env.timeout(rounds * fabric.spec.control_time()
                               + self._sync_overhead)

    def shrink(self) -> Generator[Any, Any, "Communicator"]:
        """ULFM ``MPI_Comm_shrink``: return a communicator of survivors.

        Collective (ranks must call in matching order, like ``dup``) and
        usable on a revoked communicator.  The fault set of each shrink
        round is frozen by the first rank entering it — the internal
        consensus real ULFM runs — so every participant derives the same
        survivor group.  A rank whose own node is in the fault set
        raises :class:`MpiRankFailed`; survivors get a live, un-revoked
        communicator with compacted ranks.
        """
        state, env = self._state, self.env
        n = state._shrink_next[self._rank]
        state._shrink_next[self._rank] += 1
        dead = state._shrink_rounds.get(n)
        if dead is None:
            dead = tuple(sorted(self._known_failed_nodes()))
            state._shrink_rounds[n] = dead
        survivors = [node for node in state.group if node not in dead]
        yield from self._consensus_delay(len(survivors))
        my_node = state.node_id(self._rank)
        if my_node in dead:
            raise MpiRankFailed(
                f"{self.name}: this rank (r{self._rank}, node {my_node}) "
                "is in the agreed fault set and cannot join the shrunken "
                "communicator", rank=self._rank, node=my_node)
        child = state._shrink_states.get(n)
        if child is None:
            child = _CommState(env, state.cluster,
                               comm_id=state.comm_id * 1000 + 900 + n,
                               config=state.config,
                               name=f"{state.name}.shrink{n}",
                               group=survivors)
            state._shrink_states[n] = child
            if env.metrics is not None:
                env.metrics.inc("ft.shrinks")
            if env.monitor is not None:
                env.monitor.on_fault({"kind": "comm_shrunk", "time": env.now,
                                      "comm": state.name, "survivors": list(survivors),
                                      "failed_nodes": list(dead)})
        return Communicator(child, survivors.index(my_node))

    def agree(self) -> Generator[Any, Any, tuple]:
        """ULFM ``MPI_Comm_agree``: consensus on the fault set.

        Collective; works on revoked communicators.  Every rank of one
        agree round receives the identical frozen tuple of failed ranks,
        so survivors can base recovery decisions on shared knowledge
        rather than their private detector view.
        """
        state = self._state
        n = state._agree_next[self._rank]
        state._agree_next[self._rank] += 1
        dead = state._agree_rounds.get(n)
        if dead is None:
            dead = tuple(sorted(self._known_failed_nodes()))
            state._agree_rounds[n] = dead
        alive = sum(1 for node in state.group if node not in dead)
        yield from self._consensus_delay(alive)
        return tuple(r for r, node in enumerate(state.group)
                     if node in dead)

    def _collective(self, coro) -> Generator[Any, Any, Any]:
        """Run a collective body under ULFM error semantics.

        A fail-stop or injected delivery failure inside a collective
        poisons the *whole* round: the communicator is revoked, so every
        other participant — including third-party ranks blocked on a
        tree/ring neighbour that will never send — unblocks with
        :class:`MpiRevoked` instead of waiting forever.  Non-injected
        errors (argument validation and such) propagate unchanged.
        """
        state = self._state
        if state.revoked:
            raise self._revoked_error("collective")
        try:
            return (yield from coro)
        except MpiRevoked:
            raise
        except MpiError as exc:
            if isinstance(exc, MpiRankFailed) \
                    or getattr(exc, "injected", False):
                self.revoke(
                    reason=f"collective failed at r{self._rank}: {exc}",
                    injected=getattr(exc, "injected", False))
            raise

    # =====================================================================
    # collectives (delegating to repro.mpi.collectives)
    # =====================================================================
    def _coll_tag(self) -> int:
        """Per-rank collective sequence tag (ranks must call collectives
        in the same order, per the MPI standard)."""
        n = self._state._coll_seq[self._rank]
        self._state._coll_seq[self._rank] += 1
        return n

    def barrier(self):
        """Coroutine: dissemination barrier."""
        return self._collective(_coll.barrier(self))

    def bcast(self, buf, root: int = 0):
        """Coroutine: binomial-tree broadcast (in place in ``buf``)."""
        return self._collective(_coll.bcast(self, buf, root))

    def reduce(self, sendbuf, recvbuf, op: str = "sum", root: int = 0):
        """Coroutine: binomial-tree reduction to ``root``."""
        return self._collective(_coll.reduce(self, sendbuf, recvbuf, op,
                                             root))

    def allreduce(self, sendbuf, recvbuf, op: str = "sum"):
        """Coroutine: reduce + broadcast."""
        return self._collective(_coll.allreduce(self, sendbuf, recvbuf, op))

    def gather(self, sendbuf, recvbuf, root: int = 0):
        """Coroutine: gather equal-size blocks to ``root``."""
        return self._collective(_coll.gather(self, sendbuf, recvbuf, root))

    def scatter(self, sendbuf, recvbuf, root: int = 0):
        """Coroutine: scatter equal-size blocks from ``root``."""
        return self._collective(_coll.scatter(self, sendbuf, recvbuf, root))

    def allgather(self, sendbuf, recvbuf):
        """Coroutine: ring allgather."""
        return self._collective(_coll.allgather(self, sendbuf, recvbuf))

    def alltoall(self, sendbuf, recvbuf):
        """Coroutine: pairwise-exchange alltoall."""
        return self._collective(_coll.alltoall(self, sendbuf, recvbuf))

    def reduce_scatter(self, sendbuf, recvbuf, op: str = "sum"):
        """Coroutine: block reduce-scatter."""
        return self._collective(_coll.reduce_scatter(self, sendbuf, recvbuf,
                                                     op))

    def ibarrier(self):
        """Nonblocking barrier (MPI-3 style, §VI); returns a Request."""
        return _coll.nonblocking(self, self._collective(_coll.barrier(self)))

    def ibcast(self, buf, root: int = 0):
        """Nonblocking broadcast; returns a Request."""
        return _coll.nonblocking(
            self, self._collective(_coll.bcast(self, buf, root)))

    def iallreduce(self, sendbuf, recvbuf, op: str = "sum"):
        """Nonblocking allreduce; returns a Request."""
        return _coll.nonblocking(
            self, self._collective(_coll.allreduce(self, sendbuf, recvbuf,
                                                   op)))


# =========================================================================
# per-message chains (see repro.sim.Chain)
# =========================================================================
class _SendChain(FabricChain):
    """The sender side of one message.

    Eager: NIC initiation plus the staging copy, then the wire.
    Rendezvous: wait for clear-to-send, the CTS control packet back,
    then the wire straight out of the send buffer into the matched
    receive buffer.  While a fault injector is attached every wire
    attempt is acknowledged by a control packet from the receiver; a
    lost frame or ack costs a backoff from ``ack_timeout`` and a
    retransmission, until ``max_retries`` is spent or the peer is known
    dead (:meth:`Communicator._fail_send`).
    """

    __slots__ = ("comm", "envelope", "completion", "_attempt", "_delay")

    def __init__(self, comm: Communicator, envelope: Envelope,
                 completion: Event, rate_limit: Optional[float],
                 name: str):
        # FabricChain.__init__ inlined (one chain per message)
        fabric = comm._state.cluster.fabric
        self.env = fabric.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = PENDING
        self._defused = False
        self.name = name
        self.fabric = fabric
        self.fate = "ok"
        self.comm = comm
        self.envelope = envelope
        self.completion = completion
        self._rate = rate_limit
        self._boot(_SendChain._started)

    def _started(self, event: Event) -> Next:
        comm, envelope, env = self.comm, self.envelope, self.env
        state = comm._state
        self._src = state.node_id(envelope.src)
        self._dst = state.node_id(envelope.dst)
        if envelope.protocol == "eager":
            if envelope.is_object:
                overhead = self.fabric.spec.nic.per_message_overhead
            else:
                # NIC initiation + staging copy into the eager buffer:
                # one fused delay (nothing observes the boundary).
                overhead = comm._cluster_spec.eager_stage_time(
                    envelope.nbytes)
            return env.timeout(overhead), _SendChain._staged
        return envelope.cts, _SendChain._cleared

    def _staged(self, event: Event) -> Next:
        return self._transmit(f"eager t{self.envelope.tag}"
                              if self.env.tracer is not None else "eager")

    def _cleared(self, event: Event) -> Next:
        """Clear-to-send from the receiver (or its poisoning)."""
        if not event._ok:
            exc = event._value
            if not isinstance(exc, MpiError):
                raise exc
            # The handshake was poisoned (communicator revoked while
            # this sender was parked waiting for the receiver).
            self.comm._abort_send(self.envelope, self.completion, exc)
            return None
        return self._control(self._dst, self._src, _SendChain._handshaken)

    def _handshaken(self, event: Event) -> Next:
        envelope = self.envelope
        recv_rate = envelope.recv_rate
        if recv_rate is not None:
            rate = self._rate
            self._rate = recv_rate if rate is None else min(rate, recv_rate)
        return self._transmit(f"rndv t{envelope.tag}"
                              if self.env.tracer is not None else "rndv")

    def _transmit(self, label: str) -> Next:
        if self.env.faults is None:
            then = _SendChain._delivered
        else:
            self._attempt = 0
            self._delay = self.comm._state.config.ack_timeout
            then = _SendChain._checked
        envelope = self.envelope
        return self._wire(self._src, self._dst, envelope.nbytes, label,
                          self._rate, envelope.flow, then)

    def _checked(self, event: Event) -> Next:
        """One wire attempt landed (fault injection active)."""
        fate = self.fate
        if fate != "ok":
            self.envelope.retries = self._attempt + 1
            return self._retry(fate)
        # the receiver acknowledges with a control packet
        return self._control(self._dst, self._src, _SendChain._acked)

    def _acked(self, event: Event) -> Next:
        fate = self.fate
        if fate == "ok":
            self.envelope.retries = self._attempt
            metrics = self.env.metrics
            if metrics is not None:
                metrics.inc("mpi.acks")
            return self._delivered(event)
        # a lost ack looks exactly like a lost frame
        self.envelope.retries = self._attempt + 1
        return self._retry(fate)

    def _retry(self, fate: str) -> Next:
        """Back off and retransmit, or give up."""
        cfg = self.comm._state.config
        if fate == "dead" or self._attempt >= cfg.max_retries:
            # retries spent, or a fail-stop peer that retransmission
            # cannot reach
            self.envelope.last_fate = fate
            self.comm._fail_send(self.envelope, self.completion)
            return None
        self._attempt += 1
        metrics = self.env.metrics
        if metrics is not None:
            metrics.inc("mpi.backoffs")
            metrics.inc("mpi.retransmits")
        delay = self._delay
        self._delay = delay * cfg.retry_backoff
        return self.env.timeout(delay), _SendChain._resend

    def _resend(self, event: Event) -> Next:
        return self._wire(self._src, self._dst, self._nbytes, self._label,
                          self._rate, self._flow, _SendChain._checked)

    def _delivered(self, event: Event) -> Next:
        envelope = self.envelope
        if envelope.protocol != "eager":
            # zero-copy deposit into the matched receive buffer
            dst_buf = envelope.recv_buf
            if dst_buf is not None and envelope.payload is not None:
                Communicator._deposit(envelope.payload, dst_buf)
        envelope.arrived.succeed()
        self.completion.succeed()
        return None


class _RecvChain(Chain):
    """The receiver side of one matched message.

    Rendezvous: fire clear-to-send, then wait for the payload.  Eager:
    wait for the payload; if it was already buffered at the receiver
    when the receive got matched, draining it costs an extra copy.
    A sender-side delivery failure fails the receive request.
    """

    __slots__ = ("comm", "envelope", "posted", "_unexpected", "_buffered",
                 "_drained")

    def __init__(self, comm: Communicator, envelope: Envelope,
                 posted: PostedRecv, unexpected: bool, name: str):
        # Chain.__init__ inlined (one chain per message)
        self.env = comm._state.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = PENDING
        self._defused = False
        self.name = name
        self.comm = comm
        self.envelope = envelope
        self.posted = posted
        self._unexpected = unexpected
        self._boot(_RecvChain._started)

    def _started(self, event: Event) -> Next:
        envelope, posted = self.envelope, self.posted
        posted.flow = envelope.flow  # receiver-side stages join the chain
        if envelope.protocol == "eager":
            self._buffered = self._unexpected and envelope.arrived.triggered
        else:
            envelope.recv_buf = posted.buf
            envelope.recv_rate = posted.rate_limit
            envelope.cts.succeed()
        return envelope.arrived, _RecvChain._arrived

    def _arrived(self, event: Event) -> Next:
        if not event._ok:
            exc = event._value
            if not isinstance(exc, MpiError):
                raise exc
            self.comm._fail_recv(self.posted, exc)
            return None
        envelope, env = self.envelope, self.env
        if envelope.protocol == "eager" and not envelope.is_object:
            self._drained = env.now
            if self._buffered:
                state = self.comm._state
                node = state.cluster[state.node_id(envelope.dst)]
                return (env.timeout(
                    node.host.spec.memcpy_time(envelope.nbytes)),
                    _RecvChain._copied)
            return self._copied(event)
        status = Status(envelope.src, envelope.tag, envelope.nbytes)
        self.comm._trace_recv(envelope, env.now, env.now)
        self.posted.completion.succeed(
            (envelope.payload, status) if envelope.is_object else status)
        return None

    def _copied(self, event: Event) -> Next:
        envelope, posted = self.envelope, self.posted
        if posted.buf is not None and envelope.payload is not None:
            Communicator._deposit(envelope.payload, posted.buf)
        self.comm._trace_recv(envelope, self._drained, self.env.now)
        posted.completion.succeed(
            Status(envelope.src, envelope.tag, envelope.nbytes))
        return None
