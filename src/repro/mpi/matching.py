"""Message-envelope matching: posted receives vs. arrived envelopes.

Matching follows the MPI rules: a receive posted with ``(source, tag)``
(either may be a wildcard) matches the *earliest* envelope in arrival
order whose ``(src, tag)`` fits; envelopes from the same sender on the
same communicator never overtake each other because senders register
their envelopes in program order and both queues are FIFO.

Two matching regimes share this module:

* **Immediate** (:meth:`Endpoint.deliver` / :meth:`Endpoint.post`) —
  the default.  Registration order *is* the DES program order, so the
  single schedule the simulator happens to produce fixes every match.
* **Deferred** (:meth:`Endpoint.defer_envelope` /
  :meth:`Endpoint.defer_recv` / :meth:`Endpoint.resolve`) — active
  while a schedule policy is attached to the environment (see
  :mod:`repro.analysis.verify`).  Registrations at one virtual instant
  are collected first and matched in a LOW-priority *flush round*, so a
  wildcard receive sees its complete candidate set (the earliest
  matchable envelope per source, preserving non-overtaking) and the
  policy picks which sender wins.  Choice index 0 reproduces the
  immediate regime's arrival-order match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.mpi.status import ANY_SOURCE, ANY_TAG
from repro.sim import Event

__all__ = ["Envelope", "PostedRecv", "Endpoint"]


@dataclass(slots=True)
class Envelope:
    """Metadata of one in-flight message (one per send operation)."""

    src: int
    dst: int
    tag: int
    comm_id: int
    nbytes: int
    seq: int
    #: 'eager' (payload pushed immediately) or 'rndv' (handshake first)
    protocol: str
    #: True when the payload is a Python object rather than a byte buffer
    is_object: bool = False
    #: eager: staged payload copy; rndv: live reference to the send buffer
    payload: Any = None
    #: fires when the payload has physically arrived at the receiver
    arrived: Optional[Event] = None
    #: rndv only: receiver fires this once matched (clear-to-send)
    cts: Optional[Event] = None
    #: set once matched to a posted receive
    matched: bool = False
    #: retransmissions spent delivering the payload (fault injection)
    retries: int = 0
    #: fate of the last wire attempt ("ok" unless delivery gave up)
    last_fate: str = "ok"
    #: causal-chain id carried across the wire (0 = unlinked; see
    #: :class:`repro.sim.trace.TraceRecord`)
    flow: int = 0
    #: endpoint registration stamp (deferred matching only): envelopes
    #: stamped before the receive they match were "unexpected" arrivals
    order: int = 0
    #: rndv only: the matched receive's byte view and its streaming cap,
    #: handed to the sender with clear-to-send
    recv_buf: Optional[np.ndarray] = None
    recv_rate: Optional[float] = None

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope satisfy a receive for ``(source, tag)``?"""
        return ((source == ANY_SOURCE or source == self.src)
                and (tag == ANY_TAG or tag == self.tag))


@dataclass(slots=True)
class PostedRecv:
    """One posted (pending) receive."""

    source: int
    tag: int
    #: destination byte view, or None for object receives
    buf: Optional[np.ndarray]
    #: fires with the Status (or ``(obj, Status)`` for object receives)
    completion: Event = None  # type: ignore[assignment]
    matched: bool = False
    #: True when posted via the object API
    is_object: bool = False
    #: receiver-side streaming cap (bytes/s), piggybacked to the sender on
    #: the rendezvous clear-to-send (models e.g. a NIC writing into mapped
    #: device memory over PCIe)
    rate_limit: Optional[float] = None
    #: causal-chain id copied from the matched envelope, so receiver-side
    #: stages (e.g. the pipelined engine's h2d drain) can join the chain
    flow: int = 0
    #: endpoint registration stamp (deferred matching only)
    order: int = 0


class Endpoint:
    """Per-(communicator, rank) matching state.

    ``name`` labels the endpoint's choice points in serialized
    schedules (``match:<comm>:r<rank>#<n>``); it is only consulted when
    a schedule policy is attached.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._arrivals: deque[Envelope] = deque()
        self._posted: deque[PostedRecv] = deque()
        self._probers: list[tuple[int, int, Event]] = []
        # -- deferred-matching state (schedule policy attached) -----------
        #: True while a flush round is queued for this endpoint
        self.flush_pending = False
        self._stamp = 0
        self._match_no = 0

    # -- introspection (used by tests and repro.analysis) ------------------
    @property
    def unmatched_envelopes(self) -> int:
        return sum(1 for e in self._arrivals if not e.matched)

    @property
    def pending_recvs(self) -> int:
        return sum(1 for p in self._posted if not p.matched)

    def unmatched_envelope_list(self) -> list[Envelope]:
        """The arrived-but-unreceived envelopes (sanitizer ground truth)."""
        return [e for e in self._arrivals if not e.matched]

    def pending_recv_list(self) -> list[PostedRecv]:
        """The posted-but-unmatched receives (sanitizer ground truth)."""
        return [p for p in self._posted if not p.matched]

    # -- matching -----------------------------------------------------------
    def deliver(self, env: Envelope) -> Optional[PostedRecv]:
        """Register an envelope; return the posted recv it matches, if any."""
        self._gc()
        for posted in self._posted:
            if not posted.matched and env.matches(posted.source, posted.tag):
                posted.matched = True
                env.matched = True
                self._wake_probers(env)
                return posted
        self._arrivals.append(env)
        self._wake_probers(env)
        return None

    def post(self, recv: PostedRecv) -> Optional[Envelope]:
        """Register a receive; return the envelope it matches, if any."""
        self._gc()
        for env in self._arrivals:
            if not env.matched and env.matches(recv.source, recv.tag):
                env.matched = True
                recv.matched = True
                return env
        self._posted.append(recv)
        return None

    # -- deferred matching (schedule policy attached) -----------------------
    def defer_envelope(self, env: Envelope) -> None:
        """Register an envelope without matching it (flush rounds match).

        Probers are woken immediately: a message is *announced* the
        moment it is registered in both regimes.
        """
        self._stamp += 1
        env.order = self._stamp
        self._arrivals.append(env)
        self._wake_probers(env)

    def defer_recv(self, recv: PostedRecv) -> None:
        """Register a receive without matching it (flush rounds match)."""
        self._stamp += 1
        recv.order = self._stamp
        self._posted.append(recv)

    def _candidates(self, recv: PostedRecv) -> list[Envelope]:
        """Matchable envelopes for ``recv``, earliest per source.

        Non-overtaking: within one source only the earliest matchable
        envelope is eligible; an earlier envelope with a *different* tag
        does not block a later matching one (MPI matches per
        ``(src, tag)`` stream, not per link).
        """
        out: list[Envelope] = []
        taken: set[int] = set()
        for env in self._arrivals:
            if env.matched or env.src in taken:
                continue
            if env.matches(recv.source, recv.tag):
                out.append(env)
                taken.add(env.src)
        return out

    def resolve(self, policy) -> list[tuple[Envelope, PostedRecv, bool]]:
        """One deferred-matching round: match posted receives in posted
        order against the current arrival set.

        A receive with several matchable senders is a *choice point*:
        the policy picks the winning envelope (index 0 = arrival order,
        i.e. what :meth:`deliver`/:meth:`post` would have produced).
        Returns ``(envelope, posted, unexpected)`` triples for the comm
        layer to complete; ``unexpected`` is True when the envelope was
        registered before the receive (buffered eager data costs an
        extra copy).
        """
        out: list[tuple[Envelope, PostedRecv, bool]] = []
        while True:
            self._gc()
            pair = None
            for recv in self._posted:
                if recv.matched:
                    continue
                cands = self._candidates(recv)
                if not cands:
                    continue
                if len(cands) == 1 or policy is None:
                    chosen = cands[0]
                else:
                    self._match_no += 1
                    point = f"match:{self.name}#{self._match_no}"
                    labels = [f"r{e.src}->r{e.dst} tag={e.tag} "
                              f"seq={e.seq} {e.nbytes}B" for e in cands]
                    chosen = cands[policy.choose(point, labels, "match")]
                chosen.matched = True
                recv.matched = True
                pair = (chosen, recv, chosen.order < recv.order)
                break
            if pair is None:
                return out
            out.append(pair)

    # -- probe support ---------------------------------------------------------
    def find_envelope(self, source: int, tag: int) -> Optional[Envelope]:
        """First unmatched envelope matching ``(source, tag)``, if any."""
        for env in self._arrivals:
            if not env.matched and env.matches(source, tag):
                return env
        return None

    def add_prober(self, source: int, tag: int, event: Event) -> None:
        """Wake ``event`` when a matching envelope becomes visible."""
        self._probers.append((source, tag, event))

    def _wake_probers(self, env: Envelope) -> None:
        if not self._probers:
            return
        remaining = []
        for source, tag, event in self._probers:
            if not event.triggered and env.matches(source, tag):
                event.succeed(env)
            elif not event.triggered:
                remaining.append((source, tag, event))
        self._probers = remaining

    # -- housekeeping --------------------------------------------------------------
    def _gc(self) -> None:
        while self._arrivals and self._arrivals[0].matched:
            self._arrivals.popleft()
        while self._posted and self._posted[0].matched:
            self._posted.popleft()
