"""1-D domain decomposition for the Himeno benchmark (Fig 3).

The global grid's interior i-rows are split contiguously across ranks;
each rank stores its slab plus two ghost planes (``local[0]`` and
``local[li+1]``).  Each slab is halved into portion **A** (lower half of
local interior rows) and **B** (upper half).

:meth:`Partition.schedule` states the A/B schedule every implementation
runs, once, for one rank or an array of ranks: while one portion
computes, the other portion's boundary row is exchanged with the
neighbour on its side.  :meth:`Partition.phases` reads one rank's
phases from it for the rank programs; the vectorized replay reads all
ranks' at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["Partition", "Phase", "TAG_UP", "TAG_DOWN"]

#: tag of halo rows travelling towards higher ranks (rank r's top interior
#: row -> rank r+1's lower ghost)
TAG_UP = 11
#: tag of halo rows travelling towards lower ranks
TAG_DOWN = 12


@dataclass(frozen=True)
class Phase:
    """One half of a rank's iteration: compute one portion while the
    other portion's boundary row is exchanged with ``partner``."""

    label: str                   # kernel label, ``jacobi_A`` / ``jacobi_B``
    lo: int                      # computed local rows ``[lo, hi)``
    hi: int
    partner: Optional[int]       # exchange neighbour, None at a boundary
    own_row: int                 # local row sent to ``partner``
    ghost_row: int               # local ghost row filled from ``partner``
    send_tag: int
    recv_tag: int


@dataclass(frozen=True)
class Partition:
    """Row partition of an ``(mi, mj, mk)`` grid over ``num_ranks``."""

    num_ranks: int
    mi: int
    mj: int
    mk: int

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ConfigurationError("need at least one rank")
        interior = self.mi - 2
        if interior // self.num_ranks < 2:
            raise ConfigurationError(
                f"{interior} interior rows over {self.num_ranks} ranks "
                "leaves less than 2 rows per rank (A/B split impossible)")

    @property
    def interior_rows(self) -> int:
        return self.mi - 2

    def local_rows(self, rank):
        """Number of interior rows owned by ``rank`` (an int, or an
        integer array of ranks)."""
        base, extra = divmod(self.interior_rows, self.num_ranks)
        return base + (rank < extra)

    def row_start(self, rank: int) -> int:
        """Global i-index of ``rank``'s ghost row 0.

        Local row ``l`` maps to global row ``row_start(rank) + l``; local
        interior row 1 is the rank's first owned global interior row.
        """
        base, extra = divmod(self.interior_rows, self.num_ranks)
        owned_before = rank * base + min(rank, extra)
        return owned_before  # ghost row sits just before the owned rows

    def schedule(self, rank):
        """The A/B schedule: ``((lo, hi, partner), (lo, hi, partner))``,
        one triple per phase in execution order.

        ``rank`` is an int or an integer array of ranks, and every entry
        is of the same kind.  Each phase computes local rows ``[lo, hi)``
        while exchanging with ``partner``; a partner outside ``[0,
        num_ranks)`` means the phase has no exchange (a boundary rank).
        A is rows ``[1, mid)`` and B rows ``[mid, li + 1)``.  Computing A
        overlaps B's top row going to the upper neighbour; computing B
        overlaps A's bottom row going to the lower one.  Even ranks run
        A first and odd ranks B first, so every exchange pairs ranks that
        reach it in the same phase: 2i with 2i+1 first, then 2i+1 with
        2i+2.
        """
        end = self.local_rows(rank) + 1
        mid = (end + 1) // 2
        a = (1, mid, rank + 1)
        b = (mid, end, rank - 1)
        odd = rank % 2

        def pick(x, y):             # x on even ranks, y on odd ones
            return x + odd * (y - x)

        return (tuple(pick(x, y) for x, y in zip(a, b)),
                tuple(pick(y, x) for x, y in zip(a, b)))

    def phases(self, rank: int) -> tuple[Phase, Phase]:
        """``rank``'s two phases of :meth:`schedule`, in execution order,
        with the rows and tags of each exchange."""
        li = self.local_rows(rank)
        # A sends B's top row up, B sends A's bottom row down
        moves = {rank + 1: ("jacobi_A", li, li + 1, TAG_UP, TAG_DOWN),
                 rank - 1: ("jacobi_B", 1, 0, TAG_DOWN, TAG_UP)}

        def phase(lo, hi, partner):
            label, own, ghost, send_tag, recv_tag = moves[partner]
            if not 0 <= partner < self.num_ranks:
                partner = None
            return Phase(label, lo, hi, partner, own, ghost, send_tag,
                         recv_tag)

        first, second = self.schedule(rank)
        return phase(*first), phase(*second)

    def plane_bytes(self) -> int:
        """Bytes of one halo plane (float32)."""
        return self.mj * self.mk * 4

    def local_shape(self, rank: int) -> tuple[int, int, int]:
        """Local array shape including the two ghost planes."""
        return (self.local_rows(rank) + 2, self.mj, self.mk)
