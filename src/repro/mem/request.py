"""Memory request type shared by every level of the simulated hierarchy.

A request is what arrives at the DRAM cache: a physical address, the program
counter (PC) of the instruction that issued it, the access type, and the id
of the issuing core.  The paper's Footprint Cache needs the PC because its
predictor is indexed by ``PC & offset`` (Section 3.1); the paper notes that
the PC must be transferred with the request through the on-chip network
(Section 7, "Transfer of PC").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

BLOCK_SIZE = 64
"""Cache block size in bytes (64B throughout the paper)."""


class AccessType(enum.Enum):
    """Kind of memory access as seen by the DRAM cache."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        """True for writes (dirty-making accesses)."""
        return self is AccessType.WRITE


@dataclass(frozen=True)
class MemoryRequest:
    """A single memory access presented to a cache.

    Attributes
    ----------
    address:
        Physical byte address of the access.
    pc:
        Program counter of the issuing instruction.  Used by the footprint
        predictor; other designs ignore it.
    access_type:
        Read or write.
    core_id:
        Issuing core (0-15 for a 16-core pod).
    instruction_count:
        Number of instructions the issuing core retired since the previous
        memory request it sent to this level.  Lets the performance model
        reconstruct per-core instruction throughput from a filtered trace.
    """

    address: int
    pc: int = 0
    access_type: AccessType = AccessType.READ
    core_id: int = 0
    instruction_count: int = 1

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.instruction_count < 0:
            raise ValueError(
                f"instruction_count must be non-negative, got {self.instruction_count}"
            )

    @classmethod
    def fast(
        cls,
        address: int,
        pc: int = 0,
        access_type: AccessType = AccessType.READ,
        core_id: int = 0,
        instruction_count: int = 1,
    ) -> "MemoryRequest":
        """Validation-free constructor for the trace hot path.

        Skips ``__init__``/``__post_init__`` entirely: callers must
        guarantee ``address >= 0`` and ``instruction_count >= 0``, which
        the trace generators do by construction.  The returned request is
        indistinguishable from one built normally (same fields, equality,
        ``dataclasses.asdict``); only the per-request validation cost is
        gone, which matters because the generator and the reference
        loop's lazy view of a columnar trace build one object per request.
        """
        self = object.__new__(cls)
        d = self.__dict__
        d["address"] = address
        d["pc"] = pc
        d["access_type"] = access_type
        d["core_id"] = core_id
        d["instruction_count"] = instruction_count
        return self

    @property
    def is_write(self) -> bool:
        """True if this request modifies the block."""
        return self.access_type.is_write

    def block_address(self, block_size: int = BLOCK_SIZE) -> int:
        """Address rounded down to its containing block."""
        return block_address(self.address, block_size)

    def page_address(self, page_size: int) -> int:
        """Address rounded down to its containing page."""
        return page_address(self.address, page_size)

    def block_index_in_page(self, page_size: int, block_size: int = BLOCK_SIZE) -> int:
        """Index (0-based) of the accessed block within its page.

        This is the *offset* of the paper's ``PC & offset`` predictor index.
        """
        return page_offset(self.address, page_size, block_size)


def block_address(address: int, block_size: int = BLOCK_SIZE) -> int:
    """Round ``address`` down to the base of its 2^k-sized block."""
    _require_power_of_two(block_size, "block_size")
    return address & ~(block_size - 1)


def page_address(address: int, page_size: int) -> int:
    """Round ``address`` down to the base of its 2^k-sized page."""
    _require_power_of_two(page_size, "page_size")
    return address & ~(page_size - 1)


def page_offset(address: int, page_size: int, block_size: int = BLOCK_SIZE) -> int:
    """Block index of ``address`` within its page (the paper's *offset*)."""
    _require_power_of_two(page_size, "page_size")
    _require_power_of_two(block_size, "block_size")
    if block_size > page_size:
        raise ValueError(
            f"block_size {block_size} cannot exceed page_size {page_size}"
        )
    return (address & (page_size - 1)) // block_size


def _require_power_of_two(value: int, name: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
