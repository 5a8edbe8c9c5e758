"""Physical-address to (channel, bank, row) mapping.

The paper uses 2KB address interleaving across stacked channels for the
page-organised designs (so a whole page lands in one DRAM row of one
channel) and 64B interleaving for the block-based design (to maximise
DRAM-level parallelism in the absence of spatial locality) — Section 5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class AddressMapping:
    """Interleaved channel/bank/row decomposition of physical addresses.

    The decomposition, from least-significant bits upward, is::

        [interleave offset][channel][bank][row]

    i.e. consecutive ``interleave_bytes``-sized chunks rotate across
    channels, then across banks of the same channel, and the remaining high
    bits select the row.  ``row_bytes`` only affects which accesses share a
    row buffer (two addresses in the same bank whose chunk-aligned bases
    fall in the same ``row_bytes`` window map to the same row).
    """

    channels: int
    banks_per_channel: int
    row_bytes: int
    interleave_bytes: int

    def __post_init__(self) -> None:
        for name in ("channels", "banks_per_channel", "row_bytes", "interleave_bytes"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.row_bytes & (self.row_bytes - 1):
            raise ValueError("row_bytes must be a power of two")
        if self.interleave_bytes & (self.interleave_bytes - 1):
            raise ValueError("interleave_bytes must be a power of two")
        if self.interleave_bytes > self.row_bytes:
            raise ValueError("interleave unit cannot exceed the row size")

    def channel_of(self, address: int) -> int:
        """Channel index for ``address``."""
        return (address // self.interleave_bytes) % self.channels

    def bank_of(self, address: int) -> int:
        """Bank index (within its channel) for ``address``."""
        chunk = address // self.interleave_bytes // self.channels
        return chunk % self.banks_per_channel

    @property
    def chunks_per_row(self) -> int:
        """Interleave chunks a bank groups into one row."""
        return max(1, self.row_bytes // self.interleave_bytes)

    def row_of(self, address: int) -> int:
        """Row index (within its bank) for ``address``.

        Consecutive chunks that a bank receives are grouped into rows of
        :attr:`chunks_per_row` chunks.
        """
        chunk = address // self.interleave_bytes // self.channels
        return chunk // self.banks_per_channel // self.chunks_per_row

    def locate(self, address: int) -> Tuple[int, int, int]:
        """(channel, bank, row) triple for ``address``."""
        if address < 0:
            raise ValueError("address must be non-negative")
        return self.channel_of(address), self.bank_of(address), self.row_of(address)

    @staticmethod
    def page_interleaved(channels: int, banks_per_channel: int, page_bytes: int) -> "AddressMapping":
        """Mapping used by page-organised designs: a page maps to one row."""
        return AddressMapping(
            channels=channels,
            banks_per_channel=banks_per_channel,
            row_bytes=page_bytes,
            interleave_bytes=page_bytes,
        )

    @staticmethod
    def block_interleaved(
        channels: int, banks_per_channel: int, row_bytes: int, block_bytes: int = 64
    ) -> "AddressMapping":
        """Mapping used by the block-based design: 64B interleaving."""
        return AddressMapping(
            channels=channels,
            banks_per_channel=banks_per_channel,
            row_bytes=row_bytes,
            interleave_bytes=block_bytes,
        )
