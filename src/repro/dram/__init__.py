"""DDR3 DRAM timing, bank/row-buffer, scheduling and energy models.

Two instances of this model back every simulation, exactly as the paper
uses two separately configured DRAMSim2 instances (Section 5.4): one for
the off-chip DDR3-1600 channels and one for the die-stacked DDR3-3200
channels reached over TSVs.
"""

from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import Bank, RowBufferPolicy, RowOutcome
from repro.dram.controller import DramAccessResult, MemoryController
from repro.dram.energy import DramEnergyCounters, DramEnergyModel
from repro.dram.timing import DramTiming, OFF_CHIP_DDR3_1600, STACKED_DDR3_3200

__all__ = [
    "AddressMapping",
    "Bank",
    "RowBufferPolicy",
    "RowOutcome",
    "DramAccessResult",
    "MemoryController",
    "DramEnergyCounters",
    "DramEnergyModel",
    "DramTiming",
    "OFF_CHIP_DDR3_1600",
    "STACKED_DDR3_3200",
]
