"""Fabric-wide slot clock (DESIGN §13).

``FabricSlotDriver`` coalesces per-switch kernel slot events into one
wave event per slot; ``Network(fabric_slot_driver=True)`` turns it on.
"""

from repro.fastpath.driver import FabricSlotDriver

__all__ = ["FabricSlotDriver"]
