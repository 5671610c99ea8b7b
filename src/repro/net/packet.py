"""Packet representation.

Simulated packets carry just enough header structure to express what the
paper's data plane does: IP/UDP/TCP endpoints, an IP identification field
(used by the controller's uplink de-duplication), and a stack of
encapsulation layers for the AP<->controller tunnel.

A WGTT downlink packet is one object from the server to the client: the
controller's multicast hands the same packet to every in-range AP (the
backhaul charges each hop the tunnel header), so every AP's ring holds
the same ``uid`` and ``wgtt_index``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = ["Packet", "TUNNEL_HEADER_BYTES", "IP_HEADER_BYTES", "UDP_HEADER_BYTES", "TCP_HEADER_BYTES"]

IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20
#: Outer 802.3 + IP + UDP encapsulation used for controller<->AP tunneling.
TUNNEL_HEADER_BYTES = 14 + IP_HEADER_BYTES + UDP_HEADER_BYTES

_ip_id_counter = itertools.count(1)
_packet_uid = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """One simulated packet.

    Attributes
    ----------
    size_bytes:
        Total on-the-wire size including transport/IP headers (but not
        802.11 MAC framing, which the MAC layer accounts for separately).
    src / dst:
        Node ids of the transport endpoints (server, client).
    protocol:
        ``"udp"``, ``"tcp"``, ``"ctrl"``, ``"csi"``, ``"mgmt"`` ...
    flow_id:
        Transport flow the packet belongs to.
    seq:
        Transport-level sequence number (segment index for UDP, first byte
        offset for TCP).
    ip_id:
        IP identification field; with ``src`` it forms the 48-bit
        de-duplication key of section 3.2.2.
    payload:
        Protocol-specific metadata (e.g. TCP segment descriptor).
    tunnel:
        Stack of (outer_src, outer_dst) encapsulation layers (uplink and
        baseline downlink tunnels; the WGTT multicast adds none).
    """

    size_bytes: int
    src: int
    dst: int
    protocol: str = "udp"
    flow_id: int = 0
    seq: int = 0
    created_at: float = 0.0
    ip_id: int = field(default_factory=lambda: next(_ip_id_counter) & 0xFFFF)
    uid: int = field(default_factory=lambda: next(_packet_uid))
    payload: Any = None
    tunnel: List[Tuple[int, int]] = field(default_factory=list)
    #: WGTT 12-bit per-client downlink index, assigned by the controller.
    wgtt_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")

    # ------------------------------------------------------------- tunneling
    def encapsulate(self, outer_src: int, outer_dst: int) -> "Packet":
        """Wrap the packet for backhaul transport (section 3.1.3 / 3.2.2).

        Mutates and returns self; the tunnel header adds
        :data:`TUNNEL_HEADER_BYTES` to the wire size.
        """
        self.tunnel.append((outer_src, outer_dst))
        self.size_bytes += TUNNEL_HEADER_BYTES
        return self

    def decapsulate(self) -> Tuple[int, int]:
        """Strip the outermost tunnel layer, returning (outer_src, outer_dst)."""
        if not self.tunnel:
            raise ValueError("packet is not encapsulated")
        self.size_bytes -= TUNNEL_HEADER_BYTES
        return self.tunnel.pop()

    @property
    def is_tunneled(self) -> bool:
        return bool(self.tunnel)

    # ---------------------------------------------------------------- dedup
    def dedup_key(self) -> int:
        """48-bit key: 32-bit source address (node id) + 16-bit IP id."""
        return ((self.src & 0xFFFFFFFF) << 16) | (self.ip_id & 0xFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        idx = f" idx={self.wgtt_index}" if self.wgtt_index is not None else ""
        return (
            f"<Packet {self.protocol} {self.src}->{self.dst} seq={self.seq} "
            f"{self.size_bytes}B{idx}>"
        )
