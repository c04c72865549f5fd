"""Service cloaking at the data link layer, as a testable software model.

`frames`   -- byte-exact Ethernet/ARP/IPv4/ICMP codec
`knock`    -- sealed single-packet authorization payloads
`nic`      -- the cloaking NIC state machine (default-drop filter, ARP
              responder, knock validation, client knock generation)
`netsim`   -- deterministic broadcast-segment simulator with attacker models
`scenario` -- scenario file format and runner
`cli`      -- the `cloaknic` command
"""

from .frames import (
    ArpPacket,
    EthernetFrame,
    IcmpMessage,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TransportView,
    internet_checksum,
    make_arp,
    parse_frame,
    serialize_frame,
)
from .knock import (
    KnockFields,
    RejectReason,
    ReplayCache,
    SharedKey,
    open_knock,
    prf,
    seal_knock,
)
from .nic import Actions, CloakingNic, DropReason, FilterTable, ByteFifo, NicConfig
from .scenario import Scenario, parse_scenario, run_scenario, validate_scenario

__version__ = "0.1.0"
