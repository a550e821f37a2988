"""Exception types shared across the package, and the physical-memory check
that every layer's size guard goes through."""

from __future__ import annotations

import os


class GatewayGameError(Exception):
    """Base class for all errors raised by this package."""


class DisconnectedGraph(GatewayGameError):
    """The input graph is not connected."""


class SelfLoop(GatewayGameError):
    """An edge joins a node to itself."""


class NodeIdOutOfRange(GatewayGameError):
    """An edge endpoint or node id is not in ``range(n)``."""


class StateSpaceTooLarge(GatewayGameError):
    """An exhaustive sweep over all profiles was requested for too many nodes,
    or its tables would not fit in physical memory."""


class ParameterOutOfRange(GatewayGameError):
    """A construction was asked for parameters outside its valid range."""


class GirthTooSmall(GatewayGameError):
    """The graph has a cycle shorter than the construction requires."""


class ConstructionNotEquilibrium(GatewayGameError):
    """A constructed profile failed its final equilibrium check."""


class ElementUncovered(GatewayGameError):
    """A set-cover instance leaves some element in no set."""


def check_memory(need: int, error: type[GatewayGameError], claim: str) -> None:
    """Raise ``error`` when ``need`` bytes exceed physical memory, with ``claim``
    leading the message.  Without ``sysconf`` nothing is refused."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise error(f"{claim} about {need} bytes, more than the {have} bytes of physical memory")
