"""Message transport over the simulated torus fabric."""

from .fabric import Fabric

__all__ = ["Fabric"]
