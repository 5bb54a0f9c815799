"""O3CPU: the out-of-order superscalar CPU model and its structures."""

from .core import O3CPU
from .iq import FUPool, InstructionQueue
from .lsq import LSQ
from .rob import ROB

__all__ = ["FUPool", "InstructionQueue", "LSQ", "O3CPU", "ROB"]
