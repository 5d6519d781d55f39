from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .driver import ProtocolDriver
    from .host import OptimisticProcess

_LAZY = {
    "ProtocolDriver": "driver",
    "OptimisticProcess": "host",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = ["OptimisticProcess", "ProtocolDriver"]
