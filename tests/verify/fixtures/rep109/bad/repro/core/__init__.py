from .driver import ProtocolDriver
from .host import OptimisticProcess

__all__ = ["OptimisticProcess", "ProtocolDriver"]
