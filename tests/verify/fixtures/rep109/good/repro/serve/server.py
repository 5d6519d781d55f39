from .protocol import _ws_accept
from .scheduler import Scheduler


def serve(key):
    return Scheduler(), _ws_accept(key)
