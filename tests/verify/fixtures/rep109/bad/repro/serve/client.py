from .server import _ws_accept


def handshake(key):
    return _ws_accept(key)
