from .scheduler import Scheduler


def _ws_accept(key):
    return key


def serve():
    return Scheduler()
