from ..core import ProtocolDriver


def main():
    return ProtocolDriver()


def simulate():
    from ..core import OptimisticProcess
    return OptimisticProcess()
