from ..core import ProtocolDriver


def main():
    return ProtocolDriver()
