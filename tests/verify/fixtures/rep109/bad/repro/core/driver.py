class ProtocolDriver:
    pass
