WIRE_VERSION = 3
ACCEPTED_WIRE_VERSIONS = (2, 4)


def check(data):
    if data.get("v") != WIRE_VERSION:
        raise ValueError(data)
