WIRE_VERSION = 2
ACCEPTED_WIRE_VERSIONS = (2,)


def check(data):
    if data.get("v") not in ACCEPTED_WIRE_VERSIONS:
        raise ValueError(data)
