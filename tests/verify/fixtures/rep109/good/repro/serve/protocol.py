def _ws_accept(key):
    return key
