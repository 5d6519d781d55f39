import threading

from ..harness.executor import run_many


class Scheduler:
    lock = threading.Lock()

    def sweep(self, configs):
        return run_many(configs)
