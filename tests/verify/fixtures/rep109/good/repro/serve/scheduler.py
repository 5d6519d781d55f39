import threading


class Scheduler:
    lock = threading.Lock()

    def sweep(self, configs):
        from ..harness.executor import run_many
        return run_many(configs)
