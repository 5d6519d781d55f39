from dataclasses import dataclass

from .registry import PROTOCOLS

_LAZY = {"build_experiment": "runner"}


@dataclass
class ExperimentConfig:
    protocol: str = "optimistic"

    def known(self):
        return self.protocol in PROTOCOLS
