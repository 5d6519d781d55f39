import numpy as np


def build_experiment(cfg):
    return np.zeros(3)
