import numpy as np


class OptimisticProcess:
    clock = np.float64(0.0)
