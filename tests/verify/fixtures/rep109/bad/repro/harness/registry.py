from .experiment import build_experiment

PROTOCOLS = {"optimistic": build_experiment}
