PROTOCOLS = {"optimistic": "repro.harness.runner:build_experiment"}
