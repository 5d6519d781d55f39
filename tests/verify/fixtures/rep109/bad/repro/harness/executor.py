def run_many(configs):
    return list(configs)
