from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None,
                          derandomize=True)
settings.load_profile("suite")
