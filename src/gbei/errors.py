"""Shared exception types."""


class CapExceededError(ValueError):
    """An instance exceeds the configured size cap for an exhaustive stage."""
