"""The one exception type of sqdist."""


class SqDistError(Exception):
    """An input sqdist refuses; the message names the cause, and the CLI
    prints it as its `error:` line and exits 1."""
