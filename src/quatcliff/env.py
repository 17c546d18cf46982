"""Strict parsing of the integer environment knobs (QUATCLIFF_WORKERS,
QUATCLIFF_DIM_CAP).  No other module reads the environment."""

import os


def env_int(name, default):
    """The positive integer in environment variable `name`, or `default`
    when it is unset or empty.  Any other value raises ValueError."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value
