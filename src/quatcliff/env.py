"""What a run takes from its environment: strict parsing of the one
integer knob, QUATCLIFF_DIM_CAP.  No other module reads the environment,
and no module starts a process."""

import os


def env_int(name, default):
    """The positive integer in environment variable `name`, or `default`
    when it is unset or empty.  Only ASCII decimal digits are read (no
    sign, spaces, underscores or other scripts' digits); any other value
    raises ValueError."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # more digits than int() converts
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value
