"""What a run takes from its environment: strict parsing of the integer
knobs (QUATCLIFF_WORKERS, QUATCLIFF_DIM_CAP), and the worker processes.
No other module reads the environment or starts a process."""

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


def parallel_map(fn, jobs, workers):
    """[fn(job) for job in jobs], in job order.

    With more than one worker and more than one job the calls run in a
    pool of at most `workers` processes (the platform's default start
    method), so `fn` and the jobs must pickle; otherwise they run in this
    process.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))
