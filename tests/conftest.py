"""Shared pytest hooks.

The acceptance tests register one verdict line each; replaying them in
the terminal summary keeps the lines visible even though output capture
swallows prints made while a test is running.  ``stack_positions`` is
the one way the tests place a stack's layers.
"""

from pfc.geodesic import positions_from_steps, step_length

VERDICT_LINES = []


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def stack_positions(stack):
    """Positions on [0, 1] of a tuple of feature sets, one per layer: each
    consecutive pair's ``step_length``, placed by ``positions_from_steps``."""
    return positions_from_steps([step_length(a, b) for a, b in zip(stack, stack[1:])])
