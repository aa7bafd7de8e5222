"""Shared error hierarchy, and the bound on listings of exponential size.

Every diagnosable failure is a TopactError subclass carrying the offending
data as attributes, so callers (and the CLI) can render witnesses without
string parsing; a cap raises CapExceeded with what it bounds and the count
reached.  MAX_LISTING bounds each listing exponential in its input: the open
sets, the unions of the action topology's classes, the powerset action.
"""

MAX_LISTING = 1 << 16


class TopactError(Exception):
    """Base class for all engine errors."""


class InternalCheckError(TopactError):
    """A fact the engine relies on was found false.

    It is raised where a function's answer is itself such a check, where a
    lookup that must succeed fails, and at the end of a validator's failure
    path.  Every construction runs once per call: the facts its docstring
    proves are asserted by the tests, not re-checked here.  Either the
    engine has a bug or an invalid object slipped past validation; never
    catch this to continue.
    """


class CapExceeded(TopactError):
    def __init__(self, what: str, count: int):
        super().__init__(f"{what}: cap exceeded at {count}")
        self.what = what
        self.count = count
