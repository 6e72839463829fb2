"""Repository-level pytest configuration.

Ensures the ``src/`` layout is importable even when the package has not
been pip-installed (e.g. in a fully offline environment without the
``wheel`` build backend available).

It also turns an exception that kills a background thread (or escapes a
``__del__``) into a test error.  Without that, pytest only warns, and a
service test passes while, say, a shard server's connection thread dies
on every request and failover hides it.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    for warning in ("PytestUnhandledThreadExceptionWarning", "PytestUnraisableExceptionWarning"):
        config.addinivalue_line("filterwarnings", f"error::pytest.{warning}")
