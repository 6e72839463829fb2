"""The example scripts must run end to end.

``examples/service_demo.py`` drives the public serving API (service,
client, concurrent replay, telemetry) the way a user would; running it
in a fresh interpreter catches a signature change the unit tests adapt
to but the example does not.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_service_demo_runs():
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / "service_demo.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Replayed" in result.stdout
