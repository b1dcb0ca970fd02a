"""The package's import cost: importing it loads no submodule."""

import subprocess
import sys


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, staircase_lab\n"
        "print(sorted(m for m in sys.modules if m.startswith('staircase_lab.')))\n"
        "from staircase_lab.hilbert import HilbertFunction\n"
        "print(sorted(m for m in sys.modules if m.startswith('staircase_lab.')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.splitlines() == ["[]", "['staircase_lab.errors', 'staircase_lab.hilbert']"]
