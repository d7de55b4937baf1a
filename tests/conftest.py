import re
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def quickstart() -> str:
    """The Python block under README's "Library quickstart" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"^## Library quickstart\n+```python\n(.*?)^```", readme, re.M | re.S)[1]
