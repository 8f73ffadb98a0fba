"""Every metric family the package can register is documented."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_FAMILY = re.compile(r'"(lifeguard_[a-z0-9_]+)"')


def test_every_registered_family_appears_in_the_docs():
    families = {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in _FAMILY.findall(path.read_text(encoding="utf-8"))
    }
    assert len(families) > 50  # the scan still finds the declarations
    docs = "".join(
        path.read_text(encoding="utf-8") for path in (ROOT / "docs").glob("*.md")
    )
    documented = set(re.findall(r"lifeguard_[a-z0-9_]+", docs))
    assert sorted(families - documented) == []
