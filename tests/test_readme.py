"""The README's list of package-root exports names exactly `qdfit.__all__`."""

import re
from pathlib import Path

import qdfit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_export_list_matches_all():
    text = README.read_text(encoding="utf-8")
    start = text.index("The package root exports")
    sentence = re.split(r"\.\s", text[start:], maxsplit=1)[0]
    listed = re.findall(r"`(\w+)`", sentence)
    assert sorted(listed) == sorted(qdfit.__all__)
