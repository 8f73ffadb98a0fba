"""The knob tables in docs/*.md name real ``SwimConfig`` fields and defaults.

A knob table is a Markdown table whose second header cell is
``Default``; each of its rows reads ``| `field` | default | meaning |``.
"""

import ast
import dataclasses
from pathlib import Path

from repro.config import SwimConfig

ROOT = Path(__file__).resolve().parents[1]
DEFAULTS = {field.name: field.default for field in dataclasses.fields(SwimConfig)}


def _cells(line):
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def knob_rows():
    """``(doc name, field, documented default)`` for every knob-table row."""
    rows = []
    for path in sorted((ROOT / "docs").glob("*.md")):
        in_knob_table = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.startswith("|"):
                in_knob_table = False
                continue
            cells = _cells(line)
            if len(cells) > 1 and cells[1].lower() == "default":
                in_knob_table = True
            elif in_knob_table and cells[0].startswith("`"):
                rows.append((path.name, cells[0].strip("`"), cells[1].strip("`")))
    return rows


def _parse(text):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text  # a bare string such as an address


def test_knob_tables_match_swim_config():
    rows = knob_rows()
    assert {doc for doc, _, _ in rows} >= {
        "SYNC.md", "ZONES.md", "OPERATIONS.md", "FAULT_INJECTION.md"
    }
    wrong = [
        (doc, name, text, DEFAULTS.get(name, "<no such field>"))
        for doc, name, text in rows
        if name not in DEFAULTS or _parse(text) != DEFAULTS[name]
    ]
    assert wrong == []
