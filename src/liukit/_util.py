"""Small shared helpers: stable JSON."""
from __future__ import annotations

import json


def stable_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, fixed separators, newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
