"""Reading verification reports back, for round-trip checks in the tests."""

import json


def parse_report(text: str) -> dict:
    """Inverse of VerificationReport.serialize: the settings, notes, rows
    and the trailing `# key = value` lines of a report."""
    settings = {}
    notes = []
    rows = []
    tail = {}
    for line in text.splitlines():
        if line.startswith("# settings: "):
            settings = json.loads(line[len("# settings: "):])
        elif line.startswith("# note: "):
            notes.append(line[len("# note: "):])
        elif line.startswith("# ") and "=" in line:
            key, val = line[2:].split("=", 1)
            tail[key.strip()] = float(val)
        elif line and not line.startswith("#") and not line.startswith("angle,"):
            parts = line.split(",")
            rows.append((float(parts[0]), float(parts[1]), float(parts[2]),
                         float(parts[3]), bool(int(parts[4])),
                         bool(int(parts[5])), parts[6]))
    return {"settings": settings, "notes": notes, "rows": rows, **tail}
