"""Regenerate search_table.json with the benchmark's own solver.

    python3 bench/make_search_table.py

The table lists, for every search instance the benchmark can draw
(balls of at most 24 points, D in 1..4, B in 1..8), the smallest number of
families of a (D, B)-cover, or null when more than four are needed.  It is
computed from reference.py alone, never by the package under test.
"""

from __future__ import annotations

import json

from reference import SEARCH_TABLE, ball_points, distance_table, min_families

SEARCH_BALLS = (
    [("FreeAbelian", 1, r) for r in range(1, 12)]
    + [("FreeAbelian", 2, r) for r in (1, 2)]
    + [("FreeAbelian", 3, 1)]
    + [("FreeGroup", 1, r) for r in range(1, 12)]
    + [("FreeGroup", 2, r) for r in (1, 2)]
    + [("Heisenberg3", 0, r) for r in (1, 2)]
)
SEARCH_D = range(1, 5)
SEARCH_B = range(1, 9)


def build_rows() -> list[list]:
    rows = []
    for family, rank, r in SEARCH_BALLS:
        dist = distance_table(family, ball_points(family, rank, r))
        for D in SEARCH_D:
            for B in SEARCH_B:
                rows.append([family, rank, r, D, B, min_families(dist, D, B)])
    return rows


if __name__ == "__main__":
    rows = build_rows()
    note = "minimal family count k <= 4 per (family, rank, radius, D, B); null means more than 4"
    body = ",\n".join(json.dumps(row) for row in rows)
    SEARCH_TABLE.write_text(f'{{"note": {json.dumps(note)},\n"rows": [\n{body}\n]}}\n')
    print(f"wrote {SEARCH_TABLE} ({len(rows)} rows)")
