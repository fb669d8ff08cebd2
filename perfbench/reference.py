"""Compare experiment reports with their recorded sections.

``EXPERIMENTS_OUTPUT.txt`` holds one section per experiment, each
under a ``==== <ID> :: <title> ====`` banner.  A fresh report must
equal its section after two normalisations:

* table rows are compared cell by cell (cells stripped of padding, so
  a wider number in one cell does not shift the whole table);
* timing figures are masked: the ``trials/s`` column, ``<n> trials/s``
  values and the ``speedup`` line.  Away from the reference seed, the
  seed-dependent success rates of ``e6`` and ``campaign`` are masked
  as well; every other field of those reports is still compared.
"""

from __future__ import annotations

import re
from pathlib import Path

MASK = "<masked>"

#: Table columns whose cells are wall-clock figures.
TIMING_COLUMNS = frozenset({"trials/s"})
#: Table columns whose cells depend on the experiment seed.
SEEDED_COLUMNS = frozenset({"blind success", "success rate"})
#: Key-value labels whose leading value depends on the experiment seed.
SEEDED_KEYS = ("full-address guess", "2-byte partial overwrite")

_BANNER = re.compile(r"^==== (\S+) :: .*$", re.M)
_RATE = re.compile(r"[0-9]+(?:\.[0-9]+)? trials/s")
_SPEEDUP = re.compile(r"^(\s*speedup\s*:\s*)[0-9.]+x\s*$")

#: The recorded E7 table predates the ``fig1_parsing`` victim.  The
#: row is inserted (after ``fig1_staged``) only while it is missing,
#: and every run reports that it did so.
E7_MISSING_ROW = ("| fig1_staged ",
                  "| fig1_parsing                 | compiles (bounds-checked)"
                  "                                              |")


def load_sections(path: Path) -> dict[str, str]:
    """Experiment id (lower case) -> recorded report text."""
    text = path.read_text()
    marks = list(_BANNER.finditer(text))
    sections = {}
    for mark, following in zip(marks, marks[1:] + [None]):
        end = following.start() if following is not None else len(text)
        sections[mark.group(1).lower()] = text[mark.end() + 1:end].strip("\n")
    return sections


def reference_drift(sections: dict[str, str]) -> list[str]:
    """Apply the known drift of the recording; returns what was done."""
    notes = []
    anchor, row = E7_MISSING_ROW
    lines = sections.get("e7", "").splitlines()
    if lines and row.split("|")[1].strip() not in sections["e7"]:
        for index, line in enumerate(lines):
            if line.startswith(anchor):
                lines.insert(index + 1, row)
                sections["e7"] = "\n".join(lines)
                notes.append("e7: recording lacks the fig1_parsing row of "
                             "table E7a; compared with the row inserted")
                break
    return notes


def canonical(text: str, *, seeded: bool = False) -> list[str]:
    """Normalised lines of a report, timing (and with ``seeded`` the
    seed-dependent) figures replaced by :data:`MASK`."""
    out = []
    header: list[str] | None = None
    for raw in text.strip("\n").splitlines():
        line = raw.rstrip()
        if line.startswith("+") and set(line) <= {"+", "-"}:
            out.append("+")
            continue
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if header is None:
                header = cells
            else:
                masked = set(TIMING_COLUMNS)
                if seeded:
                    masked |= SEEDED_COLUMNS
                cells = [MASK if column in masked else cell
                         for column, cell in zip(header, cells)]
            out.append("|" + "|".join(cells) + "|")
            continue
        header = None
        line = _RATE.sub(MASK + " trials/s", line)
        line = _SPEEDUP.sub(lambda m: m.group(1) + MASK, line)
        if seeded:
            label, sep, value = line.partition(":")
            if sep and label.strip() in SEEDED_KEYS:
                _figure, _, rest = value.strip().partition(" ")
                line = f"{label}{sep} {MASK} {rest}".rstrip()
        out.append(line)
    return out


def compare(report: str, recorded: str, *, seeded: bool = False) -> str | None:
    """None when ``report`` matches ``recorded``; else the first
    differing line pair."""
    got = canonical(report, seeded=seeded)
    want = canonical(recorded, seeded=seeded)
    for index, (mine, theirs) in enumerate(zip(got, want)):
        if mine != theirs:
            return f"line {index + 1}: got {mine!r}, recorded {theirs!r}"
    if len(got) != len(want):
        return f"{len(got)} lines, recorded {len(want)}"
    return None
