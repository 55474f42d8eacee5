"""README "The paper's claims, traced": every command that the section
cites exits 0, and each field it cites holds the value it gives.

A citation reads `eqsurg ARGS` → `FIELD` VALUE, with more `FIELD` VALUE
pairs after a comma; FIELD is a dotted path into the JSON output (a
number indexes a list) and VALUE is JSON.
"""

import json
import re
import shlex
from pathlib import Path

from eqsurg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_DECODER = json.JSONDecoder()


def _section() -> str:
    text = README.read_text()
    start = text.index("## The paper's claims, traced\n")
    return text[start:text.index("\n## ", start + 1)]


def _citations(text: str):
    """(argv, [(field, value), ...]) for each `eqsurg ...` → citation."""
    for m in re.finditer(r"`eqsurg ([^`]+)` →", text):
        pairs, i = [], m.end()
        while True:
            field = re.compile(r" `([^`]+)` ").match(text, i)
            value, i = _DECODER.raw_decode(text, field.end())
            pairs.append((field.group(1), value))
            if not text.startswith(", `", i):
                break
            i += 1
        yield shlex.split(m.group(1)), pairs


def _field(doc, path: str):
    for key in path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def test_every_cited_command_shows_its_field(capsys):
    section = _section()
    rows = [line for line in section.splitlines() if line.startswith("| ") and "`eqsurg " in line]
    assert len(rows) == 5  # one per claim of the abstract
    outputs = {}
    cited = list(_citations(section))
    assert len(cited) == section.count("`eqsurg ")
    for argv, pairs in cited:
        key = tuple(argv)
        if key not in outputs:
            code = main(argv)
            outputs[key] = code, json.loads(capsys.readouterr().out)
        code, doc = outputs[key]
        assert code == 0, argv
        for field, value in pairs:
            # compared as JSON text, so that true is not 1
            assert json.dumps(_field(doc, field)) == json.dumps(value), (argv, field)
