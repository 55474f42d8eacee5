"""Byte-identical CLI output: sha256 digests of stdout for fixed commands.

The digests pin the output of the JSON and text renderers; a change that
alters any byte of these outputs must update them on purpose.
"""

import hashlib

import pytest

from eqsurg.cli import main

GOLDEN = [
    ("census --max-p 60", "aff161387035ad899c293308a3c5e21e3de08baca2f5b1da3eaa0ef1c25e7bcc"),
    ("census --max-p 30 --format text",
     "ef33e5ea88c01815574db1e16fad3b06637d53fc53e277028680ba00c7bab636"),
    ("catalog s1xs2", "a3708e999e2c61015b8324579b5c2108708120db3c129879ce75d50faedfb568"),
    ("catalog rp3", "4d677c47209ccbcc138e002a5d179787b941e66b95a5ffd0cca10ab33178da01"),
    ("catalog typeA --p 7 --q 2",
     "ff88e71ee47e1b43b9f6314603805a1ab9326f595aa74bd04c055ffd058b5bf8"),
    ("lens --p 499 --q 1 --variant C",
     "22bd298e600529b72ed587298b39e1b755da32c8b1e04c5b435f265c65b9665c"),
    ("lens --p 499 --q 1 --variant C'",
     "f5c4615fc2d2bab553ca6f94f4b2419c4337e47f7e764ef34b577788b83cd23f"),
    ("lens --p 29 --q 28 --variant C'",
     "9f3c88634ce6276c60a4f28547efe497ca30eadd01a3ec0a21b1d5ff2b1fa149"),
    ("lens --p 2 --q 1 --format text",
     "82953f153bc33ab58c48c914572f44b5b4e96be8dfb41768f9af063eaa0369d9"),
    ("lens --p 4 --q 3 --format text",
     "0768bafa605e71ab8bf745b3cc434c466bc768bf61f4327ec671858abc23da89"),
    ("verify --relations", "edfd13c2963a4cf9114ec03e1167ad38bef6a932605bd4373143f2b865631d3f"),
    ("verify --word v[1,2,0,-1,3,1]^7 --genus 3",
     "70f020c33bb41938be6129f5b956402d81b9d52b4f062bcbfebc40ee730b81a1"),
    ("factor-palindrome --curves (a-b)^-2",
     "c317cf540b9ced9b7381728c27450380dba3afc846d8ef987317e354ebaaf812"),
    ("census --max-p 500", "d0b18b67552eda11e62078beab2d9fe17a4bd3a23c56d6be7e9ee0d5368135b6"),
    ("lens --p 499 --q 498 --variant C",
     "ad042b2f00ab4776f33061069205266fcfc38b75b47860b8cc6b6702fd9c7eb2"),
    ("lens --p 499 --q 498 --variant C'",
     "e9d08c6bebebdbcdc3a2ae43f8ae5513967bfd931ad0a539757602c2df9af268"),
    ("census --max-p 120 --format text",
     "3654d6c1387953210542eace00aea1e7ba719a89edfe2f7f1465be233ed6db3e"),
    # four pairs printed interleaved by level, and a level-0 run: three
    # copies of (a+b) for C, one (a-b) for C'
    ("lens --p 120 --q 71 --variant C --format text",
     "38f9794e564a41d7e953fa04ce0446512bdbe0920c4908f7915ede5e9189bb97"),
    ("lens --p 120 --q 71 --variant C' --format text",
     "ec04343a428ee0e7fbaceadfa7b241ed8cbbcd7fd11b2a02dffdaa8421cb4e49"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
