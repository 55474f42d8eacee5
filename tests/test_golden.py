"""Byte-identical CLI output: sha256 digests of stdout for fixed commands.

The digests pin the output of the JSON and text renderers; a change that
alters any byte of these outputs must update them on purpose.
"""

import hashlib

import pytest

from eqsurg.cli import main
from eqsurg.lens import admissible_pairs, factor_C, factor_Cprime
from eqsurg.words import format_word

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
    # a text run of 999 copies and a flags list of 999 entries
    ("lens --p 1000 --q 1 --format text",
     "ee55922019b08449204a5ea68687759478adb45459c4a119a539c428e841c16b"),
    # the largest lens output allowed (--p at MAX_P): runs of about 10,000
    # copies of one shared knot document
    ("lens --p 10000 --q 1 --variant C",
     "062f01a1c08b054726f2f404597380dee4c045d3049c9f132ed3b6c01963e5d1"),
    ("lens --p 10000 --q 1 --variant C'",
     "620b8b343fd9f4484e406cf82489059ba2ede35d4a48537ddf1bfc907f48cc6c"),
    # words of about 1,000 factors; the C word is rewritten by the fix rule
    ("lens --p 998 --q 997 --variant C",
     "5065554d8e8a5fd973fe98184a9ce8b87589c52e175271c8a6c801df13f4db64"),
    ("lens --p 998 --q 997 --variant C'",
     "d61267e148bf8f31ee9c88f2db8e1d2a16f5d61d2bef92faca554a0f73c0eb08"),
    # the same words in text: about 500 pairs each, printed by level
    ("lens --p 998 --q 997 --variant C --format text",
     "b00ac89343d303d1a4d2231dd3c6ee8273874e50b0dc0d1d6dd25b71ad28b85a"),
    ("lens --p 998 --q 997 --variant C' --format text",
     "6687808730ad94aceaeb4b481571718e746bc72c3fce8d2ac8bdd004d2a65d7e"),
    ("verify --relations --format text",
     "34f288696affbf837358b2a5bb9578b1e54b6c0ba804e2905d11568ca5524a03"),
    # 984/655 = [2, 3, 2 x 107, 3, 2]: the middle cuts an odd run of 2s, so
    # the word's left half ends inside the run
    ("lens --p 984 --q 655 --variant C",
     "c6ec16291bd056d6fa5250c91a84ddc64217ba796ff2af8443fbbdaf42f9643b"),
    ("lens --p 984 --q 655 --variant C'",
     "ef613a3a7cb0aa8958060c79f87e84a3cc23ba584b50ebe740b64dba1bc37c19"),
    # the largest word allowed: 10,001 factors in three runs
    ("lens --p 10000 --q 9999 --variant C",
     "0ee4c40749e83adfe5e4d20a2b4da6aa83be2a8f216dc3ec259839219ff08569"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_word_over_cst_digest(capsys):
    # a genus-1 word over the standard base: the product with the base is
    # part of the printed matrix.  The word holds spaces, so argv is a list.
    assert main(["verify", "--word", "b^3 (a+b)^-2 a^5 | cst"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a5caf4bf56c440986cdc6dafbc82f101c3073e4de6de3c92d0e14871b7a0eec2")


# factor-palindrome at genus 2 and 3 over an involution read from a file:
# the block swap conjugated by two twists.  The digest covers stdout only,
# which does not name the file.
INVOLUTIONS = {
    2: "[[2,0,-1,0],[0,-2,0,-1],[3,0,-2,0],[0,3,0,2]]",
    3: "[[1,2,2,0,0,2],[0,-1,-2,0,0,-2],[0,-3,-3,2,-2,-2],"
       "[1,1,0,-1,0,0],[1,4,3,-2,1,3],[0,3,4,-2,2,3]]",
}
PALINDROMES = [
    (2, "v[1,0,1,0]^2 v[1,2,1,-6]^-1 v[1,-2,3,2]^3",
     "73fbd0f90bf3775ff80e98ba2bce0993c43f8fbc505eedba93a7a30367fb3cad"),
    (3, "v[2,-2,3,-4,-1,-3]^-2 v[6,-6,-11,3,12,11]^1",
     "2d1abda2a031eef22e430eb0ffeddeda7e4bc0d3cda554c782fe6a473798875f"),
]


@pytest.mark.parametrize("genus, curves, digest", PALINDROMES,
                         ids=[f"genus-{g}" for g, _, _ in PALINDROMES])
def test_factor_palindrome_involution_file_digest(capsys, tmp_path, genus, curves, digest):
    path = tmp_path / "involution.json"
    path.write_text(INVOLUTIONS[genus])
    argv = ["factor-palindrome", "--genus", str(genus), "--involution", str(path),
            "--curves", curves]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every admissible pair with p <= 60 in `admissible_pairs` order, variant C
# then C', 374 commands: one digest over their concatenated text stdout
LENS_TEXT_P60 = "e12c4cb5ea37a565fd5835430675c8cb6c55faa331b3f7179c16c4bdf6aa7724"


def test_lens_text_digest_over_admissible_pairs(capsys):
    h = hashlib.sha256()
    for p, q in admissible_pairs(60):
        for variant in ("C", "C'"):
            argv = ["lens", "--p", str(p), "--q", str(q), "--variant", variant,
                    "--format", "text"]
            assert main(argv) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == LENS_TEXT_P60


# every admissible pair with p <= 500 in `admissible_pairs` order, the
# factor_C word then the factor_Cprime word, one line each: 4,354 words
WORDS_P500 = "40d6e2931067947847a65e99e250ac58cc66d0f6321263af44980a528229736a"


def test_word_digest_over_admissible_pairs():
    h = hashlib.sha256()
    for p, q in admissible_pairs(500):
        for factor in (factor_C, factor_Cprime):
            h.update((format_word(factor(p, q)) + "\n").encode())
    assert h.hexdigest() == WORDS_P500
