"""Cross-check: README's fuzz-oracle prose vs ``repro.fuzz.oracles``.

The README's "Fuzzing & oracles" section enumerates the oracle matrix
in prose.  This test keeps that prose honest: the stated count must
equal ``len(ORACLES)``, every oracle key must be described by a README
phrase, and every oracle function must carry a docstring (the
documentation of record for what each oracle asserts).
"""

from pathlib import Path

import pytest

from repro.fuzz.oracles import ORACLES

README = Path(__file__).resolve().parent.parent / "README.md"

#: oracle key -> the README phrase that describes it.
_README_PHRASES = {
    "methods-agree": "pairwise index equality across all\nbuild methods",
    "cover": "cover/soundness/canonical validation",
    "soundness": "cover/soundness/canonical validation",
    "canonical": "cover/soundness/canonical validation",
    "query-oracle": "query equivalence\nvs online BFS and the exact "
                    "transitive closure",
    "condensed": "SCC-condensed\nequivalence",
    "dynamic-vs-rebuild": "incremental-update-vs-rebuild equality",
    "engine-mismatch": "multiprocessing-vs-simulator engine equality",
}

_COUNT_WORDS = {
    5: "five", 6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
}


def _fuzz_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Fuzzing & oracles")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def test_phrase_mapping_covers_the_oracle_registry_exactly():
    assert set(_README_PHRASES) == set(ORACLES), (
        "oracle registry changed: update the README's 'Fuzzing & "
        "oracles' section and this test's phrase map together"
    )


def test_readme_mentions_every_oracle():
    section = _fuzz_section()
    for key, phrase in _README_PHRASES.items():
        assert phrase in section, (
            f"README no longer describes oracle {key!r} "
            f"(expected the phrase {phrase!r})"
        )


def test_readme_oracle_count_matches_registry():
    section = _fuzz_section()
    count_word = _COUNT_WORDS[len(ORACLES)]
    assert f"{count_word} oracles" in section, (
        f"README should say '{count_word} oracles' for the "
        f"{len(ORACLES)} entries in ORACLES"
    )


def test_every_oracle_documents_itself():
    for key, func in ORACLES.items():
        assert func.__doc__ and func.__doc__.strip(), (
            f"oracle {key!r} ({func.__name__}) has no docstring"
        )
