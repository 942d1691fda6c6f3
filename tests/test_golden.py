"""The `sdnlb cluster` document and the REST bodies match the golden corpus
(see golden.py; a deliberate change regenerates it with --write)."""

import json

import pytest

from sdnlb.clustering import METHODS

import golden

PINS = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("case", golden.case_names())
def test_outputs_match_the_golden_pins(case):
    got = golden.digests(case)
    want = {key: digest for key, digest in PINS.items() if key.split("/")[0] == case}
    assert sorted(got) == sorted(want)
    assert [key for key in got if got[key] != want[key]] == []


def test_corpus_covers_every_case_and_leaves_out_only_the_listed_keys():
    cases = {key.split("/")[0] for key in PINS}
    assert cases == set(golden.case_names())
    assert not [key for key in PINS if key.rpartition("/")[0] in golden.EXCLUDED]
    assert len(PINS) == len(cases) * len(METHODS) * len(golden.KS) * 6 - 6 * len(golden.EXCLUDED)
