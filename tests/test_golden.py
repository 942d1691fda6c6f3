"""The `sdnlb cluster` document and the REST bodies match the golden corpus
(see golden.py; a deliberate change regenerates it with --write)."""

import json

import pytest

from sdnlb.clustering import METHODS

import golden

RECORDED = json.loads(golden.GOLDEN.read_text())
PINS = {key: digest for key, digest in RECORDED.items() if key != golden.ENVIRONMENT}


@pytest.mark.parametrize("case", golden.case_names())
def test_outputs_match_the_golden_pins(case):
    got = golden.digests(case)
    want = {key: digest for key, digest in PINS.items() if key.split("/")[0] == case}
    changed = golden.differences(got, want)
    assert not changed, "\n".join(changed)


def test_corpus_covers_every_case_and_leaves_out_only_the_listed_keys():
    cases = {key.split("/")[0] for key in PINS}
    assert cases == set(golden.case_names())
    assert not [key for key in PINS if key.rpartition("/")[0] in golden.EXCLUDED]
    service_and_cli = len(cases) * len(METHODS) * len(golden.KS) * 6 - 6 * len(golden.EXCLUDED)
    simulator = len(cases) * len(golden.KS) * len(golden.SIMULATOR_OUTPUTS)
    assert len(PINS) == service_and_cli + simulator


def test_a_changed_digest_is_listed_beside_both_environments():
    key = min(PINS)
    assert golden.check(PINS, RECORDED) == []
    assert golden.check({**PINS, key: "0" * 64}, RECORDED) == [
        f"changed {key}",
        f"pinned in: {json.dumps(RECORDED[golden.ENVIRONMENT], sort_keys=True)}",
        f"running:   {json.dumps(golden.environment(), sort_keys=True)}",
    ]
