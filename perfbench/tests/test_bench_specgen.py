import json

import pytest

import blenderforge as bf
import specgen


@pytest.mark.parametrize("family", sorted(specgen.FAMILIES))
def test_same_seed_same_documents(family):
    first = json.dumps(specgen.generate(family, 7, 6))
    assert first == json.dumps(specgen.generate(family, 7, 6))
    assert first != json.dumps(specgen.generate(family, 8, 6))
    assert len({json.dumps(d) for d in specgen.generate(family, 7, 6)}) == 6


@pytest.mark.parametrize("family", sorted(specgen.FAMILIES))
def test_documents_classify_as_their_family(family):
    for doc in specgen.generate(family, 3, 6):
        spec, moduli = bf.load_spec_document(doc)
        assert bf.classify_case(moduli, spec).value == family


def test_batch_is_stratified_per_parameter():
    n = 20
    docs = specgen.generate("SF-3", 5, n)
    for field, lo, hi in (("A_coef", 0.5, 1.5), ("B_coef", 0.5, 1.5)):
        strata = sorted(int((d["spec"][field] - lo) / (hi - lo) * n) for d in docs)
        assert strata == list(range(n))
