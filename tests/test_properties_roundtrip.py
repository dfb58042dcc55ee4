"""Property-based tests: serialization/XML round-trips and renderer fuzz."""

from __future__ import annotations

import io

from hypothesis import given, settings, strategies as st

from repro.dblp import Corpus, Paper, corpus_to_xml, parse_dblp_xml
from repro.eval import ascii_chart, bootstrap_mean_ci, min_max_normalize
from repro.expertise import (
    Expert,
    ExpertNetwork,
    network_from_dict,
    network_to_dict,
)

_id = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)


@st.composite
def expert_networks(draw):
    n = draw(st.integers(2, 8))
    ids = [f"e{i}" for i in range(n)]
    experts = [
        Expert(
            ids[i],
            name=draw(_id),
            skills=frozenset(draw(st.sets(st.sampled_from("abc"), max_size=2))),
            h_index=draw(st.integers(0, 50)),
            num_publications=draw(st.integers(0, 99)),
            papers=frozenset(draw(st.sets(_id, max_size=3))),
        )
        for i in range(n)
    ]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        edges.append((ids[i], ids[parent], draw(st.floats(0.01, 1.0))))
    return ExpertNetwork(experts, edges)


@given(expert_networks())
@settings(max_examples=30, deadline=None)
def test_network_json_roundtrip(net):
    clone = network_from_dict(network_to_dict(net))
    assert network_to_dict(clone) == network_to_dict(net)
    assert set(clone.expert_ids()) == set(net.expert_ids())
    for expert_id in net.expert_ids():
        assert clone.expert(expert_id) == net.expert(expert_id)


_title_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1,
    max_size=40,
).filter(lambda t: t.strip())


@st.composite
def corpora(draw):
    corpus = Corpus()
    n = draw(st.integers(1, 6))
    for i in range(n):
        authors = draw(
            st.lists(_id, min_size=1, max_size=3, unique=True)
        )
        corpus.add_paper(
            Paper(
                id=f"key/{i}",
                title=draw(_title_text),
                authors=tuple(authors),
                year=draw(st.integers(1990, 2020)),
                venue=draw(_id),
            )
        )
    return corpus


@given(corpora())
@settings(max_examples=30, deadline=None)
def test_dblp_xml_roundtrip(corpus):
    parsed = parse_dblp_xml(io.StringIO(corpus_to_xml(corpus)))
    assert parsed.num_papers == corpus.num_papers
    for original, rebuilt in zip(corpus.papers, parsed.papers):
        assert rebuilt.authors == original.authors
        assert rebuilt.year == original.year
        # whitespace at title edges is structural XML noise; content match
        assert (
            rebuilt.title == original.title.strip()
            or rebuilt.title == original.title
        )


@given(
    st.dictionaries(
        _id,
        st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_ascii_chart_never_crashes_and_fits(series):
    out = ascii_chart(series, height=8, width=30)
    lines = out.splitlines()
    # canvas rows have bounded width (prefix + 1 + 30)
    assert all(len(line) <= 80 for line in lines[:8])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_min_max_normalize_bounds(values):
    normalized = min_max_normalize(values)
    assert len(normalized) == len(values)
    assert all(0.0 <= v <= 1.0 for v in normalized)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_bootstrap_ci_brackets_sample_mean(values):
    ci = bootstrap_mean_ci(values, seed=0)
    assert ci.low <= ci.mean + 1e-9
    assert ci.mean <= ci.high + 1e-9
