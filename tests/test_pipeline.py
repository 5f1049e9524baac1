"""The stage-row codecs behind the table cache: each stage survives a round
trip through its rows, and the decoders share what they can. No stage or
codec writes to the records, timelines, moves or states it reads."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careertrace.corpus import default_scheme, parse_corpus
from careertrace.indicators import IndicatorEngine
from careertrace.mobility import HOST_ATTRIBUTIONS, classify, detect_moves
from careertrace.pipeline import (
    moves_to_rows,
    rows_to_moves,
    rows_to_states,
    rows_to_timelines,
    states_to_rows,
    timelines_to_rows,
)
from careertrace.stocks import build_statuses, stock_table
from careertrace.timeline import TIE_RULES, build_timelines

from conftest import lines, random_records

@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    home=st.sampled_from(default_scheme().labels),
    tie_rule=st.sampled_from(TIE_RULES),
    host_attribution=st.sampled_from(HOST_ATTRIBUTIONS),
)
def test_stage_codecs_round_trip(seed, home, tie_rule, host_attribution):
    """A quarter of random authorships list two countries, so positions carry
    multi-region weights and ties under both rules."""
    scheme = default_scheme()
    corpus = parse_corpus(lines(*random_records(random.Random(seed), 60)), scheme)
    timelines = build_timelines(corpus, tie_rule)
    moves = {a: detect_moves(tl) for a, tl in timelines.items()}
    states = {a: classify(tl, moves[a], home, scheme, host_attribution)
              for a, tl in timelines.items()}

    rows = timelines_to_rows(timelines, scheme)
    decoded = rows_to_timelines(rows)
    assert decoded == timelines
    assert timelines_to_rows(decoded, scheme) == rows
    weights_of = {}
    positions = [pos for a in sorted(decoded) for pos in decoded[a].positions]
    assert len(positions) == len(rows)
    for pos, row in zip(positions, rows):
        assert weights_of.setdefault(row[4], pos.weights) is pos.weights

    rows = moves_to_rows(moves)
    assert rows_to_moves(rows) == {a: mvs for a, mvs in moves.items() if mvs}
    assert moves_to_rows(rows_to_moves(rows)) == rows

    rows = states_to_rows(states)
    decoded_states = rows_to_states(rows)
    assert decoded_states == states
    assert states_to_rows(decoded_states) == rows
    # fresh key strings, as the cache's CSV reader gives them
    fresh = rows_to_states([[cell.encode().decode() for cell in row] for row in rows])
    assert fresh == states
    shared = {}
    for sts in fresh.values():
        for s in sts:
            assert shared.setdefault(s.klass, s.klass) is s.klass


def _positions(timelines):
    return [pos for a in sorted(timelines) for pos in timelines[a].positions]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stages_leave_their_inputs_unmutated(seed):
    """Per-record objects are not frozen, so nothing may write to them once
    built: every stage and codec leaves its inputs equal to a deep copy taken
    before, and positions keep the weights dicts they shared."""
    scheme = default_scheme()
    corpus = parse_corpus(lines(*random_records(random.Random(seed), 80)), scheme)
    timelines = build_timelines(corpus)
    moves = {a: detect_moves(tl) for a, tl in timelines.items()}
    states = {a: classify(tl, moves[a], "CHN", scheme) for a, tl in timelines.items()}
    inputs = (corpus.records, timelines, moves, states)
    before = copy.deepcopy(inputs)
    decoded = rows_to_timelines(timelines_to_rows(timelines, scheme))
    decoded_before = copy.deepcopy(decoded)
    weights_ids = [id(pos.weights) for tls in (timelines, decoded) for pos in _positions(tls)]

    for tls in (timelines, decoded):
        for host_attribution in HOST_ATTRIBUTIONS:
            for a, tl in tls.items():
                classify(tl, moves[a], "USA", scheme, host_attribution)
        stock_table(states, build_statuses(tls, corpus.window), corpus.window)
        rows_to_timelines(timelines_to_rows(tls, scheme))
    engine = IndicatorEngine(corpus, states, "CHN")
    for family in (engine.pp10_rows, engine.share_rows, engine.intl_rows,
                   engine.class_intl_rows, engine.direction_rows):
        family()
    rows_to_moves(moves_to_rows(moves))
    rows_to_states(states_to_rows(states))

    assert inputs == before
    assert decoded == decoded_before
    assert [id(pos.weights) for tls in (timelines, decoded) for pos in _positions(tls)] == weights_ids
    shared = {}
    for pos in _positions(decoded):
        assert shared.setdefault(tuple(pos.weights.items()), pos.weights) is pos.weights
