import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepdown.cli import _items, parse_kv_text
from stepdown.core import (
    HypothesisFamily,
    SampleSchedule,
    StageRecord,
    StatisticPaths,
    TrialResult,
    check_alpha,
    check_integer,
    check_pvalues,
)


def test_simple_family_is_valid():
    fam = HypothesisFamily(3)
    assert fam.k == 3
    assert fam.labels == ("H1", "H2", "H3")
    assert all(not any(row) for row in fam.contains_complement)


def test_empty_family_rejected():
    with pytest.raises(ValueError, match="positive integer"):
        HypothesisFamily(k=0)


def test_self_complement_rejected():
    rel = ((False, False), (False, True))  # diagonal entry for H2
    with pytest.raises(ValueError, match="own complement"):
        HypothesisFamily(k=2, contains_complement=rel)


@pytest.mark.parametrize("rel", [((False, False),), ((False, False), (False,))])
def test_relation_must_be_k_by_k(rel):
    with pytest.raises(ValueError, match="contains_complement must be a k-by-k boolean relation"):
        HypothesisFamily(k=2, contains_complement=rel)


def test_family_label_validation():
    with pytest.raises(ValueError, match="labels"):
        HypothesisFamily(k=2, labels=("only one",))
    with pytest.raises(ValueError, match="distinct"):
        HypothesisFamily(k=2, labels=("same", "same"))
    with pytest.raises(ValueError, match="nonempty"):
        HypothesisFamily(k=2, labels=("a", ""))


def test_implied_acceptances():
    rel = (
        (False, True, True),
        (False, False, False),
        (False, False, False),
    )
    fam = HypothesisFamily(k=3, contains_complement=rel, closed_monotone=True)
    assert fam.contains_complement[0] == (False, True, True)
    assert fam.contains_complement[1] == (False, False, False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda k: st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=k, max_size=k)
))
def test_implied_bitmasks_match_implied_acceptances(rows):
    rel = tuple(tuple(x and a != b for b, x in enumerate(row)) for a, row in enumerate(rows))
    fam = HypothesisFamily(k=len(rel), contains_complement=rel)
    for a in range(fam.k):
        row = fam.contains_complement[a]
        assert fam._implied[a] == sum(1 << b for b in range(fam.k) if row[b])


def test_schedule_validation():
    sched = SampleSchedule((26, 29, 35))
    assert sched.sup == 35
    assert len(sched) == 3
    with pytest.raises(ValueError, match="strictly increasing"):
        SampleSchedule((26, 26, 35))
    with pytest.raises(ValueError, match="at least one"):
        SampleSchedule(())
    with pytest.raises(ValueError, match="positive"):
        SampleSchedule((0, 5))
    # (26.5, 29, 35) used to be truncated to (26, 29, 35).
    for bad in ((26.5, 29, 35), (26.0, 29, 35), (True, 29, 35)):
        with pytest.raises(ValueError, match="analysis size must be an integer"):
            SampleSchedule(bad)


def test_statistic_paths_lookup():
    values = np.array([[1.0, 2.0, 3.0], [0.5, 0.4, 0.3]])
    paths = StatisticPaths((26, 29, 35), values)
    assert len(paths.values) == 2


def test_statistic_paths_validation():
    with pytest.raises(ValueError, match="shape"):
        StatisticPaths((26, 29), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="NaN"):
        StatisticPaths((26,), np.array([[np.nan]]))
    with pytest.raises(ValueError, match="paths must cover at least one hypothesis"):
        StatisticPaths((26, 29), np.zeros((0, 2)))
    # The sizes are checked as a SampleSchedule checks them.
    with pytest.raises(ValueError, match="analysis sizes must be positive"):
        StatisticPaths((0, 5), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="strictly increasing"):
        StatisticPaths((5, 5), np.zeros((1, 2)))


@pytest.mark.parametrize(
    "accepted, bad",
    [
        ((26, 29, 35), (26.0, 29.0, 35.0)),
        ((1, 29, 35), (True, 29, 35)),
        ((26, 29, 35), (np.float64(26.0), 29, 35)),
        ((26, 29, 35), ([26], 29, 35)),
    ],
)
def test_statistic_paths_refuse_sizes_equal_to_accepted_ones(accepted, bad):
    # Plain-int schedules are checked once and then remembered; a schedule
    # that compares equal to a remembered one must still be checked.
    StatisticPaths(accepted, np.zeros((2, 3)))
    with pytest.raises(ValueError) as caught:
        SampleSchedule(bad)
    with pytest.raises(ValueError, match=re.escape(str(caught.value))):
        StatisticPaths(bad, np.zeros((2, 3)))


def test_statistic_paths_keep_plain_int_sizes():
    for sizes in ((26, 29, 35), [26, 29, 35], (np.int64(26), 29, 35), np.array([26, 29, 35])):
        paths = StatisticPaths(sizes, np.zeros((1, 3)))
        assert paths.analyses == (26, 29, 35)
        assert all(type(n) is int for n in paths.analyses)


@pytest.mark.parametrize("spot", [(i, j) for i in range(3) for j in range(3)])
def test_statistic_paths_find_nan_anywhere(spot):
    values = np.array([[1.0, np.inf, -np.inf], [0.0, -0.0, 2.0], [np.inf, -np.inf, 3.0]])
    assert len(StatisticPaths((26, 29, 35), values).values) == 3
    values[spot] = np.nan
    with pytest.raises(ValueError, match="statistic values must not be NaN"):
        StatisticPaths((26, 29, 35), values)


def test_stage_record_prefix_invariant():
    rec = StageRecord(stage=1, n=26, active=(0, 1, 2), ordered=(2, 0, 1), rejected=(2,))
    assert rec.rejected == (2,)
    with pytest.raises(ValueError, match="at least one"):
        StageRecord(stage=1, n=26, active=(0,), ordered=(0,), rejected=())
    with pytest.raises(ValueError, match="prefix"):
        StageRecord(stage=1, n=26, active=(0, 1), ordered=(0, 1), rejected=(1,))


def test_trial_result_accounting():
    res = TrialResult(
        rejected=(False, False, True),
        decision_stage=(2, 2, 1),
        endpoint_final_n=(35, 35, 26),
    )
    assert res.decisions == ("accepted", "accepted", "rejected")
    assert res.total_measurements == 96
    with pytest.raises(ValueError, match="equal length"):
        TrialResult(rejected=(True,), decision_stage=(1, 1), endpoint_final_n=(26,))
    with pytest.raises(ValueError, match="equal length"):
        TrialResult(rejected=(True, False), decision_stage=(1, 1), endpoint_final_n=(26,))
    with pytest.raises(ValueError, match="decision stages are 1-based"):
        TrialResult(rejected=(True, False), decision_stage=(1, 0), endpoint_final_n=(26, 35))
    with pytest.raises(ValueError, match="final sample sizes must be positive"):
        TrialResult(rejected=(True, False), decision_stage=(1, 2), endpoint_final_n=(0, 35))
    assert TrialResult(rejected=(), decision_stage=(), endpoint_final_n=()).total_measurements == 0


RECORD = StageRecord(stage=1, n=26, active=(0, 1, 2), ordered=(2, 0, 1), rejected=(2,))
RESULT = TrialResult(
    rejected=(False, False, True),
    decision_stage=(2, 2, 1),
    endpoint_final_n=(35, 35, 26),
    stages=(RECORD,),
)


def test_records_are_immutable():
    for record, field in ((RECORD, "n"), (RESULT, "stages")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_construct_alike_by_position_and_keyword():
    assert StageRecord(1, 26, (0, 1, 2), (2, 0, 1), (2,)) == RECORD
    assert TrialResult((False, False, True), (2, 2, 1), (35, 35, 26), (RECORD,)) == RESULT
    assert TrialResult((True,), (1,), (26,)).stages == ()
    assert TrialResult(rejected=(True,), decision_stage=(1,), endpoint_final_n=(26,)).stages == ()


def test_equal_fields_give_equal_records_and_hashes():
    twin = StageRecord(stage=1, n=26, active=(0, 1, 2), ordered=(2, 0, 1), rejected=(2,))
    assert twin == RECORD and hash(twin) == hash(RECORD)
    other = TrialResult((False, False, True), (2, 2, 1), (35, 35, 26), (twin,))
    assert other == RESULT and hash(other) == hash(RESULT)
    assert RECORD != StageRecord(1, 29, (0, 1, 2), (2, 0, 1), (2,))
    assert RESULT != RESULT._replace(stages=())
    # Records are tuples: they iterate, index and equal the plain tuple.
    assert RECORD == (1, 26, (0, 1, 2), (2, 0, 1), (2,)) and RECORD[1] == 26
    assert tuple(RESULT) == RESULT[:3] + ((RECORD,),)


def test_record_repr():
    assert repr(RECORD) == (
        "StageRecord(stage=1, n=26, active=(0, 1, 2), ordered=(2, 0, 1), rejected=(2,))"
    )
    assert repr(TrialResult((True,), (1,), (26,))) == (
        "TrialResult(rejected=(True,), decision_stage=(1,), endpoint_final_n=(26,), stages=())"
    )


def test_record_copies_rerun_the_checks():
    for record in (RECORD, RESULT):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
    # Bypass the checks to build records they would refuse.
    bad_stage = tuple.__new__(StageRecord, (1, 26, (0, 1), (0, 1), (1,)))
    bad_result = tuple.__new__(TrialResult, ((True,), (0,), (26,), ()))
    for bad, message in ((bad_stage, "prefix"), (bad_result, "1-based")):
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(bad))
    with pytest.raises(ValueError, match="at least one"):
        RECORD._replace(rejected=())
    with pytest.raises(ValueError, match="equal length"):
        RESULT._replace(decision_stage=(1,))


def test_check_alpha():
    assert check_alpha(0.05) == 0.05
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            check_alpha(bad)


def test_check_pvalues():
    p = check_pvalues([0.0, 0.5, 1.0])
    assert p.dtype == float
    with pytest.raises(ValueError):
        check_pvalues([])
    with pytest.raises(ValueError):
        check_pvalues([0.5, 1.2])
    with pytest.raises(ValueError):
        check_pvalues([0.5, np.nan])


def test_parse_kv_text():
    text = "a = 1\n# full comment\nb = x y  # trailing comment\n\na = 2\n"
    assert parse_kv_text(text) == {"a": "2", "b": "x y"}
    with pytest.raises(ValueError, match="key = value"):
        parse_kv_text("just words\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_kv_text("= 3\n")


def test_parse_int_list():
    assert _items("26, 29,35", int, "integer") == (26, 29, 35)
    message = "expected a comma-separated integer list, got '26,x'"
    with pytest.raises(ValueError, match=re.escape(message)):
        _items("26,x", int, "integer")


def test_check_integer_accepts_python_and_numpy_integers():
    for value in (5, np.int64(5), np.uint8(5)):
        checked = check_integer(value, "count", 1, 6)
        assert checked == 5 and type(checked) is int
    assert check_integer(-3, "shift") == -3
    assert check_integer(np.uint64(2**64 - 1), "seed", 0, 2**64) == 2**64 - 1


@pytest.mark.parametrize("value", [5.0, 5.5, True, False, "5", None, np.float64(5.0)])
def test_check_integer_refuses_everything_else(value):
    with pytest.raises(ValueError, match="count must be an integer, got"):
        check_integer(value, "count", 0)


@pytest.mark.parametrize(
    "value, lo, hi, message",
    [
        (0, 1, None, "count must be a positive integer, got 0"),
        (-1, 0, None, "count must be at least 0, got -1"),
        (4, 5, None, "count must be at least 5, got 4"),
        (7, 1, 7, r"count must lie in \[1, 7\), got 7"),
        (2**64, 0, 2**64, r"count must lie in \[0, 2\*\*64\), got"),
    ],
)
def test_check_integer_names_the_range(value, lo, hi, message):
    with pytest.raises(ValueError, match=message):
        check_integer(value, "count", lo, hi)


def test_schedule_keeps_numpy_sizes_as_ints():
    schedule = SampleSchedule(np.array([26, 29, 35]))
    assert schedule == SampleSchedule((26, 29, 35))
    assert all(type(n) is int for n in schedule)
