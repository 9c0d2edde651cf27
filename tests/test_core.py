import numpy as np
import pytest

from stepdown.core import (
    HypothesisFamily,
    SampleSchedule,
    StageRecord,
    StatisticPaths,
    TrialResult,
    check_alpha,
    check_pvalues,
    parse_int_list,
    parse_kv_text,
)


def test_simple_family_is_valid():
    fam = HypothesisFamily.simple(3)
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


def test_family_label_validation():
    with pytest.raises(ValueError, match="labels"):
        HypothesisFamily(k=2, labels=("only one",))
    with pytest.raises(ValueError, match="distinct"):
        HypothesisFamily(k=2, labels=("same", "same"))
    with pytest.raises(ValueError, match="commas"):
        HypothesisFamily(k=1, labels=("a,b",))


def test_implied_acceptances():
    rel = (
        (False, True, True),
        (False, False, False),
        (False, False, False),
    )
    fam = HypothesisFamily(k=3, contains_complement=rel, closed_monotone=True)
    assert fam.implied_acceptances(0) == (1, 2)
    assert fam.implied_acceptances(1) == ()


def test_family_round_trip():
    rel = ((False, True), (False, False))
    fam = HypothesisFamily(
        k=2, labels=("low dose", "high dose"), contains_complement=rel, closed_monotone=True
    )
    assert HypothesisFamily.from_text(fam.to_text()) == fam

    plain = HypothesisFamily.simple(4)
    assert HypothesisFamily.from_text(plain.to_text()) == plain


def test_family_text_rejects_garbage():
    with pytest.raises(ValueError, match="unknown family key"):
        HypothesisFamily.from_text("k = 2\nbogus = 1\n")
    with pytest.raises(ValueError, match="must define k"):
        HypothesisFamily.from_text("labels = a,b\n")
    with pytest.raises(ValueError, match="bad containment pair"):
        HypothesisFamily.from_text("k = 2\ncontains_complement = 1-2\n")
    with pytest.raises(ValueError, match="out of range"):
        HypothesisFamily.from_text("k = 2\ncontains_complement = 1>3\n")


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


def test_statistic_paths_lookup():
    values = np.array([[1.0, 2.0, 3.0], [0.5, 0.4, 0.3]])
    paths = StatisticPaths((26, 29, 35), values)
    assert paths.k == 2


def test_statistic_paths_validation():
    with pytest.raises(ValueError, match="shape"):
        StatisticPaths((26, 29), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="NaN"):
        StatisticPaths((26,), np.array([[np.nan]]))
    with pytest.raises(ValueError, match="sums"):
        StatisticPaths((26, 29), np.zeros((1, 2)), sums=np.zeros((1, 3)))


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
    assert parse_int_list("26, 29,35") == (26, 29, 35)
    with pytest.raises(ValueError):
        parse_int_list("26,x")
