import json
import math
import random
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strokepred import evalharness
from strokepred.core import SEVERITY_CATEGORIES, SubjectRecord
from strokepred.evalharness import (BALANCE_COVARIATES, METRIC_COLS,
                                    Calibrator, LockBox,
                                    LockBoxProtocolError, LockBoxViolation,
                                    MetricsRow,
                                    audit_scan, auc, cross_validate,
                                    fit_temperature, metrics,
                                    seed_aggregate, stratified_partition,
                                    subgroup_metrics, threshold_sweep)
from strokepred.learn import NumericAbort, sigmoid


def _record(i, severity, score, size, days):
    return SubjectRecord(id=f"s{i:04d}", severity=severity, recovery_time=days,
                         left_lesion_size=size, score=score)


def _group_ids(plan, group):
    return sorted(i for i, g in plan.assignment.items() if g == group)


def _toy_cohort(n=100, seed=0):
    rng = random.Random(seed)
    recs = []
    for i in range(n):
        sev = SEVERITY_CATEGORIES[rng.randrange(5)]
        recs.append(_record(i, sev, rng.uniform(0, 100),
                            rng.randrange(0, 30000), rng.uniform(7, 1000)))
    return recs


# ---------------------------------------------------------------------------
# stratified_partition


def test_identical_subjects_per_category_balance_exactly():
    recs = [_record(i, "mild", 50.0, 1000, 90.0) for i in range(25)]
    plan = stratified_partition(recs, k=5)
    assert plan.balance.objective == 0.0
    assert all(v == 0.0 for v in plan.balance.max_smd.values())
    assert plan.balance.severity_counts["mild"] == {g: 5 for g in range(1, 6)}


def test_partition_covers_every_subject_once():
    recs = _toy_cohort(83)
    plan = stratified_partition(recs, k=5)
    assert sorted(plan.assignment) == sorted(r.id for r in recs)
    assert set(plan.assignment.values()) <= {1, 2, 3, 4, 5}
    sizes = [len(_group_ids(plan, g)) for g in range(1, 6)]
    assert sum(sizes) == 83
    assert max(sizes) - min(sizes) <= len(SEVERITY_CATEGORIES)


def test_partition_invariant_to_input_order():
    recs = _toy_cohort(60, seed=3)
    shuffled = recs[:]
    random.Random(9).shuffle(shuffled)
    assert stratified_partition(recs).assignment \
        == stratified_partition(shuffled).assignment


def test_partition_seed_changes_assignment_not_validity():
    recs = _toy_cohort(60, seed=4)
    a = stratified_partition(recs, seed=0)
    b = stratified_partition(recs, seed=1)
    assert a.assignment != b.assignment
    assert sorted(a.assignment) == sorted(b.assignment)


def test_small_category_warning():
    recs = [_record(i, "normal", 50 + i, 100 * i, 30.0) for i in range(50)]
    recs += [_record(100 + i, "mild", 40.0, 500, 60.0) for i in range(3)]
    plan = stratified_partition(recs)
    assert any("mild" in w for w in plan.balance.warnings)


def test_swaps_never_hurt_the_objective(monkeypatch):
    recs = _toy_cohort(120, seed=5)
    refined = stratified_partition(recs)
    monkeypatch.setattr(evalharness, "MAX_SWAPS", 0)
    dealt = stratified_partition(recs)
    assert refined.balance.objective <= dealt.balance.objective + 1e-12


def test_partition_refuses_an_empty_group_without_numpy_warnings():
    recs = [_record(i, sev, 40.0 + i, 100 * i, 30.0 + i)
            for i, sev in enumerate(("severe", "moderate", "mild", "normal"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"cohort of 4 subjects leaves "
                                             r"groups \[5\] of 5 empty"):
            stratified_partition(recs, k=5, seed=0)


def test_duplicate_ids_rejected():
    recs = [_record(1, "mild", 50.0, 10, 20.0), _record(1, "mild", 60.0, 11, 21.0)]
    with pytest.raises(ValueError):
        stratified_partition(recs)


def test_balance_report_matches_direct_recount():
    recs = _toy_cohort(75, seed=6)
    plan = stratified_partition(recs)
    by_id = {r.id: r for r in recs}
    cols = {"score": lambda r: r.score,
            "left_lesion_size": lambda r: r.left_lesion_size,
            "recovery_time": lambda r: r.recovery_time}
    for name, get in cols.items():
        full = [get(r) for r in recs]
        sd = np.std(full, ddof=1)
        means = [np.mean([get(by_id[i]) for i in _group_ids(plan, g)])
                 for g in range(1, 6)]
        worst = max(abs(means[a] - means[b]) / sd
                    for a in range(5) for b in range(a + 1, 5))
        assert plan.balance.max_smd[name] == pytest.approx(worst, rel=1e-9)
    assert plan.balance.objective == pytest.approx(
        sum(plan.balance.max_smd.values()), rel=1e-12)
    counts = {c: {g: 0 for g in range(1, 6)} for c in SEVERITY_CATEGORIES}
    for r in recs:
        counts[r.severity][plan.assignment[r.id]] += 1
    assert plan.balance.severity_counts == counts


def test_desk_cohort_partition_meets_balance_targets(desk_cohort):
    plan = stratified_partition(desk_cohort.records, k=5)
    for name in BALANCE_COVARIATES:
        assert plan.balance.max_smd[name] <= 0.1, name
    for cat, per_group in plan.balance.severity_counts.items():
        vals = list(per_group.values())
        assert max(vals) - min(vals) <= 2, cat
    assert evalharness.MAX_SWAPS == 500
    assert LockBox(plan).lockbox_group == plan.k == 5


def _pairwise_max_smd(means, sd):
    k = len(means)
    return [max(abs(means[a, c] - means[b, c]) / sd[c]
                for a in range(k) for b in range(a + 1, k))
            for c in range(means.shape[1])]


def _pairwise_partition(records, k):
    """Reference: the greedy swaps searched pair by pair and covariate by
    covariate, from the deal that ``stratified_partition`` makes with no
    swaps.  Returns (assignment, max_smd, objective, swaps_applied)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evalharness, "MAX_SWAPS", 0)
        dealt = stratified_partition(records, k=k)
    records = sorted(records, key=lambda r: r.id)
    assign = np.array([dealt.assignment[r.id] - 1 for r in records])
    category = np.array([SEVERITY_CATEGORIES.index(r.severity)
                         for r in records])
    x = np.array([[r.score, r.left_lesion_size, r.recovery_time]
                  for r in records], dtype=np.float64)
    sd = x.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    sums = np.zeros((k, 3))
    for g in range(k):
        sums[g] = x[assign == g].sum(axis=0)

    def best_swap_for_pair(means, ga, gb):
        others = [g for g in range(k) if g not in (ga, gb)]
        best = None
        for ci in range(len(SEVERITY_CATEGORIES)):
            ia = np.flatnonzero((assign == ga) & (category == ci))
            ib = np.flatnonzero((assign == gb) & (category == ci))
            if len(ia) == 0 or len(ib) == 0:
                continue
            delta = x[ib][None, :, :] - x[ia][:, None, :]
            ma = means[ga] + delta / counts[ga]
            mb = means[gb] - delta / counts[gb]
            j_cand = np.zeros(delta.shape[:2])
            for c in range(3):
                fixed = 0.0
                for a in others:
                    for b in others:
                        if a < b:
                            fixed = max(fixed, abs(means[a, c] - means[b, c]))
                cand = np.full(delta.shape[:2], fixed)
                for g in others:
                    cand = np.maximum(cand, np.abs(ma[..., c] - means[g, c]))
                    cand = np.maximum(cand, np.abs(mb[..., c] - means[g, c]))
                cand = np.maximum(cand, np.abs(ma[..., c] - mb[..., c]))
                j_cand += cand / sd[c]
            r, s = divmod(int(np.argmin(j_cand)), j_cand.shape[1])
            if best is None or j_cand[r, s] < best[0] - 1e-15:
                best = (float(j_cand[r, s]), int(ia[r]), int(ib[s]))
        return best

    swaps = 0
    while swaps < evalharness.MAX_SWAPS:
        means = sums / counts[:, None]
        cur_j = sum(_pairwise_max_smd(means, sd))
        pairs = sorted(((max(abs(means[a, c] - means[b, c]) / sd[c]
                             for c in range(3)), a, b)
                        for a in range(k) for b in range(a + 1, k)),
                       key=lambda t: (-t[0], t[1], t[2]))
        for _, ga, gb in pairs:
            best = best_swap_for_pair(means, ga, gb)
            if best is not None and best[0] < cur_j - 1e-12:
                _, i, j = best
                sums[ga] += x[j] - x[i]
                sums[gb] += x[i] - x[j]
                assign[i], assign[j] = gb, ga
                swaps += 1
                break
        else:
            break
    means = np.array([x[assign == g].mean(axis=0) for g in range(k)])
    max_smd = dict(zip(BALANCE_COVARIATES, _pairwise_max_smd(means, sd)))
    assignment = {r.id: int(assign[i]) + 1 for i, r in enumerate(records)}
    return assignment, max_smd, sum(max_smd.values()), swaps


def _assert_partition_equals_reference(records, k):
    plan = stratified_partition(records, k=k)
    assert set(plan.assignment.values()) == set(range(1, k + 1))  # none empty
    assignment, max_smd, objective, swaps = _pairwise_partition(records, k)
    assert plan.assignment == assignment
    assert plan.balance.max_smd == max_smd
    assert plan.balance.objective == objective
    return swaps


def _tied_cohort(n, seed):
    """Covariates on coarse grids, so swap candidates tie often."""
    rng = random.Random(seed)
    return [_record(i, SEVERITY_CATEGORIES[rng.randrange(5)],
                    float(rng.randrange(0, 100, 10)), rng.randrange(0, 5) * 1000,
                    float(rng.choice((7, 30, 90, 365)))) for i in range(n)]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_partition_equals_the_pairwise_swap_search(k):
    swaps = 0
    for seed in range(6):
        swaps += _assert_partition_equals_reference(
            _toy_cohort(30 + 17 * seed, seed=100 + seed), k)
        swaps += _assert_partition_equals_reference(
            _tied_cohort(40 + 11 * seed, seed=200 + seed), k)
    assert swaps > 0  # the swap search was exercised


def test_desk_cohort_partition_equals_the_pairwise_swap_search(desk_cohort):
    assert _assert_partition_equals_reference(desk_cohort.records, 5) > 0


# ---------------------------------------------------------------------------
# lock box


def _tiny_plan():
    return stratified_partition(_toy_cohort(40, seed=7), k=5)


def test_lockbox_allows_training_groups():
    box = LockBox(_tiny_plan())
    box.request([1, 2, 3], caller="cv")
    box.request([4], caller="calibration")
    assert [e["op"] for e in box.entries] == ["seal", "access", "access"]


def test_lockbox_blocks_group5_before_unlock():
    box = LockBox(_tiny_plan())
    with pytest.raises(LockBoxViolation):
        box.request([5], caller="rogue")
    assert box.entries[-1]["op"] == "violation"
    box.unlock(reason="final evaluation")
    box.request([5], caller="final")  # now permitted
    assert box.entries[-1] == {**box.entries[-1], "op": "access"}


def test_lockbox_double_unlock_is_protocol_error():
    box = LockBox(_tiny_plan())
    box.unlock(reason="final evaluation")
    with pytest.raises(LockBoxProtocolError):
        box.unlock(reason="again")


def test_lockbox_audit_file_is_append_only_jsonl(tmp_path):
    path = tmp_path / "audit.jsonl"
    box = LockBox(_tiny_plan(), audit_path=path)
    box.request([1, 2, 3], caller="cv")
    box.unlock(reason="final evaluation")
    box.request([5], caller="final")
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["seq"] for e in entries] == [1, 2, 3, 4]
    assert [e["op"] for e in entries] == ["seal", "access", "unlock", "access"]
    scan = audit_scan(path)
    assert scan == {"n_unlocks": 1, "n_violations": 0,
                    "pre_unlock_lockbox_accesses": 0, "n_entries": 4}


def _audit_file(tmp_path, entries):
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def test_audit_scan_counts_pre_unlock_access(tmp_path):
    entries = [
        {"seq": 1, "op": "seal", "groups": [5]},
        {"seq": 2, "op": "access", "groups": [5], "caller": "x"},
        {"seq": 3, "op": "unlock", "reason": "y"},
    ]
    scan = audit_scan(_audit_file(tmp_path, entries))
    assert scan["pre_unlock_lockbox_accesses"] == 1
    with pytest.raises(ValueError):
        audit_scan(_audit_file(tmp_path, [{"seq": 2, "op": "seal",
                                           "groups": [5]},
                                          {"seq": 1, "op": "unlock"}]))


# ---------------------------------------------------------------------------
# cross_validate


def test_ordered_map_keeps_item_order_and_the_callers_thread():
    caller = threading.get_ident()

    def slow_square(x):
        time.sleep(0.002 * (5 - x))  # early items finish last
        return x * x, threading.get_ident()

    one = evalharness.ordered_map(slow_square, range(5), jobs=1)
    assert one == [(x * x, caller) for x in range(5)]
    two = evalharness.ordered_map(slow_square, range(5), jobs=2)
    assert [r for r, _ in two] == [x * x for x in range(5)]
    assert evalharness.ordered_map(slow_square, [3], jobs=2) == [(9, caller)]


def test_cross_validate_matches_exhaustive_oracle():
    table = {(lr, i): 0.5 + 0.1 * i + lr for i in range(4) for lr in (0.01, 0.1)}

    def fit(lr, i):
        time.sleep(0.001 * (4 - i))  # so threads finish out of order
        return table[(lr, i)], (lr, i)

    for jobs in (1, 2):
        best, losses, records = cross_validate(fit, 4, [0.1, 0.01], jobs)
        assert best == 0.01
        assert list(losses) == [0.1, 0.01]
        for lr in (0.01, 0.1):
            assert losses[lr] == [table[(lr, i)] for i in range(4)]
        means = {lr: sum(v) / 4 for lr, v in losses.items()}
        assert means[0.01] == min(means.values())
        # records come back in (lr, fold) order, whatever order fits end in
        assert records == [(lr, i) for lr in (0.1, 0.01) for i in range(4)]


def test_cross_validate_tie_prefers_smaller_lr():
    for jobs in (1, 2):
        best, _, _ = cross_validate(lambda lr, i: (1.0, None), 4, [0.3, 0.1],
                                    jobs)
        assert best == 0.1


def test_cross_validate_each_fold_validates_once():
    for jobs in (1, 2):
        seen = []
        cross_validate(lambda lr, i: (seen.append((lr, i)) or 0.0, None),
                       4, [0.05, 0.5], jobs)
        assert sorted(seen) == [(lr, i) for lr in (0.05, 0.5)
                                for i in range(4)]


def test_cross_validate_propagates_numeric_abort():
    def fit(lr, i):
        if i == 2:
            raise NumericAbort("diverged")
        return 0.0, None

    for jobs in (1, 2):
        with pytest.raises(NumericAbort):
            cross_validate(fit, 4, [0.1], jobs)


def test_cross_validate_input_validation():
    calls = []

    def fit(lr, i):
        calls.append((lr, i))
        return 0.0, None

    for jobs in (1, 2):
        for n_folds, lrs in ((1, [0.1]), (4, []), (4, [0.1, 0.2, 0.1])):
            with pytest.raises(ValueError):
                cross_validate(fit, n_folds, lrs, jobs)
    assert calls == []  # refused before any fit


# ---------------------------------------------------------------------------
# calibration


def _nll(logits, labels):
    z = np.asarray(logits, float)
    y = np.asarray(labels, float)
    return float(np.mean(np.maximum(z, 0) - y * z + np.log1p(np.exp(-np.abs(z)))))


def _sample_logits(n, scale, seed=0):
    rng = np.random.default_rng(seed)
    z_true = rng.normal(0.0, 2.0, size=n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z_true))).astype(np.int64)
    return z_true * scale, y


def test_fit_temperature_recovers_identity():
    z, y = _sample_logits(4000, scale=1.0)
    cal = fit_temperature(z, y)
    assert 0.9 <= cal.temperature <= 1.1


def test_fit_temperature_recovers_overconfidence_scale():
    z, y = _sample_logits(4000, scale=5.0)
    cal = fit_temperature(z, y)
    assert 4.0 <= cal.temperature <= 6.0
    assert _nll(z / cal.temperature, y) <= _nll(z, y)


def test_fit_temperature_never_worse_than_uncalibrated():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 3, size=40)
        y = rng.integers(0, 2, size=40)
        if y.min() == y.max():
            continue
        cal = fit_temperature(z, y)
        assert _nll(z / cal.temperature, y) <= _nll(z, y) + 1e-12


def test_fit_temperature_needs_both_classes():
    with pytest.raises(ValueError):
        fit_temperature(np.array([0.5, 1.0]), np.array([1, 1]))


def test_calibrator_identity_and_validation():
    z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    cal = Calibrator(temperature=1.0)
    assert np.allclose(cal.apply(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-15)
    assert np.array_equal(cal.apply(z), sigmoid(z))
    half = Calibrator(temperature=2.0)
    assert np.array_equal(half.apply(z), sigmoid(z / 2.0))
    with pytest.raises(ValueError):
        Calibrator(temperature=0.0)
    with pytest.raises(ValueError):
        Calibrator(temperature=math.inf)


def test_auc_exactly_invariant_under_temperature():
    z, y = _sample_logits(500, scale=3.0, seed=2)
    raw = Calibrator(temperature=1.0).apply(z)
    cal = Calibrator(temperature=3.7).apply(z)
    assert auc(raw, y) == auc(cal, y)


# ---------------------------------------------------------------------------
# metrics and AUC


def test_metrics_perfect_classifier():
    p = np.array([0.9, 0.8, 0.1, 0.2])
    y = np.array([1, 1, 0, 0])
    row = metrics(p, y)
    assert row.accuracy == row.balanced_accuracy == row.sensitivity == 1.0
    assert row.specificity == row.precision == row.f1 == row.auc == 1.0
    assert row.flags == ()


def test_metrics_constant_positive_predictor():
    p = np.full(10, 0.9)
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    row = metrics(p, y)
    assert row.sensitivity == 1.0 and row.specificity == 0.0
    assert row.balanced_accuracy == 0.5
    assert row.precision == pytest.approx(0.3)
    assert "specificity" not in row.flags


def test_metrics_against_loop_recount():
    rng = np.random.default_rng(1)
    p = rng.random(200)
    y = rng.integers(0, 2, size=200)
    for t in (0.3, 0.5, 0.62):
        row = metrics(p, y, threshold=t)
        tp = sum(1 for pi, yi in zip(p, y) if pi >= t and yi == 1)
        fp = sum(1 for pi, yi in zip(p, y) if pi >= t and yi == 0)
        tn = sum(1 for pi, yi in zip(p, y) if pi < t and yi == 0)
        fn = sum(1 for pi, yi in zip(p, y) if pi < t and yi == 1)
        assert row.accuracy == (tp + tn) / 200
        assert row.sensitivity == tp / (tp + fn)
        assert row.specificity == tn / (tn + fp)
        assert row.precision == tp / (tp + fp)
        assert row.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
        assert row.balanced_accuracy == (row.sensitivity + row.specificity) / 2


def test_metrics_zero_denominators_flagged_not_nan():
    row = metrics(np.array([0.1, 0.2]), np.array([0, 0]))
    assert row.sensitivity == 0.0 and "sensitivity" in row.flags
    assert row.precision == 0.0 and "precision" in row.flags
    assert "f1" in row.flags and "auc" in row.flags
    assert row.specificity == 1.0
    assert math.isfinite(row.balanced_accuracy)


def test_metrics_input_validation():
    with pytest.raises(ValueError):
        metrics(np.array([1.2]), np.array([1]))
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        metrics(np.array([np.nan, 0.2, 0.9, np.nan]), np.array([1, 0, 1, 0]))
    with pytest.raises(ValueError):
        metrics(np.array([]), np.array([]))


def test_auc_hand_values():
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    assert auc(np.full(6, 0.4), np.array([1, 0, 1, 0, 1, 0])) == 0.5
    with pytest.raises(ValueError):
        auc(np.array([0.5, 0.6]), np.array([1, 1]))


def test_auc_midranks_equal_pairwise_oracle_exactly():
    rng = np.random.default_rng(3)
    p = np.round(rng.random(500), 1)  # heavy ties
    y = rng.integers(0, 2, size=500)
    pos = p[y == 1]
    neg = p[y == 0]
    wins = ties = 0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1
            elif a == b:
                ties += 1
    oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert auc(p, y) == oracle


def _loop_auc(p, y):
    """Reference: midranks found by walking the sorted scores."""
    n1, n0 = int(np.sum(y == 1)), int(np.sum(y == 0))
    order = np.argsort(p, kind="stable")
    ranks = np.empty(len(p), dtype=np.float64)
    ranks[order] = np.arange(1, len(p) + 1)
    sorted_p = p[order]
    i = 0
    while i < len(p):
        j = i
        while j + 1 < len(p) and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * n0)


@pytest.mark.parametrize("n", [2, 3, 79, 400, 2000])
def test_auc_equals_the_midrank_loop_on_tied_scores(n):
    rng = np.random.default_rng(n)
    for trial in range(20):
        y = rng.integers(0, 2, size=n)
        y[:2] = (0, 1)
        raw = rng.random(n)
        for p in (np.round(raw, 1 + trial % 3),  # rounded probabilities
                  np.clip(3 * raw - 1, 0, 1),  # saturated at 0 and 1
                  np.round(np.clip(3 * raw - 1, 0, 1), 2),
                  np.full(n, 0.5)):
            assert auc(p, y) == _loop_auc(p, y)


def test_balanced_accuracy_invariant_under_duplicating_positives():
    rng = np.random.default_rng(4)
    p = rng.random(80)
    y = rng.integers(0, 2, size=80)
    row = metrics(p, y)
    p2 = np.concatenate([p, p[y == 1]])
    y2 = np.concatenate([y, y[y == 1]])
    row2 = metrics(p2, y2)
    assert row2.sensitivity == row.sensitivity
    assert row2.specificity == row.specificity
    assert row2.balanced_accuracy == row.balanced_accuracy


def test_metrics_invariant_under_monotone_rethresholding():
    rng = np.random.default_rng(5)
    p = rng.random(150)
    y = rng.integers(0, 2, size=150)
    t = 0.3
    m = np.where(p < t, 0.5 * p / t, 0.5 + 0.5 * (p - t) / (1 - t))
    a = metrics(p, y, threshold=t)
    b = metrics(m, y, threshold=0.5)
    assert (a.sensitivity, a.specificity, a.precision) == \
        (b.sensitivity, b.specificity, b.precision)
    assert a.accuracy == b.accuracy
    assert a.balanced_accuracy == b.balanced_accuracy
    assert a.auc == b.auc  # rank statistics see the same ordering


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1)),
                min_size=4, max_size=60))
def test_auc_invariant_under_affine_map(pairs):
    p = np.array([a / 100 for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    if y.min() == y.max():
        return
    assert auc(p / 2 + 0.25, y) == auc(p, y)


@given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False),
                          st.integers(0, 1)), min_size=2, max_size=50))
def test_metrics_stay_in_unit_interval(pairs):
    p = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    row = metrics(p, y)
    for m in METRIC_COLS:
        assert 0.0 <= getattr(row, m) <= 1.0
    assert row.balanced_accuracy == (row.sensitivity + row.specificity) / 2


def test_subgroup_metrics_matches_manual_mask():
    rng = np.random.default_rng(6)
    p = rng.random(60)
    y = rng.integers(0, 2, size=60)
    sev = [SEVERITY_CATEGORIES[i % 5] for i in range(60)]
    mask = np.array([s in ("severe", "moderate") for s in sev])
    got = subgroup_metrics(p, y, sev)
    want = metrics(p[mask], y[mask])
    assert got == want
    empty = subgroup_metrics(p[:5], y[:5], ["mild"] * 5)
    assert all(math.isnan(getattr(empty, m)) for m in METRIC_COLS)
    assert empty.flags == ("empty-subgroup",)


# ---------------------------------------------------------------------------
# threshold sweep and seed aggregation


def test_threshold_sweep_grid_and_consistency():
    rng = np.random.default_rng(7)
    p = rng.random(100)
    y = rng.integers(0, 2, size=100)
    rows = threshold_sweep(p, y)
    assert [t for t, _ in rows] == [round(0.1 * i, 1) for i in range(1, 10)]
    for t, acc in rows:
        assert acc == metrics(p, y, threshold=t).accuracy


def test_threshold_sweep_perfect_classifier_flat_at_one():
    p = np.array([0.95, 0.95, 0.05, 0.05])
    y = np.array([1, 1, 0, 0])
    assert all(acc == 1.0 for _, acc in threshold_sweep(p, y))


def _seed_row(**values):
    """A seed's metrics: 0.5 except ``values``."""
    return MetricsRow(**{**dict.fromkeys(METRIC_COLS, 0.5), **values})


def test_seed_aggregate_hand_values():
    agg = seed_aggregate([_seed_row(accuracy=0.8), _seed_row(accuracy=0.9)])
    assert list(agg) == list(METRIC_COLS)
    mean, se = agg["accuracy"]
    assert mean == pytest.approx(0.85)
    assert se == pytest.approx(0.05)


def test_seed_aggregate_zero_spread():
    agg = seed_aggregate([_seed_row(accuracy=0.7, auc=0.1)] * 3)
    assert agg["accuracy"] == (pytest.approx(0.7), pytest.approx(0.0))


def test_seed_aggregate_validation():
    # one seed: its own values, no spread
    one = seed_aggregate([_seed_row(accuracy=0.25, auc=math.nan)])
    assert one["accuracy"] == (0.25, 0.0)
    assert math.isnan(one["auc"][0]) and one["auc"][1] == 0.0
    with pytest.raises(ValueError):
        seed_aggregate([])
