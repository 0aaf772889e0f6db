"""Partitioning, lock-box protocol, cross-validation, calibration, metrics.

The partition is stratified by severity and balanced on score, lesion size,
and recovery time via a serpentine deal plus greedy same-category swaps.
Group 5 is the lock box: a sealed, audited container that hands out its data
only after the single permitted unlock.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import SEVERITY_CATEGORIES, SubjectRecord
from .learn import class_weighted_bce, sigmoid

BALANCE_COVARIATES = ("score", "left_lesion_size", "recovery_time")
SWEEP_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 10))
SUBGROUP_SEVERITIES = ("severe", "moderate")  # subgroup.csv's subjects
MAX_SWAPS = 500  # balancing swaps a partition may apply
# the reported metrics of a MetricsRow, in report column order
METRIC_COLS = ("accuracy", "balanced_accuracy", "sensitivity", "specificity",
               "precision", "f1", "auc")
TEMPERATURE_TOL = 1e-4  # width of the final ln T bracket


class LockBoxError(RuntimeError):
    pass


class LockBoxViolation(LockBoxError):
    """Group-5 data was requested before the unlock."""


class LockBoxProtocolError(LockBoxError):
    """The lock-box protocol itself was misused (e.g. a second unlock)."""


# ---------------------------------------------------------------------------
# Stratified, covariate-balanced partition


@dataclass(frozen=True)
class BalanceReport:
    max_smd: dict[str, float]  # covariate -> max pairwise standardized diff
    severity_counts: dict[str, dict[int, int]]  # category -> group -> count
    objective: float  # J = sum over covariates of max pairwise SMD
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SplitPlan:
    assignment: dict[str, int]  # subject id -> group in 1..k
    balance: BalanceReport
    k: int = 5  # group k is the lock box


def _covariate_matrix(records: Sequence[SubjectRecord]) -> np.ndarray:
    return np.array([[r.score, r.left_lesion_size, r.recovery_time]
                     for r in records], dtype=np.float64)


def _max_smd(means: np.ndarray, sd: np.ndarray) -> list[float]:
    """Per covariate, the largest standardized difference of group means
    over all group pairs, which is their range over sd; the objective J is
    their sum."""
    return ((means.max(axis=0) - means.min(axis=0)) / sd).tolist()


def stratified_partition(records: Sequence[SubjectRecord], k: int = 5,
                         seed: int = 0) -> SplitPlan:
    """Serpentine deal per severity category (sorted by score), then greedy
    same-category swaps that shrink the summed max pairwise SMD."""
    if not records:
        raise ValueError("empty cohort")
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate subject ids")
    # canonical order: input permutation must not matter
    records = sorted(records, key=lambda r: r.id)
    n = len(records)
    warnings: list[str] = []
    if n < k * len(SEVERITY_CATEGORIES):
        warnings.append(
            f"cohort of {n} is small for {k} groups x "
            f"{len(SEVERITY_CATEGORIES)} severity categories")

    assign = np.full(n, -1, dtype=np.int64)
    category = np.array([SEVERITY_CATEGORIES.index(r.severity)
                         for r in records])
    x = _covariate_matrix(records)
    for ci, cat in enumerate(SEVERITY_CATEGORIES):
        members = [i for i in range(n) if category[i] == ci]
        if not members:
            continue
        if len(members) < k:
            warnings.append(f"category {cat!r} has {len(members)} < {k} members")
        members.sort(key=lambda i: (records[i].score, records[i].id))
        offset = (seed + ci) % k
        # serpentine: k ascending, then k descending, shifted by the offset
        for pos, i in enumerate(members):
            cycle, slot = divmod(pos, k)
            g = slot if cycle % 2 == 0 else k - 1 - slot
            assign[i] = (g + offset) % k

    counts = np.bincount(assign, minlength=k).astype(np.float64)
    empty = [g + 1 for g in range(k) if counts[g] == 0]
    if empty:
        raise ValueError(f"a cohort of {n} subjects leaves groups {empty} of "
                         f"{k} empty")
    sd = x.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    sums = np.zeros((k, x.shape[1]))
    for g in range(k):
        sums[g] = x[assign == g].sum(axis=0)

    def best_swap_for_pair(means: np.ndarray, ga: int, gb: int):
        """Best single same-category exchange between groups ga and gb,
        scored by the span of the two new means and the other groups'."""
        others = means[[g for g in range(k) if g not in (ga, gb)]]
        lo = others.min(axis=0, initial=np.inf)
        hi = others.max(axis=0, initial=-np.inf)
        best = None  # (new_j, i, j)
        for ci in range(len(SEVERITY_CATEGORIES)):
            ia = np.flatnonzero((assign == ga) & (category == ci))
            ib = np.flatnonzero((assign == gb) & (category == ci))
            if len(ia) == 0 or len(ib) == 0:
                continue
            delta = x[ib][None, :, :] - x[ia][:, None, :]  # (m, p, 3)
            ma = means[ga] + delta / counts[ga]
            mb = means[gb] - delta / counts[gb]
            span = (np.maximum(np.maximum(ma, mb), hi)
                    - np.minimum(np.minimum(ma, mb), lo))
            j_cand = np.zeros(delta.shape[:2])
            for c in range(x.shape[1]):
                j_cand += span[..., c] / sd[c]
            flat = int(np.argmin(j_cand))
            r, s = divmod(flat, j_cand.shape[1])
            if best is None or j_cand[r, s] < best[0] - 1e-15:
                best = (float(j_cand[r, s]), int(ia[r]), int(ib[s]))
        return best

    swaps = 0
    while swaps < MAX_SWAPS:
        means = sums / counts[:, None]
        cur_j = sum(_max_smd(means, sd))
        # group pairs by descending worst-covariate SMD; try the worst first
        pairs = sorted(
            ((max(abs(means[a, c] - means[b, c]) / sd[c]
                  for c in range(x.shape[1])), a, b)
             for a in range(k) for b in range(a + 1, k)),
            key=lambda t: (-t[0], t[1], t[2]))
        applied = False
        for _, ga, gb in pairs:
            best = best_swap_for_pair(means, ga, gb)
            if best is not None and best[0] < cur_j - 1e-12:
                _, i, j = best
                sums[ga] += x[j] - x[i]
                sums[gb] += x[i] - x[j]
                assign[i], assign[j] = gb, ga
                swaps += 1
                applied = True
                break
        if not applied:
            break

    means = np.zeros((k, x.shape[1]))
    for g in range(k):
        means[g] = x[assign == g].mean(axis=0)
    max_smd = dict(zip(BALANCE_COVARIATES, _max_smd(means, sd)))
    sev_counts = {cat: {g + 1: 0 for g in range(k)} for cat in SEVERITY_CATEGORIES}
    for i, r in enumerate(records):
        sev_counts[r.severity][int(assign[i]) + 1] += 1
    report = BalanceReport(max_smd=max_smd, severity_counts=sev_counts,
                           objective=sum(max_smd.values()),
                           warnings=tuple(warnings))
    assignment = {r.id: int(assign[i]) + 1 for i, r in enumerate(records)}
    return SplitPlan(assignment=assignment, balance=report, k=k)


# ---------------------------------------------------------------------------
# Lock box


class LockBox:
    """Sealed container for the held-out group with an append-only audit log.

    Every request and the single unlock are logged with a monotonically
    increasing sequence number; requesting lock-box data before the unlock
    logs a violation entry and raises.
    """

    def __init__(self, plan: SplitPlan, audit_path: str | Path | None = None):
        self.lockbox_group = plan.k
        self._unlocked = False
        self._seq = 0
        self.entries: list[dict] = []
        self.audit_path = Path(audit_path) if audit_path else None
        if self.audit_path:
            self.audit_path.write_text("")  # fresh log per seal
        self._log("seal", groups=[self.lockbox_group])

    def _log(self, op: str, **fields):
        self._seq += 1
        entry = {"seq": self._seq, "op": op,
                 "time": f"{_time.time():.6f}", **fields}
        self.entries.append(entry)
        if self.audit_path:
            with self.audit_path.open("a") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def unlock(self, reason: str):
        if self._unlocked:
            self._log("violation", detail="second unlock attempt",
                      reason=reason)
            raise LockBoxProtocolError("lock box can be unlocked only once")
        self._unlocked = True
        self._log("unlock", reason=reason)

    def request(self, groups: Sequence[int], caller: str):
        """Record (and police) an access to the given groups' data."""
        gs = sorted(set(int(g) for g in groups))
        if self.lockbox_group in gs and not self._unlocked:
            self._log("violation", groups=gs, caller=caller)
            raise LockBoxViolation(
                f"{caller!r} requested group {self.lockbox_group} before unlock")
        self._log("access", groups=gs, caller=caller)


def audit_scan(path: str | Path) -> dict:
    """Summarize an audit log file: unlocks, pre-unlock lock-box accesses."""
    entries = [json.loads(line) for line in Path(path).read_text().splitlines()
               if line.strip()]
    seqs = [e["seq"] for e in entries]
    if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
        raise ValueError("audit sequence numbers not strictly increasing")
    unlock_seqs = [e["seq"] for e in entries if e["op"] == "unlock"]
    boxes = {e["groups"][0] for e in entries if e["op"] == "seal"}
    lockbox_group = max(boxes) if boxes else 5
    pre_unlock = [e for e in entries
                  if e["op"] == "access" and lockbox_group in e.get("groups", [])
                  and (not unlock_seqs or e["seq"] < unlock_seqs[0])]
    return {
        "n_unlocks": len(unlock_seqs),
        "n_violations": sum(1 for e in entries if e["op"] == "violation"),
        "pre_unlock_lockbox_accesses": len(pre_unlock),
        "n_entries": len(entries),
    }


# ---------------------------------------------------------------------------
# Cross-validation


def ordered_map(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """``[fn(x) for x in items]``, running up to ``jobs`` calls at a time;
    the results come back in item order, so concurrency changes no output.
    With one job or one item every call runs in the caller's thread."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: at module level it raised a one-job run's peak RSS
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def cross_validate(fit: Callable[[float, int], tuple[float, object]],
                   n_folds: int, lrs: Sequence[float], jobs: int = 1,
                   ) -> tuple[float, dict[float, list[float]], list]:
    """Leave-one-fold-out CV: ``fit(lr, i)`` trains on every fold but i and
    returns (fold i's validation loss, a record of the fit).  The (lr, fold)
    fits run through ``ordered_map``, up to ``jobs`` at a time.  Returns the
    lr with minimum mean validation loss (ties to the smaller lr), the
    per-lr fold losses and the records in (lr, fold) order."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if not lrs or len(set(lrs)) != len(lrs):
        raise ValueError("the lr grid must be nonempty and distinct")
    tasks = [(lr, i) for lr in lrs for i in range(n_folds)]
    fits = ordered_map(lambda task: fit(*task), tasks, jobs)
    losses = {lr: [] for lr in lrs}
    for (lr, _), (loss, _) in zip(tasks, fits):
        losses[lr].append(float(loss))
    best = min(lrs, key=lambda lr: (sum(losses[lr]) / len(losses[lr]), lr))
    return best, losses, [record for _, record in fits]


# ---------------------------------------------------------------------------
# Calibration


@dataclass(frozen=True)
class Calibrator:
    temperature: float

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and positive")

    def apply(self, logits: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(logits, dtype=np.float64) / self.temperature)


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> Calibrator:
    """Golden-section search for T minimizing NLL(sigma(z/T)) over
    ln T in [ln 0.05, ln 20]; falls back to T=1 if that is no worse."""
    y = np.asarray(labels)
    if len(y) == 0 or y.min() == y.max():
        raise ValueError("calibration needs both classes present")
    z = np.asarray(logits, dtype=np.float64)

    def f(u: float) -> float:
        return class_weighted_bce(z / math.exp(u), y)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(0.05), math.log(20.0)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > TEMPERATURE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    t_star = math.exp((a + b) / 2.0)
    if class_weighted_bce(z, y) <= class_weighted_bce(z / t_star, y):
        t_star = 1.0  # never worse than the uncalibrated logits
    return Calibrator(temperature=t_star)


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class MetricsRow:
    accuracy: float
    balanced_accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f1: float
    auc: float
    flags: tuple[str, ...] = ()  # metrics reported as 0 for want of a denominator


def auc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with midranks; ties count one half."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC needs both classes present")
    # a tie group of c values ending at 1-based rank e has midrank e - (c-1)/2
    _, group, count = np.unique(p, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(count) - (count - 1) / 2.0)[group]
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def metrics(probs: np.ndarray, labels: np.ndarray,
            threshold: float = 0.5) -> MetricsRow:
    """Confusion-derived metrics; positive class = aphasic, predicted
    positive iff p >= threshold.  Zero-denominator metrics report 0 and are
    named in ``flags``."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if len(p) == 0:
        raise ValueError("empty input")
    if not (p.min() >= 0 and p.max() <= 1):  # NaN fails too
        raise ValueError("probabilities must lie in [0, 1]")
    pred = p >= threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    tn = int(np.sum(~pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    sens = ratio(tp, tp + fn, "sensitivity")
    spec = ratio(tn, tn + fp, "specificity")
    prec = ratio(tp, tp + fp, "precision")
    f1 = ratio(2 * prec * sens, prec + sens, "f1")
    if (y == 1).any() and (y == 0).any():
        auc_val = auc(p, y)
    else:
        flags.append("auc")
        auc_val = 0.0
    return MetricsRow(
        accuracy=(tp + tn) / len(p),
        balanced_accuracy=(sens + spec) / 2.0,
        sensitivity=sens, specificity=spec, precision=prec, f1=f1,
        auc=auc_val, flags=tuple(flags))


def subgroup_metrics(probs: np.ndarray, labels: np.ndarray,
                     severities: Sequence[str]) -> MetricsRow:
    """Metrics over the severe-or-moderate subjects only; all nan and
    flagged ``empty-subgroup`` when the set has none (a small cohort can
    deal none into the held-out group)."""
    mask = np.array([s in SUBGROUP_SEVERITIES for s in severities])
    if not mask.any():
        return MetricsRow(**dict.fromkeys(METRIC_COLS, math.nan),
                          flags=("empty-subgroup",))
    return metrics(np.asarray(probs)[mask], np.asarray(labels)[mask])


def threshold_sweep(probs: np.ndarray,
                    labels: np.ndarray) -> list[tuple[float, float]]:
    """(threshold, plain accuracy) rows across ``SWEEP_THRESHOLDS``."""
    return [(t, metrics(probs, labels, t).accuracy) for t in SWEEP_THRESHOLDS]


def seed_aggregate(rows: Sequence[MetricsRow],
                   ) -> dict[str, tuple[float, float]]:
    """Per-metric (mean, standard error) over seeds' ``METRIC_COLS``;
    SE = sd(ddof=1)/sqrt(n), and a single seed has zero spread."""
    if not rows:
        raise ValueError("no seed rows to aggregate")
    out = {}
    for m in METRIC_COLS:
        vals = np.array([getattr(r, m) for r in rows], dtype=np.float64)
        se = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        out[m] = (float(vals.mean()), float(se))
    return out
