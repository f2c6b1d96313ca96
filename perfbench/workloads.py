"""Workload inputs, the timed calls and the checks on their outputs.

Set-up samples every input with `InstanceDistribution` / `sample_instance`,
materializes it and writes the instance files the read side needs; the
program only ever sees these generated instances.  Each workload then runs
the same five user-facing calls (spectrum, full_svd, dump_instance, the
`svd` command on a file, run_verify) on its own inputs, one after another in
a closed loop with one client.  What differs is which layer the inputs
stress; `manifest.json` records that per workload.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import program as p

# the harness tolerance for reconstruction and orthonormality, relative;
# singular values are held to it too, relative to max(1, sigma_max)
REL_TOL = 1e-9

Q_MODES = ("identity", "permutation", "haar")
VECTOR_MODES = ("gaussian", "parallel_pair", "near_parallel", "singular_pair", "zero")

# |a|, |b| >= 1e78 puts |a||b| past 1.3e154, where t*t overflows inside the
# closed form, while sigma_max <= ~1e300 stays a finite double
WIDE_SCALE = (1e78, 1e150)
KNOWN_WIDE = "wide_scale"  # ROADMAP item 3: DomainError although sigma_max is finite
KNOWN_NEAR = "near_parallel_1e-12"  # ROADMAP item 1: U/V orthonormality ~1e-7

OPS = ("spectrum", "full_svd", "dump", "file_svd", "verify")


@dataclass
class Item:
    """One generated instance with its materialized matrix and files."""

    label: str
    dist: object
    seed: tuple
    instance: object
    dense: np.ndarray
    path: str | None = None  # written during set-up; the `svd` command reads it
    out_path: str | None = None  # the dump op writes here
    known_defect: str | None = None
    _ref: tuple | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.instance.dim

    def reference(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(A / s, LAPACK singular values of A / s, s), s keeping A / s near 1.

        Checks compare in these scaled units, so that a wide-scale instance
        cannot overflow the check itself.
        """
        if self._ref is None:
            m = self.instance
            scale = max(1.0, float(np.abs(m.a).max())) * max(1.0, float(np.abs(m.b).max()))
            dense = self.dense / scale
            self._ref = (dense, np.linalg.svd(dense, compute_uv=False), scale)
        return self._ref


@dataclass
class Campaign:
    label: str
    config: object
    known_defect: str | None = None

    @property
    def trials(self) -> int:
        return self.config.trials * len(self.config.dims)


@dataclass
class Plan:
    """A workload's inputs: per op, the groups one sample is taken over."""

    workload: str
    items: list[Item]
    segments: dict[str, list[tuple]]
    shares: dict[str, float]
    slope_items: dict[int, list[Item]]
    kernels: dict[str, str]  # op -> the reference kernel doing the same kind of work


def _item(label, dist, seed, workdir, files, known_defect=None) -> Item:
    m = p.sample_instance(dist, seed)
    item = Item(label, dist, seed, m, p.materialize(m), known_defect=known_defect)
    if files:
        stem = os.path.join(workdir, f"{seed[-1]:05d}")
        item.path = stem + ".json"
        item.out_path = stem + ".out.json"
        p.dump_instance(m, item.path)
    return item


def _singles(items) -> list[tuple]:
    return [(item,) for item in items]


def _by_dim(items) -> dict[int, list[Item]]:
    out: dict[int, list[Item]] = {}
    for item in items:
        if item.known_defect is None:
            out.setdefault(item.dim, []).append(item)
    return out


def build_small_mixed(seed: int, workdir: str) -> Plan:
    dims = (2, 3, 4, 8, 16)
    items = []
    for n in dims:
        for q in Q_MODES:
            for v in VECTOR_MODES:
                for _ in range(2):
                    dist = p.InstanceDistribution(n, q, v)
                    items.append(_item(f"{q}/{v}/n{n}", dist, (seed, len(items)), workdir, True))
            dist = p.InstanceDistribution(n, q, "gaussian", scale_range=WIDE_SCALE)
            items.append(
                _item(f"{q}/wide/n{n}", dist, (seed, len(items)), workdir, True, KNOWN_WIDE)
            )
    campaigns = [
        Campaign(f"{q}/{v}", p.CampaignConfig(trials=2, dims=dims, q_mode=q, vector_mode=v,
                                              seed=seed * 100 + k))
        for k, (q, v) in enumerate((q, v) for q in Q_MODES for v in VECTOR_MODES)
    ]
    campaigns.append(
        Campaign("haar/wide", p.CampaignConfig(trials=2, dims=dims, scale_range=WIDE_SCALE,
                                               seed=seed * 100 + 99), KNOWN_WIDE)
    )
    singles = _singles(items)
    return Plan(
        "small_mixed",
        items,
        {"spectrum": singles, "full_svd": singles, "dump": singles, "file_svd": singles,
         "verify": _singles(campaigns)},
        {"spectrum": 0.25, "full_svd": 0.35, "dump": 0.1, "file_svd": 0.15, "verify": 0.15},
        _by_dim(items),
        dict.fromkeys(OPS, "interp"),
    )


def build_large_dense(seed: int, workdir: str) -> Plan:
    items = {}
    for n in (256, 512, 1024):
        for q in ("haar", "permutation"):
            dist = p.InstanceDistribution(n, q, "gaussian")
            items[q, n] = _item(f"{q}/gaussian/n{n}", dist, (seed, len(items)), workdir, n == 512)
    haar = items["haar", 1024]
    files = (items["haar", 512], items["permutation", 512])
    # n=256: a 1024 campaign takes ~1.5 s a trial, too few trials for a rate
    campaign = Campaign("haar/gaussian/n256",
                        p.CampaignConfig(trials=4, dims=(256,), seed=seed * 100))
    return Plan(
        "large_dense",
        list(items.values()),
        # spectrum and full_svd time the Haar instance at n=1024 alone: the
        # permutation one costs ~10% less and a mixed median would jump between
        # the two.  A file sample is one Haar and one permutation file at
        # n=512, their mean: at n=1024 a pair takes ~3 s and single calls vary
        # by a third, too few and too noisy for a median in one run.
        {"spectrum": [(haar,)], "full_svd": [(haar,)], "dump": [files],
         "file_svd": [files], "verify": [(campaign,)]},
        {"spectrum": 0.05, "full_svd": 0.4, "dump": 0.22, "file_svd": 0.23, "verify": 0.1},
        {n: [items["haar", n]] for n in (256, 512, 1024)},
        # formatting an instance file is interpreter work at any n
        {"spectrum": "blas", "full_svd": "blas", "dump": "interp", "file_svd": "blas",
         "verify": "blas"},
    )


def build_verify_campaign(seed: int, workdir: str) -> Plan:
    dims = (8, 16, 32, 64)
    campaigns = [
        Campaign("haar/gaussian", p.CampaignConfig(trials=20, dims=dims, seed=seed * 100)),
        Campaign("identity/singular_pair",
                 p.CampaignConfig(trials=20, dims=dims, q_mode="identity",
                                  vector_mode="singular_pair", seed=seed * 100 + 1)),
        # 200 trials: the defect hits ~5% of trials, so every campaign shows it
        Campaign("haar/near_parallel eps=1e-12",
                 p.CampaignConfig(trials=200, dims=(16,), vector_mode="near_parallel",
                                  epsilon=1e-12, seed=seed * 100 + 2), KNOWN_NEAR),
    ]
    items = []
    for c in campaigns:
        cfg = c.config
        for n in cfg.dims:
            dist = p.InstanceDistribution(n, cfg.q_mode, cfg.vector_mode, cfg.epsilon,
                                          cfg.scale_range)
            for _ in range(3):
                items.append(_item(f"{c.label}/n{n}", dist, (seed, len(items)), workdir, True,
                                   c.known_defect))
    singles = _singles(items)
    return Plan(
        "verify_campaign",
        items,
        {"spectrum": singles, "full_svd": singles, "dump": singles, "file_svd": singles,
         "verify": _singles(campaigns)},
        {"spectrum": 0.08, "full_svd": 0.12, "dump": 0.05, "file_svd": 0.1, "verify": 0.65},
        _by_dim(items),
        dict.fromkeys(OPS, "interp"),
    )


BUILDERS = {
    "small_mixed": build_small_mixed,
    "large_dense": build_large_dense,
    "verify_campaign": build_verify_campaign,
}


# --- the timed calls -------------------------------------------------------


def run_file_svd(path: str) -> tuple[int, str, str]:
    """`orthorank1 svd --input PATH`, in-process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = p.cli_main(["svd", "--input", path])
    return code, out.getvalue(), err.getvalue()


def prepare(op: str, unit) -> None:
    """Untimed work before a call: a dump writes into an existing empty file.

    Creating the file costs the disk's metadata latency, which on a shared
    disk swings 2-3x from minute to minute and would swamp the formatting of
    small instances.
    """
    if op == "dump":
        open(unit.out_path, "w").close()


CALLS = {
    "spectrum": lambda item: p.spectrum(item.instance),
    "full_svd": lambda item: p.full_svd(item.instance),
    "dump": lambda item: p.dump_instance(item.instance, item.out_path),
    "file_svd": lambda item: run_file_svd(item.path),
    "verify": lambda campaign: p.run_verify(campaign.config),
}


# --- checks, run outside the timed region ----------------------------------


def _within(value: float) -> bool:
    return value <= REL_TOL  # NaN fails


def sigma_error(item: Item, sigma, extremes_only: bool = False) -> float:
    """max |sigma - LAPACK|, relative to max(1, sigma_max).

    `sigma` is the whole spectrum, or (sigma_max, sigma_min) with extremes_only.
    """
    _, ref, scale = item.reference()
    got = np.asarray(sigma, dtype=float) / scale
    want = ref[[0, -1]] if extremes_only else ref
    err = float(np.max(np.abs(got - want))) / max(float(ref[0]), 1.0 / scale)
    return err if math.isfinite(err) else math.inf


class Tally:
    """Everything the untraced pass counts: inputs, failures, timings, maxima.

    `attempted` and `failed` count distinct (op, input) pairs, not calls: how
    many calls fit in --seconds depends on the machine, which inputs fail
    does not.  An input fails when any of its calls fails a check or raises.
    """

    def __init__(self, plan: Plan):
        self.outcomes: dict[tuple, tuple] = {}  # (op, group, position) -> (slice, failed checks)
        self.kernels = plan.kernels  # op -> the reference kernel its times are scaled by
        self.ref_at: list[float] = []  # perf_counter() of each reference measurement
        # kernel -> its seconds at each measurement, taken between rounds and long groups
        self.refs: dict[str, list[float]] = {
            name: [] for name in sorted(set(plan.kernels.values()))}
        self.group_counts = {op: len(groups) for op, groups in plan.segments.items()}
        self.round_ops: list[str] = []  # the op of each round, in call order
        self.times = {op: GroupTimes() for op in OPS}
        self.units: dict[tuple[str, int], int] = {}  # (op, group) -> inputs in it
        self.trials: dict[int, int] = {}  # verify group -> trials in it
        self.timed_s: dict[str, float] = dict.fromkeys(OPS, 0.0)
        self.branches: Counter = Counter()  # per distinct spectrum input
        self.max_sigma_err = 0.0
        self.max_orthonormality_defect = 0.0
        self.nonfinite = 0  # check values left out of the maxima above
        self.harness: Counter = Counter()  # CampaignReport.timings, summed over calls
        self.campaign_checks: Counter = Counter()  # failing trials per check, per distinct campaign
        self.jacobi_calls = 0  # per distinct campaign
        self._scaled: dict[str, list[float]] = {}

    @property
    def sequence(self) -> list[tuple[str, int]]:
        """(op, group index) of every call group, in call order."""
        return [(op, index) for op in self.round_ops for index in range(self.group_counts[op])]

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for _, bad in self.outcomes.values() if bad)

    @property
    def unexpected(self) -> int:
        """Failed inputs outside the known-defect slices."""
        return sum(1 for known, bad in self.outcomes.values() if bad and known is None)

    @property
    def failures(self) -> Counter:
        """(op, check, known_defect) -> failed inputs."""
        out: Counter = Counter()
        for (op, *_), (known, bad) in self.outcomes.items():
            for check in bad:
                out[op, check, known] += 1
        return out

    def _track(self, attr: str, value: float) -> None:
        if math.isfinite(value):
            setattr(self, attr, max(getattr(self, attr), value))
        else:
            self.nonfinite += 1

    def check(self, op: str, unit, out, first: bool) -> list[str]:
        """Failed check names for one call's output (empty when it passed)."""
        if isinstance(out, Exception):
            return [f"exception:{type(out).__name__}"]
        bad = []
        if op == "spectrum":
            self.branches[out.branch] += first
            err = sigma_error(unit, (out.sigma_max, out.sigma_min), extremes_only=True)
            self._track("max_sigma_err", err)
            if not _within(err):
                bad.append("sigma")
        elif op == "full_svd":
            dense, _, scale = unit.reference()
            err = sigma_error(unit, out.sigma)
            self._track("max_sigma_err", err)
            if not _within(err):
                bad.append("sigma")
            eye = np.eye(unit.dim)
            defect = max(float(np.abs(out.u.T @ out.u - eye).max()),
                         float(np.abs(out.v.T @ out.v - eye).max()))
            self._track("max_orthonormality_defect", defect)
            if not _within(defect):
                bad.append("orthonormality")
            recon = float(np.linalg.norm(dense - (out.u * (out.sigma / scale)) @ out.v.T)) / max(
                float(np.linalg.norm(dense)), 1.0 / scale)
            if not _within(recon):
                bad.append("reconstruction")
        elif op == "dump":
            back = p.load_instance(unit.out_path)
            m = unit.instance
            same_q = (back.q is None and m.q is None) or (
                back.q is not None and m.q is not None
                and np.array_equal(back.q.matrix, m.q.matrix))
            if not (same_q and np.array_equal(back.a, m.a) and np.array_equal(back.b, m.b)):
                bad.append("roundtrip")
        elif op == "file_svd":
            code, text, _ = out
            sigma = [line for line in text.splitlines() if line.startswith("sigma: [")]
            if code != 0 or not sigma:
                bad.append(f"exit_code:{code}")
            elif not _within(sigma_error(unit, [float(x) for x in sigma[0][8:-1].split(",")])):
                bad.append("sigma")
        else:  # verify
            if first:
                self.campaign_checks.update(failure["check"] for failure in out.failures)
                self.jacobi_calls += out.oracle_trials
            if out.failures:
                bad.append("campaign_failures")
        return bad

    def record(self, op: str, group_index: int, group, outs, times, start: float) -> None:
        ok = True
        for position, (unit, out) in enumerate(zip(group, outs)):
            key = (op, group_index, position)
            bad = self.check(op, unit, out, key not in self.outcomes)
            self.outcomes.setdefault(key, (unit.known_defect, set()))[1].update(bad)
            ok = ok and not isinstance(out, Exception)
        if op == "verify":
            for out in outs:
                if not isinstance(out, Exception):
                    self.harness.update(out.timings)
            self.trials[group_index] = sum(unit.trials for unit in group)
        if ok:  # a group that raised has no time to report
            self.units[op, group_index] = len(group)
            self.times[op].add(len(self.round_ops), group_index, start, sum(times))

    def measure_reference(self) -> None:
        for name, times in self.refs.items():
            times.append(time_kernel(KERNELS[name]))
        self.ref_at.append(time.perf_counter())

    def scale(self, kernel: str, start: float, end: float) -> float:
        """A reference kernel's seconds around a timed group: the median of
        every measurement from REF_WINDOW_S before it to REF_WINDOW_S after it
        (at least the ones next to it)."""
        lo = bisect.bisect_left(self.ref_at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.ref_at, end + REF_WINDOW_S)
        return statistics.median(self.refs[kernel][max(0, min(lo, hi - 1)):max(hi, lo + 1)])

    def seconds(self, op: str, scaled: bool = True):
        """Seconds of each timed group of `op`, in reference-kernel units (or unscaled)."""
        t = self.times[op]
        if not scaled:
            return t.seconds
        if op not in self._scaled:
            kernel = self.kernels[op]
            self._scaled[op] = [s / self.scale(kernel, start, start + s)
                                for start, s in zip(t.start, t.seconds)]
        return self._scaled[op]

    def _collect(self, op: str, key, scaled: bool) -> dict[int, list[float]]:
        out: dict[int, list[float]] = {}
        t = self.times[op]
        for k, s in zip(key(t), self.seconds(op, scaled)):
            out.setdefault(k, []).append(s)
        return out

    def typical(self, op: str, scaled: bool = True) -> float:
        """Mean time per call over the op's inputs, each input at its median
        over the run's rounds: a slow round moves no input's median, and the
        mix of inputs is the same in every run."""
        groups = self._collect(op, lambda t: t.group, scaled)
        return sum(statistics.median(v) for v in groups.values()) / sum(
            self.units[op, g] for g in groups)

    def tail(self, op: str) -> tuple[float, str]:
        """Like `typical`, with each input at the highest of p90 and p50 that
        has at least 10 of its rounds beyond it; returns the value and a label."""
        groups = self._collect(op, lambda t: t.group, True)
        rounds = min(len(v) for v in groups.values())
        pct = next((pct for pct in TAIL_PERCENTILES if rounds * (1.0 - pct / 100.0) >= 10.0),
                   50.0)
        value = sum(float(np.percentile(v, pct)) for v in groups.values()) / sum(
            self.units[op, g] for g in groups)
        label = f"p{pct:g} over {rounds} rounds"
        if rounds * (1.0 - pct / 100.0) < 10.0:
            label += ", the median: too few rounds for a tail"
        return value, label

    def trials_per_ref(self) -> float:
        """Verify trials per reference-kernel time, each campaign at its median."""
        groups = self._collect("verify", lambda t: t.group, True)
        return sum(self.trials[g] for g in groups) / sum(
            statistics.median(v) for v in groups.values())

    def rounds(self, op: str) -> int:
        return len(set(self.times[op].round))


class GroupTimes:
    """The timed groups of one op, in columns: a run holds ~10^5 of them, and
    the benchmark's own bookkeeping should not show in peak_rss_mb."""

    def __init__(self):
        self.round = array("l")
        self.group = array("l")
        self.start = array("d")  # perf_counter() at the group's first call
        self.seconds = array("d")  # the group's calls, summed

    def add(self, round_index: int, group: int, start: float, seconds: float) -> None:
        self.round.append(round_index)
        self.group.append(group)
        self.start.append(start)
        self.seconds.append(seconds)


# --- the reference kernels ---------------------------------------------------

_REF_RNG = np.random.default_rng(20151211)
_REF_SMALL = _REF_RNG.standard_normal((48, 48))
_REF_FLOATS = _REF_RNG.standard_normal(120).tolist()
_REF_MID = _REF_RNG.standard_normal((192, 192))
_REF_BIG = _REF_RNG.standard_normal((1024, 1024))
_REF_VEC = _REF_RNG.standard_normal(1024)


def interp_kernel() -> None:
    """Interpreter-bound work like the program's small-n calls: a Python loop,
    numpy calls on 32x16 slices (the Jacobi oracle's rotations), a small QR
    and the pure-Python JSON encoder that `indent` selects."""
    total = 0
    for i in range(1500):
        total += i * i
    for _ in range(20):
        left, right = _REF_SMALL[:32, :16], _REF_SMALL[:32, 16:32]
        np.einsum("ij,ij->j", left, right) / np.sqrt(np.einsum("ij,ij->j", left, left))
    np.linalg.qr(_REF_SMALL)
    json.dumps(_REF_FLOATS, indent=2)


def blas_kernel() -> None:
    """BLAS-bound work like the program's large-n calls: a matrix product and a
    matrix-vector product streaming 8 MB from memory."""
    _REF_MID @ _REF_MID
    _REF_BIG @ _REF_VEC


KERNELS = {"interp": interp_kernel, "blas": blas_kernel}
REF_WARMUP = 50
REF_RUNS = 3  # per measurement, after one untimed run
REF_WINDOW_S = 0.25
TAIL_PERCENTILES = (90.0, 50.0)  # beyond p90, a shared machine's stalls set the figure
REF_GAP_S = 0.05  # longest stretch of calls without a measurement, inside a round


def time_kernel(kernel) -> float:
    """Median seconds of REF_RUNS runs of `kernel`, after one that warms the caches."""
    kernel()
    times = []
    for _ in range(REF_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_untraced(plan: Plan, seconds: float, tally: Tally, between_rounds=None) -> None:
    """Closed loop, one client: the op furthest behind its share of `seconds`
    runs next, one whole round over its groups.

    The reference kernels run between rounds, and inside a round whenever
    REF_GAP_S has passed.  A shared machine's speed drifts by half and more
    within seconds and between runs, and it moves a kernel of the same kind
    of work with the program, so each group's time is reported in units of
    its kernel's time around it: on small_mixed this cuts the spread of round
    times within a run from ~0.3 to ~0.1 (quartile distance over median).  An
    interpreter-bound kernel does not track BLAS-bound calls, nor the
    reverse, so the plan names a kernel for each op.  Interleaving spreads
    every op over the whole run, and every op runs at least one round.
    `between_rounds`, if given, runs after each round, untimed.
    """
    rounds = dict.fromkeys(OPS, 0)

    def pending(op: str) -> bool:
        return rounds[op] == 0 or tally.timed_s[op] < plan.shares[op] * seconds

    for name in tally.refs:
        for _ in range(REF_WARMUP):
            KERNELS[name]()
    tally.measure_reference()
    while active := [op for op in OPS if pending(op)]:
        op = min(active, key=lambda name: tally.timed_s[name] / plan.shares[name])
        for index, group in enumerate(plan.segments[op]):
            outs, times = [], []
            for unit in group:
                prepare(op, unit)
                start = time.perf_counter()
                try:
                    out = CALLS[op](unit)
                except Exception as exc:  # a failed op is counted, never fatal
                    out = exc
                times.append(time.perf_counter() - start)
                outs.append(out)
            tally.timed_s[op] += sum(times)
            tally.record(op, index, group, outs, times, time.perf_counter() - sum(times))
            measured = time.perf_counter() - tally.ref_at[-1] > REF_GAP_S
            if measured:
                tally.measure_reference()
        if not measured:
            tally.measure_reference()
        rounds[op] += 1
        tally.round_ops.append(op)
        if between_rounds is not None:
            between_rounds()
