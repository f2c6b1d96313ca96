"""Verification campaigns, Lemma-1 style norm sweeps, and benchmarks.

A campaign samples seeded instances, runs every closed-form check (theorem
residual, product identity, reconstruction, orthonormality, eigen residuals,
rank revelation for identity Q) and, below the oracle cutoff dimension,
compares singular values against the Jacobi oracle.  Per-trial seeds are
(campaign_seed, trial_index), so trials are order-independent and any failure
reproduces from its recorded pair.

Reports are deterministic functions of the config; wall-clock timings are the
only nondeterministic fields and live under a single key so consumers can
strip them.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .closed_form import (
    BRANCH_NON_PARALLEL,
    BRANCH_PARALLEL,
    BRANCH_ZERO_VECTOR,
    full_svd,
    lemma1_gap,
    rank_revelation_residual,
    spectrum,
    special_eigenpairs,
)
from .core import (
    OrthogonalPlusRankOne,
    invariant_scalars,
    materialize,
    orthonormality_defects,
)
from .oracle import (
    InstanceDistribution,
    JacobiConfig,
    NEAR_PARALLEL_EPSILON_DEFAULT,
    NoConvergenceError,
    SCALE_RANGE_DEFAULT,
    jacobi_svd,
    make_rng,
    sample_instance,
    standard_gaussian,
)

THEOREM_TOL_DEFAULT = 1e-10
ORACLE_TOL_DEFAULT = 1e-8
RECONSTRUCTION_TOL_DEFAULT = 1e-9
ORACLE_CUTOFF_DEFAULT = 64

LEMMA1_DIMS = (1, 2, 3, 10, 100)
LEMMA1_SCALE_RANGE = (1e-6, 1e6)
LEMMA1_SLACK_FLOOR = -1e-12

_BRANCHES = (BRANCH_ZERO_VECTOR, BRANCH_PARALLEL, BRANCH_NON_PARALLEL)


class ConfigError(ValueError):
    """Campaign or CLI configuration is invalid."""


@dataclass(frozen=True)
class CampaignConfig:
    trials: int
    dims: tuple[int, ...]
    q_mode: str = "haar"
    vector_mode: str = "gaussian"
    seed: int = 0
    epsilon: float = NEAR_PARALLEL_EPSILON_DEFAULT
    scale_range: tuple[float, float] = SCALE_RANGE_DEFAULT
    theorem_tol: float = THEOREM_TOL_DEFAULT
    oracle_tol: float = ORACLE_TOL_DEFAULT
    reconstruction_tol: float = RECONSTRUCTION_TOL_DEFAULT
    oracle_cutoff: int = ORACLE_CUTOFF_DEFAULT
    emit: str = "table"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if not self.dims:
            raise ConfigError("dims must be nonempty")
        if any(d < 2 for d in self.dims):
            raise ConfigError("every dim must be at least 2")
        if min(self.theorem_tol, self.oracle_tol, self.reconstruction_tol) <= 0.0:
            raise ConfigError("tolerances must be positive")
        if self.emit not in ("table", "json"):
            raise ConfigError(f"emit must be 'table' or 'json', got {self.emit!r}")
        try:
            # surfaces bad q_mode/vector_mode/epsilon/scale_range with one message
            InstanceDistribution(
                max(self.dims), self.q_mode, self.vector_mode, self.epsilon, self.scale_range
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def distribution(self, dim: int) -> InstanceDistribution:
        return InstanceDistribution(dim, self.q_mode, self.vector_mode, self.epsilon, self.scale_range)


@dataclass
class CampaignReport:
    trials: int
    dims: tuple[int, ...]
    q_mode: str
    vector_mode: str
    seed: int
    tolerances: dict[str, float]
    branch_counts: dict[str, int]
    max_theorem_residual: float
    mean_theorem_residual: float
    max_product_residual: float
    max_reconstruction_error: float
    max_orthonormality_defect: float
    max_eigen_residual: float
    max_rank_revelation_residual: float
    max_oracle_deviation: float
    max_oracle_deviation_scaled: float
    oracle_trials: int
    failures: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "dims": list(self.dims),
            "q_mode": self.q_mode,
            "vector_mode": self.vector_mode,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "branch_counts": self.branch_counts,
            "max_theorem_residual": self.max_theorem_residual,
            "mean_theorem_residual": self.mean_theorem_residual,
            "max_product_residual": self.max_product_residual,
            "max_reconstruction_error": self.max_reconstruction_error,
            "max_orthonormality_defect": self.max_orthonormality_defect,
            "max_eigen_residual": self.max_eigen_residual,
            "max_rank_revelation_residual": self.max_rank_revelation_residual,
            "max_oracle_deviation": self.max_oracle_deviation,
            "max_oracle_deviation_scaled": self.max_oracle_deviation_scaled,
            "oracle_trials": self.oracle_trials,
            "failures": self.failures,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def table(self) -> str:
        tol = self.tolerances
        lines = [
            f"campaign: trials={self.trials} dims={list(self.dims)} "
            f"q_mode={self.q_mode} vector_mode={self.vector_mode} seed={self.seed}",
            "branch counts: "
            + " ".join(f"{name}={self.branch_counts[name]}" for name in _BRANCHES),
            f"max theorem residual      {self.max_theorem_residual:.3e}  (tol {tol['theorem_tol']:.1e})",
            f"mean theorem residual     {self.mean_theorem_residual:.3e}",
            f"max product residual      {self.max_product_residual:.3e}  (tol {tol['theorem_tol']:.1e})",
            f"max reconstruction error  {self.max_reconstruction_error:.3e}  (tol {tol['reconstruction_tol']:.1e})",
            f"max orthonormality defect {self.max_orthonormality_defect:.3e}  (tol {tol['reconstruction_tol']:.1e})",
            f"max eigen residual        {self.max_eigen_residual:.3e}  (tol {tol['reconstruction_tol']:.1e})",
        ]
        if self.q_mode == "identity":
            lines.append(
                f"max rank revelation       {self.max_rank_revelation_residual:.3e}  (tol {tol['theorem_tol']:.1e})"
            )
        if self.oracle_trials:
            lines.append(
                f"max oracle deviation      {self.max_oracle_deviation:.3e} absolute, "
                f"{self.max_oracle_deviation_scaled:.3e} scaled  (tol {tol['oracle_tol']:.1e}, "
                f"{self.oracle_trials} trials compared)"
            )
        timing = " ".join(f"{k}={v:.3f}" for k, v in self.timings.items())
        lines.append(f"phase seconds: {timing}")
        lines.append(f"failures: {len(self.failures)}")
        for failure in self.failures[:20]:
            lines.append(f"  {failure}")
        if len(self.failures) > 20:
            lines.append(f"  ... {len(self.failures) - 20} more")
        lines.append("result: " + ("PASS" if not self.failures else "FAIL"))
        return "\n".join(lines) + "\n"


def run_verify(cfg: CampaignConfig) -> CampaignReport:
    """Execute a verification campaign; never raises on a failing trial."""
    counts = {name: 0 for name in _BRANCHES}
    failures: list[dict] = []
    sums = {"theorem": 0.0}
    maxima = {
        "theorem": 0.0,
        "product": 0.0,
        "reconstruction": 0.0,
        "orthonormality": 0.0,
        "eigen": 0.0,
        "rank_revelation": 0.0,
        "oracle_abs": 0.0,
        "oracle_scaled": 0.0,
    }
    oracle_trials = 0
    time_sample = time_closed = time_oracle = 0.0
    total = 0
    trial_index = 0

    def record(dim: int, index: int, check: str, value: float, tol: float) -> None:
        failures.append(
            {
                "seed": cfg.seed,
                "trial_index": index,
                "dim": dim,
                "check": check,
                "value": float(value),
                "tol": float(tol),
            }
        )

    for dim in cfg.dims:
        dist = cfg.distribution(dim)
        for _ in range(cfg.trials):
            stamp = time.perf_counter()
            m = sample_instance(dist, (cfg.seed, trial_index))
            time_sample += time.perf_counter() - stamp

            stamp = time.perf_counter()
            scal = invariant_scalars(m)
            product_scale = scal.alpha * scal.beta
            spec = spectrum(m)
            counts[spec.branch] += 1

            lhs = spec.sigma_max - spec.sign_term * spec.sigma_min
            theorem = abs(lhs - product_scale) / max(1.0, product_scale)
            sums["theorem"] += theorem
            maxima["theorem"] = max(maxima["theorem"], theorem)
            if theorem > cfg.theorem_tol:
                record(dim, trial_index, "theorem_residual", theorem, cfg.theorem_tol)

            # sigma_max*sigma_min and |1+gamma| reach the same value through
            # two dot-product routes whose absolute noise is ~eps*alpha*beta,
            # so the comparison is relative to that scale (a near-zero
            # |1+gamma| on singular instances would make any correct
            # implementation fail a ratio test)
            one_plus_gamma = abs(1.0 + scal.gamma)
            product = abs(spec.sigma_max * spec.sigma_min - one_plus_gamma) / max(
                1.0, product_scale, one_plus_gamma
            )
            maxima["product"] = max(maxima["product"], product)
            if product > cfg.theorem_tol:
                record(dim, trial_index, "product_identity", product, cfg.theorem_tol)

            svd = full_svd(m)
            dense = materialize(m)
            dense_norm = float(np.linalg.norm(dense))
            recon = float(
                np.linalg.norm(dense - (svd.u * svd.sigma) @ svd.v.T)
            ) / max(1.0, dense_norm)
            maxima["reconstruction"] = max(maxima["reconstruction"], recon)
            if recon > cfg.reconstruction_tol:
                record(dim, trial_index, "reconstruction", recon, cfg.reconstruction_tol)

            defect_u, defect_v = orthonormality_defects(svd)
            defect = max(defect_u, defect_v)
            maxima["orthonormality"] = max(maxima["orthonormality"], defect)
            if defect > cfg.reconstruction_tol:
                record(dim, trial_index, "orthonormality", defect, cfg.reconstruction_tol)

            pairs = special_eigenpairs(m)
            if pairs:
                lam_scale = max(1.0, max(pair.eigenvalue for pair in pairs))
                for pair in pairs:
                    gram_v = dense.T @ (dense @ pair.vector)
                    eigen = float(
                        np.linalg.norm(gram_v - pair.eigenvalue * pair.vector)
                    ) / lam_scale
                    maxima["eigen"] = max(maxima["eigen"], eigen)
                    if eigen > cfg.reconstruction_tol:
                        record(dim, trial_index, "eigen_residual", eigen, cfg.reconstruction_tol)

            if m.q is None and product_scale > 0.0:
                revelation = rank_revelation_residual(m) / max(1.0, product_scale**2)
                maxima["rank_revelation"] = max(maxima["rank_revelation"], revelation)
                if revelation > cfg.theorem_tol:
                    record(dim, trial_index, "rank_revelation", revelation, cfg.theorem_tol)
            time_closed += time.perf_counter() - stamp

            if dim <= cfg.oracle_cutoff:
                stamp = time.perf_counter()
                try:
                    oracle_svd = jacobi_svd(dense, JacobiConfig())
                except NoConvergenceError as exc:
                    record(dim, trial_index, "oracle_convergence", float(exc.max_sweeps), 0.0)
                else:
                    oracle_trials += 1
                    deviation = float(np.max(np.abs(svd.sigma - oracle_svd.sigma)))
                    scaled = deviation / max(1.0, spec.sigma_max)
                    maxima["oracle_abs"] = max(maxima["oracle_abs"], deviation)
                    maxima["oracle_scaled"] = max(maxima["oracle_scaled"], scaled)
                    if scaled > cfg.oracle_tol:
                        record(dim, trial_index, "oracle_deviation", scaled, cfg.oracle_tol)
                time_oracle += time.perf_counter() - stamp

            total += 1
            trial_index += 1

    return CampaignReport(
        trials=cfg.trials,
        dims=tuple(cfg.dims),
        q_mode=cfg.q_mode,
        vector_mode=cfg.vector_mode,
        seed=cfg.seed,
        tolerances={
            "theorem_tol": cfg.theorem_tol,
            "oracle_tol": cfg.oracle_tol,
            "reconstruction_tol": cfg.reconstruction_tol,
        },
        branch_counts=counts,
        max_theorem_residual=maxima["theorem"],
        mean_theorem_residual=sums["theorem"] / total,
        max_product_residual=maxima["product"],
        max_reconstruction_error=maxima["reconstruction"],
        max_orthonormality_defect=maxima["orthonormality"],
        max_eigen_residual=maxima["eigen"],
        max_rank_revelation_residual=maxima["rank_revelation"],
        max_oracle_deviation=maxima["oracle_abs"],
        max_oracle_deviation_scaled=maxima["oracle_scaled"],
        oracle_trials=oracle_trials,
        failures=failures,
        timings={
            "sample_s": time_sample,
            "closed_form_s": time_closed,
            "oracle_s": time_oracle,
            "total_s": time_sample + time_closed + time_oracle,
        },
    )


@dataclass
class Lemma1Report:
    trials: int
    seed: int
    min_upper_slack: float
    min_lower_slack: float
    violations: int
    forced_cases: dict[str, tuple[float, float]]
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "min_upper_slack": self.min_upper_slack,
            "min_lower_slack": self.min_lower_slack,
            "violations": self.violations,
            "forced_cases": {k: list(v) for k, v in self.forced_cases.items()},
            "timings": self.timings,
        }

    def table(self) -> str:
        lines = [
            f"lemma1 sweep: trials={self.trials} seed={self.seed} "
            f"dims={list(LEMMA1_DIMS)} scale={list(LEMMA1_SCALE_RANGE)}",
            f"min upper slack {self.min_upper_slack:.3e}",
            f"min lower slack {self.min_lower_slack:.3e}",
        ]
        for name, (upper, lower) in self.forced_cases.items():
            lines.append(f"forced {name}: upper={upper:.3e} lower={lower:.3e}")
        lines.append(f"violations (slack < {LEMMA1_SLACK_FLOOR:.0e}): {self.violations}")
        lines.append(f"seconds: {self.timings.get('total_s', 0.0):.3f}")
        lines.append("result: " + ("PASS" if self.violations == 0 else "FAIL"))
        return "\n".join(lines) + "\n"


def run_lemma1(trials: int = 100_000, seed: int = 0) -> Lemma1Report:
    """Random (unit x, log-uniform-length y) pairs; both slacks must clear the floor."""
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    start = time.perf_counter()
    min_upper = math.inf
    min_lower = math.inf
    violations = 0
    base, remainder = divmod(trials, len(LEMMA1_DIMS))
    lo, hi = LEMMA1_SCALE_RANGE
    for position, dim in enumerate(LEMMA1_DIMS):
        count = base + (1 if position < remainder else 0)
        if count == 0:
            continue
        rng = make_rng((seed, dim))
        xs = standard_gaussian(rng, count * dim).reshape(count, dim)
        ys = standard_gaussian(rng, count * dim).reshape(count, dim)
        lengths = lo * (hi / lo) ** rng.random(count)
        x_norms = np.linalg.norm(xs, axis=1)
        y_norms = np.linalg.norm(ys, axis=1)
        x_norms[x_norms == 0.0] = 1.0
        y_norms[y_norms == 0.0] = 1.0
        xs /= x_norms[:, None]
        ys *= (lengths / y_norms)[:, None]
        for row in range(count):
            upper, lower = lemma1_gap(xs[row], ys[row])
            if upper < min_upper:
                min_upper = upper
            if lower < min_lower:
                min_lower = lower
            if upper < LEMMA1_SLACK_FLOOR or lower < LEMMA1_SLACK_FLOOR:
                violations += 1
    unit = np.zeros(2)
    unit[0] = 1.0
    forced = {
        "y_zero": lemma1_gap(unit, np.zeros(2)),
        "y_minus_2x": lemma1_gap(unit, -2.0 * unit),
    }
    for upper, lower in forced.values():
        min_upper = min(min_upper, upper)
        min_lower = min(min_lower, lower)
        if upper < LEMMA1_SLACK_FLOOR or lower < LEMMA1_SLACK_FLOOR:
            violations += 1
    return Lemma1Report(
        trials=trials,
        seed=seed,
        min_upper_slack=min_upper,
        min_lower_slack=min_lower,
        violations=violations,
        forced_cases=forced,
        timings={"total_s": time.perf_counter() - start},
    )


@dataclass(frozen=True)
class BenchRow:
    dim: int
    method: str
    median_ns: int
    trials: int


BENCH_CSV_HEADER = "dim,method,median_ns,trials"


def bench_csv(rows: list[BenchRow]) -> str:
    lines = [BENCH_CSV_HEADER]
    lines.extend(f"{r.dim},{r.method},{r.median_ns},{r.trials}" for r in rows)
    return "\n".join(lines) + "\n"


def bench_speedups(rows: list[BenchRow]) -> dict[int, float]:
    """jacobi median / spectrum median per dim."""
    spectrum_ns = {r.dim: r.median_ns for r in rows if r.method == "spectrum"}
    jacobi_ns = {r.dim: r.median_ns for r in rows if r.method == "jacobi"}
    return {
        dim: jacobi_ns[dim] / spectrum_ns[dim]
        for dim in sorted(spectrum_ns)
        if dim in jacobi_ns and spectrum_ns[dim] > 0
    }


def run_bench(
    dims=(64,), trials: int = 100, seed: int = 0, agreement_checks: int = 3
) -> list[BenchRow]:
    """Median per-instance wall time of spectrum, full_svd, LAPACK and the oracle.

    The `lapack_svd` row is `np.linalg.svd` with vectors on the dense matrix,
    the general-purpose route `full_svd` replaces.  Instances are pre-sampled
    and pre-materialized, so each timing covers the method alone.  Before timing, the closed form and the oracle must agree
    on a few instances; disagreement aborts the benchmark.
    """
    if not dims:
        raise ConfigError("dims must be nonempty")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    rows: list[BenchRow] = []
    index = 0
    for dim in dims:
        dist = InstanceDistribution(dim, "haar", "gaussian")
        instances = []
        denses = []
        for _ in range(trials):
            m = sample_instance(dist, (seed, index))
            instances.append(m)
            denses.append(materialize(m))
            index += 1
        for m, dense in zip(instances[:agreement_checks], denses[:agreement_checks]):
            closed = full_svd(m)
            oracle_svd = jacobi_svd(dense)
            deviation = float(np.max(np.abs(closed.sigma - oracle_svd.sigma)))
            limit = ORACLE_TOL_DEFAULT * max(1.0, float(closed.sigma[0]))
            if deviation > limit:
                raise RuntimeError(
                    f"closed form and oracle disagree before timing at dim {dim}: "
                    f"deviation {deviation:.3e} exceeds {limit:.3e}"
                )
        for method, fn, inputs in (
            ("spectrum", spectrum, instances),
            ("full_svd", full_svd, instances),
            ("lapack_svd", np.linalg.svd, denses),
            ("jacobi", jacobi_svd, denses),
        ):
            samples = []
            for item in inputs:
                t0 = time.perf_counter_ns()
                fn(item)
                samples.append(time.perf_counter_ns() - t0)
            rows.append(BenchRow(dim, method, int(statistics.median(samples)), trials))
    return rows
