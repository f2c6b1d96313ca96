"""Campaign driver, inequality sweep, and benchmark plumbing."""

import json

import pytest

from orthorank1.harness import (
    BENCH_CSV_HEADER,
    CampaignConfig,
    ConfigError,
    bench_csv,
    bench_speedups,
    run_bench,
    run_lemma1,
    run_verify,
)


def small_config(**overrides):
    base = dict(trials=12, dims=(2, 3, 5), seed=7, oracle_cutoff=8)
    base.update(overrides)
    return CampaignConfig(**base)


def test_campaign_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(trials=0, dims=(2,))
    with pytest.raises(ConfigError):
        CampaignConfig(trials=5, dims=())
    with pytest.raises(ConfigError):
        CampaignConfig(trials=5, dims=(1, 2))
    with pytest.raises(ConfigError):
        CampaignConfig(trials=5, dims=(2,), emit="xml")
    with pytest.raises(ConfigError):
        CampaignConfig(trials=5, dims=(2,), q_mode="fourier")
    with pytest.raises(ConfigError):
        CampaignConfig(trials=5, dims=(2,), vector_mode="sparse")
    with pytest.raises(ConfigError):
        CampaignConfig(trials=5, dims=(2,), theorem_tol=0.0)
    with pytest.raises(ConfigError):
        CampaignConfig(trials=5, dims=(2,), scale_range=(2.0, 1.0))


def test_run_verify_passes_and_counts_every_trial():
    report = run_verify(small_config())
    assert report.failures == []
    assert sum(report.branch_counts.values()) == 36
    assert report.branch_counts["non_parallel"] == 36
    assert report.oracle_trials == 36
    assert report.max_theorem_residual <= 1e-10
    assert report.max_product_residual <= 1e-10
    assert report.max_reconstruction_error <= 1e-9
    assert report.max_oracle_deviation_scaled <= 1e-8
    text = report.table()
    assert "result: PASS" in text
    assert "non_parallel=36" in text


def test_run_verify_is_deterministic_modulo_timings():
    a = run_verify(small_config()).to_dict()
    b = run_verify(small_config()).to_dict()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_verify_records_failures_on_impossible_tolerance():
    report = run_verify(small_config(theorem_tol=1e-30, trials=4))
    assert report.failures
    first = report.failures[0]
    assert first["check"] == "theorem_residual"
    assert {"seed", "trial_index", "dim", "check", "value", "tol"} <= set(first)
    assert "result: FAIL" in report.table()


def test_run_verify_zero_mode_counts_zero_branch():
    report = run_verify(small_config(vector_mode="zero", trials=3, oracle_cutoff=0))
    assert report.branch_counts["zero_vector"] == 9
    assert report.oracle_trials == 0
    assert report.failures == []


def test_run_verify_parallel_mode_counts_parallel_branch():
    report = run_verify(small_config(vector_mode="parallel_pair", trials=3))
    assert report.branch_counts["parallel"] == 9
    assert report.failures == []


def test_run_verify_singular_mode_under_oracle():
    # near-zero sigma_min must survive both routes and the oracle comparison
    report = run_verify(small_config(vector_mode="singular_pair", trials=4))
    assert report.failures == []
    assert report.oracle_trials == 12


def test_run_verify_near_parallel_at_branch_boundary():
    # tilt 1e-12 straddles PARALLEL_TOL: both branches occur, and the unit
    # columns of U must stay orthonormal on either side
    report = run_verify(
        CampaignConfig(trials=200, dims=(16,), vector_mode="near_parallel", epsilon=1e-12)
    )
    assert report.failures == []
    assert report.max_orthonormality_defect <= 1e-12
    assert report.branch_counts["parallel"] > 0
    assert report.branch_counts["non_parallel"] > 0


def test_run_verify_identity_mode_reports_rank_revelation():
    report = run_verify(small_config(q_mode="identity", trials=4, oracle_cutoff=0))
    assert report.failures == []
    assert report.max_rank_revelation_residual >= 0.0
    assert "rank revelation" in report.table()


def test_report_json_round_trips():
    report = run_verify(small_config(trials=2, oracle_cutoff=0))
    parsed = json.loads(report.to_json())
    assert parsed["trials"] == 2
    assert parsed["q_mode"] == "haar"
    assert "timings" in parsed


def test_run_lemma1_small_sweep_clean():
    report = run_lemma1(2_000, seed=3)
    assert report.trials == 2_000
    assert report.violations == 0
    assert report.min_upper_slack >= -1e-12
    assert report.min_lower_slack >= -1e-12
    assert set(report.forced_cases) == {"y_zero", "y_minus_2x"}
    assert "result: PASS" in report.table()


def test_run_lemma1_rejects_bad_trials():
    with pytest.raises(ConfigError):
        run_lemma1(0)


def test_run_bench_rows_and_speedups():
    rows = run_bench(dims=(6,), trials=5, seed=1)
    assert {r.method for r in rows} == {"spectrum", "full_svd", "lapack_svd", "jacobi"}
    assert all(r.trials == 5 and r.median_ns > 0 for r in rows)
    csv_text = bench_csv(rows)
    assert csv_text.startswith(BENCH_CSV_HEADER)
    assert len(csv_text.strip().splitlines()) == 5
    ratios = bench_speedups(rows)
    assert set(ratios) == {6}
    assert ratios[6] > 0.0


def test_full_svd_beats_lapack_at_256():
    # O(n^2) plus one matmul against the O(n^3) dense SVD with vectors
    rows = run_bench(dims=(256,), trials=5, seed=2, agreement_checks=1)
    median = {r.method: r.median_ns for r in rows}
    assert median["full_svd"] < median["lapack_svd"]


def test_run_bench_validates_args():
    with pytest.raises(ConfigError):
        run_bench(dims=())
    with pytest.raises(ConfigError):
        run_bench(dims=(6,), trials=0)
