"""Parallel-layer benchmark: sharded campaigns vs serial.

**Campaign scaling** feeds ``BENCH_parallel.json``: a serial
:class:`~repro.testing.campaign.TestingCampaign` vs
:class:`repro.parallel.ShardedCampaign` with four shards over four DBMS
rounds.  The merged coverage set and Table V must be byte-identical to
serial (``sharded_coverage_identical`` / ``sharded_reports_identical`` are
enforced everywhere, always); the ``scaling_at_least_2_5x_on_4_cores``
speedup floor is judged only where it is judgeable — at least four CPUs, a
real process pool (no in-process fallback), and the full-size corpus.  On
gated hosts the measured speedup is still recorded.
"""

from __future__ import annotations

import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.parallel import ShardedCampaign
from repro.testing.campaign import TestingCampaign

#: The scaling corpus: four DBMS rounds so a 4-shard split is total.
DBMS_NAMES = ["postgresql", "mysql", "tidb", "sqlite"]


def _campaign_settings(quick: bool) -> dict:
    return dict(
        dbms_names=DBMS_NAMES,
        seed=7,
        queries_per_dbms=12 if quick else 60,
        cert_pairs_per_dbms=4 if quick else 20,
    )


def measure_campaign_scaling(quick: bool = False, shards: int = 4) -> dict:
    """Serial vs sharded wall-clock, plus the byte-identity checks."""
    settings = _campaign_settings(quick)
    started = time.perf_counter()
    serial = TestingCampaign(**settings).run()
    serial_seconds = time.perf_counter() - started

    sharded_campaign = ShardedCampaign(**settings, shards=shards)
    started = time.perf_counter()
    merged = sharded_campaign.run()
    sharded_seconds = time.perf_counter() - started

    return {
        "settings": settings,
        "shards": shards,
        "serial": {
            "seconds": serial_seconds,
            "rounds": serial.rounds_completed,
            "queries": serial.queries_generated,
        },
        "sharded": {
            "seconds": sharded_seconds,
            "rounds": merged.rounds_completed,
            "queries": merged.queries_generated,
            "pool_active": sharded_campaign.pool_active,
        },
        "speedup": serial_seconds / sharded_seconds if sharded_seconds else 0.0,
        "coverage_identical": (
            merged.plan_fingerprints == serial.plan_fingerprints
            and merged.unique_plans == serial.unique_plans
        ),
        "reports_identical": merged.table5_rows() == serial.table5_rows(),
        "counters_identical": (
            merged.queries_generated == serial.queries_generated
            and merged.cert_pairs_checked == serial.cert_pairs_checked
        ),
    }


def collect_snapshot(quick: bool = False) -> dict:
    """The BENCH_parallel.json payload."""
    cpus = os.cpu_count() or 1
    scaling = measure_campaign_scaling(quick=quick)
    # The speedup floor is judged only where it is judgeable: four CPUs for
    # four shards, a real process pool behind them (no in-process
    # fallback), and the full-size corpus (--quick rounds are dominated by
    # worker start-up).  Correctness flags are never gated.
    scaling_judgeable = (
        cpus >= 4 and scaling["sharded"]["pool_active"] and not quick
    )
    return {
        "benchmark": "parallel",
        "quick": quick,
        "cpus": cpus,
        "skipped_multicore": cpus < 2,
        "campaign_scaling": scaling,
        "invariants": {
            "sharded_coverage_identical": scaling["coverage_identical"],
            "sharded_reports_identical": scaling["reports_identical"],
            "sharded_counters_identical": scaling["counters_identical"],
            "scaling_at_least_2_5x_on_4_cores": (
                scaling["speedup"] >= 2.5 if scaling_judgeable else True
            ),
            "scaling_gated": not scaling_judgeable,
        },
    }


# -- pytest-benchmark entry points (the driver's --suite mode) ----------------


def test_sharded_campaign_equivalence(benchmark):
    settings = _campaign_settings(quick=True)
    serial = TestingCampaign(**settings).run()

    def sharded_run():
        return ShardedCampaign(**settings, shards=2, parallel=False).run()

    merged = benchmark(sharded_run)
    assert merged.plan_fingerprints == serial.plan_fingerprints
    assert merged.table5_rows() == serial.table5_rows()

