"""Multi-process campaign parallelism.

:class:`ShardedCampaign` partitions a testing campaign's rounds (the
generator seed space × DBMS list) across a process pool and merges the
shard results — coverage stores, Table V reports, counters — into a result
byte-identical to the serial :class:`~repro.testing.campaign.TestingCampaign`
run, including under resume/crash of individual workers.
"""

from repro.parallel.campaign import ShardedCampaign, shard_round_indexes

__all__ = ["ShardedCampaign", "shard_round_indexes"]
