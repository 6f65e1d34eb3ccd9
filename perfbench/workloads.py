"""The benchmark workloads: a sliding window and a growing one.

A workload is a window schedule over inputs generated up front from the
seed: an initial window, then per update ``add`` splits appended and
``remove`` dropped.  ``warmup`` untimed updates bring the plan cache to its
steady state; the next ``updates`` are timed.  After the
``recover_after``-th timed update the engine is checkpointed and restored,
and the episode continues on the restored engine.  README.md gives the
reason for each workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import Slider, SliderConfig, WindowMode
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split

TWEETS_PER_SPLIT = 250


@dataclass(frozen=True)
class Inputs:
    job: MapReduceJob
    splits: list[Split]


@dataclass(frozen=True)
class Workload:
    name: str
    mode: WindowMode
    tree: str
    #: Splits in the initial window.
    window: int
    #: Splits appended / dropped per update.
    add: int
    remove: int
    #: Untimed updates per episode before the timed ones.
    warmup: int
    #: Timed updates per episode.
    updates: int
    #: Checkpoint and restore once, after this many timed updates.
    recover_after: int
    #: ``(workload, seed) -> Inputs``; the only place inputs are made.
    generate: Callable[["Workload", int], Inputs]
    #: Run on the simulated 24-machine evaluation cluster.
    cluster: bool = False

    def total_splits(self) -> int:
        return self.window + self.add * (self.warmup + self.updates)

    def make_slider(self, job: MapReduceJob) -> Slider:
        config = SliderConfig(
            mode=self.mode, tree=self.tree, execution_backend="inprocess"
        )
        if not self.cluster:
            return Slider(job, self.mode, config=config)
        from repro.bench.harness import make_cluster
        from repro.cluster.scheduler import HybridScheduler

        return Slider(
            job,
            self.mode,
            config=config,
            cluster=make_cluster(),
            scheduler=HybridScheduler(),
        )

    def step(self, inputs: Inputs, index: int) -> tuple[list[Split], int]:
        """Splits added and the count removed by update ``index`` of an
        episode (warm-up updates first)."""
        start = self.window + index * self.add
        return inputs.splits[start : start + self.add], self.remove


def _hct_inputs(workload: Workload, seed: int) -> Inputs:
    from repro.apps.registry import APP_REGISTRY

    spec = APP_REGISTRY["hct"]
    # One call: the split makers regenerate their whole offset prefix.
    splits = spec.make_splits(workload.total_splits(), seed, 0)
    return Inputs(spec.make_job(), splits)


def _tweet_inputs(workload: Workload, seed: int) -> Inputs:
    from repro.apps.twitter import make_tweet_splits, propagation_tree_job
    from repro.datagen.twitter import TweetGenerator, TwitterGraph

    # Table 4's graph and URL counts; one stream, cut into splits.
    graph = TwitterGraph(num_users=800, seed=seed)
    generator = TweetGenerator(graph, num_urls=300, seed=seed)
    tweets = generator.tweets(workload.total_splits() * TWEETS_PER_SPLIT)
    return Inputs(propagation_tree_job(), make_tweet_splits(tweets, TWEETS_PER_SPLIT))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The folding tree's plan cache starts replaying after 64 updates.
        Workload(
            name="hct-slide",
            mode=WindowMode.VARIABLE,
            tree="folding",
            window=40,
            add=1,
            remove=1,
            warmup=64,
            updates=64,
            recover_after=64,
            generate=_hct_inputs,
        ),
        # 20,000 tweets, then 64 appends of 1,000; the state only grows, so
        # the number of appends is part of the workload.  Appends 33-64 run
        # on the engine restored from the checkpoint taken after append 32.
        # The only workload on the cluster, so the only one that prices
        # updates with TimeSimulator and restores a cluster.
        Workload(
            name="twitter-append",
            mode=WindowMode.APPEND,
            tree="coalescing",
            window=20_000 // TWEETS_PER_SPLIT,
            add=1_000 // TWEETS_PER_SPLIT,
            remove=0,
            warmup=0,
            updates=64,
            recover_after=32,
            generate=_tweet_inputs,
            cluster=True,
        ),
    )
}
