"""The benchmark's three replay cells, built from a seed.

Each workload is one SWIM replay cell of a registered study, rebuilt
here so the benchmark can time set-up and driving apart:

* ``steady-hb`` -- the scale study's ``steady`` scenario with
  phase-locked, batched heartbeats and suspend;
* ``shuffle-kill`` -- the shuffle study's kill cell on 2.5x
  oversubscribed rack uplinks;
* ``memscale-gated`` -- the memscale study's ``suspend-gated`` cell on
  swap-constrained nodes.

The study modules draw every job's class independently, so which
classes a cell holds -- above all whether it holds one of the rare
64-128 task ``huge`` jobs -- decides most of its cost, and that cost
varied 18x between seeds of one memscale cell.  The benchmark
therefore draws a *stratified* replay, so that a seed changes which
jobs a cell holds but hardly what the cell costs:

* the number of jobs of each class is fixed by the mix's weights
  (largest remainder);
* a class's task and reduce counts are the evenly spaced quantiles of
  its ranges, dealt out to its jobs in an order the seed shuffles;
* the gaps between arrivals are the evenly spaced quantiles of the
  exponential distribution of the study's Poisson process, in an
  order the seed shuffles.

The seed draws everything else through the program's own
:class:`~repro.workloads.swim.SwimGenerator` -- input sizes, parse
rates, footprints, shuffle fractions -- and the order of the jobs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class CellShape:
    """The fixed size and setting of one workload's cells."""

    study: str
    trackers: int
    num_jobs: int
    mix: str
    #: offered load: one arrival every ``load_seconds / trackers`` s
    load_seconds: float


SHAPES: Dict[str, CellShape] = {
    "steady-hb": CellShape(
        study="scale", trackers=400, num_jobs=80, mix="steady",
        load_seconds=240.0,
    ),
    "shuffle-kill": CellShape(
        study="shuffle", trackers=50, num_jobs=50, mix="shuffle-heavy",
        load_seconds=150.0,
    ),
    "memscale-gated": CellShape(
        study="memscale", trackers=40, num_jobs=40, mix="memory-heavy",
        load_seconds=100.0,
    ),
}


def _quantiles(values: range, count: int, stream) -> List[int]:
    """``count`` evenly spaced quantiles of ``values``, shuffled."""
    picked = [values[int((k + 0.5) / count * len(values))]
              for k in range(count)]
    stream.shuffle(picked)
    return picked


def stratified_jobs(rng, classes, num_jobs: int, mean_interarrival: float):
    """``num_jobs`` SWIM jobs whose class counts follow the weights.

    Each class draws its jobs from its own named stream of ``rng`` (an
    :class:`~repro.sim.rng.RngRegistry`), one job at a time from a copy
    of the class narrowed to the job's task and reduce counts; a
    further stream shuffles the jobs and their arrival gaps.
    """
    from repro.workloads.swim import SwimGenerator

    total = sum(cls.weight for cls in classes)
    exact = [cls.weight / total * num_jobs for cls in classes]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(classes)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: num_jobs - sum(counts)]:
        counts[i] += 1
    specs = []
    for cls, count in zip(classes, counts):
        stream = rng.stream(f"swim.{cls.name}")
        tasks = _quantiles(cls.num_tasks, count, stream)
        reduces = _quantiles(
            range(cls.num_reduces.start, cls.max_reduces + 1), count, stream
        )
        for k, (num_tasks, num_reduces) in enumerate(zip(tasks, reduces)):
            job_class = replace(
                cls, name=f"{cls.name}.{k}",
                num_tasks=range(num_tasks, num_tasks + 1),
                num_reduces=range(num_reduces, num_reduces + 1),
            )
            generator = SwimGenerator(stream, classes=[job_class])
            specs.extend(generator.generate_workload(1))
    arrivals = rng.stream("swim.arrivals")
    arrivals.shuffle(specs)
    gaps = [-mean_interarrival * math.log(1.0 - (k + 0.5) / num_jobs)
            for k in range(num_jobs)]
    arrivals.shuffle(gaps)
    clock = 0.0
    for spec, gap in zip(specs, gaps):
        spec.submit_offset = clock
        clock += gap
    return specs


def _scheduler_and_cluster_args(shape: CellShape) -> Tuple[object, dict]:
    """The study's scheduler plus its HadoopCluster keyword arguments."""
    from repro.experiments import memscale_study, params
    from repro.netmodel.config import NetConfig
    from repro.preemption.base import make_primitive
    from repro.schedulers.hfsp import HfspScheduler

    node = params.paper_node_config()
    hadoop = params.paper_hadoop_config().replace(map_slots=2, reduce_slots=1)
    racks = (shape.trackers + 4) // 5
    if shape.study == "scale":
        hadoop = hadoop.replace(heartbeat_phases=4, batch_heartbeats=True)
        scheduler = HfspScheduler(
            primitive_factory=functools.partial(make_primitive, "suspend")
        )
        return scheduler, dict(node_config=node, hadoop_config=hadoop)
    if shape.study == "shuffle":
        scheduler = HfspScheduler(
            primitive_factory=functools.partial(make_primitive, "kill")
        )
        net = NetConfig.oversubscribed(hosts_per_rack=5, oversubscription=2.5)
        return scheduler, dict(node_config=node, hadoop_config=hadoop,
                               racks=racks, net_config=net)
    node = node.replace(swap_bytes=memscale_study.SWAP_BYTES)
    hadoop = hadoop.replace(
        max_suspended_per_tracker=memscale_study.MAX_SUSPENDED_PER_TRACKER
    )
    scheduler = memscale_study._make_scheduler(
        "suspend-gated", memscale_study.RESERVE_BYTES, node, hadoop
    )
    net = NetConfig.oversubscribed(hosts_per_rack=5, oversubscription=2.0)
    return scheduler, dict(node_config=node, hadoop_config=hadoop,
                           racks=racks, net_config=net)


def build_cell(workload: str, seed: int, profile: bool = False):
    """A loaded, not yet started cell: ``(cluster, counter, num_jobs)``.

    ``profile`` turns on the engine's per-label event counts.
    """
    from repro.experiments.drive import install_counter
    from repro.hadoop.cluster import HadoopCluster
    from repro.workloads.swim import MIXES

    shape = SHAPES[workload]
    scheduler, cluster_args = _scheduler_and_cluster_args(shape)
    cluster = HadoopCluster(
        num_nodes=shape.trackers, scheduler=scheduler, seed=seed,
        trace=False, profile=profile, **cluster_args,
    )
    scheduler.attach_cluster(cluster)
    for spec in stratified_jobs(
        cluster.sim.rng, MIXES[shape.mix], shape.num_jobs,
        shape.load_seconds / shape.trackers,
    ):
        cluster.submit_job(spec)
    return cluster, install_counter(cluster), shape.num_jobs


def outcome(cluster, counter) -> Dict[str, object]:
    """The cell's simulated outcome, which the benchmark checks.

    ``events`` is reported but never compared: dropping no-op events
    is a legitimate optimisation.
    """
    import hashlib

    from repro.units import MB

    jobs = list(cluster.jobtracker.jobs.values())
    sojourns: List[float] = sorted(
        job.sojourn_time for job in jobs if job.sojourn_time is not None
    )
    finishes = [job.finish_time for job in jobs if job.finish_time is not None]
    gate = cluster.scheduler.admission
    return {
        "sojourns_sha256": hashlib.sha256(
            repr(sojourns).encode("utf-8")
        ).hexdigest(),
        "sojourn_count": len(sojourns),
        "makespan": max(finishes) if finishes else 0.0,
        "wasted": cluster.jobtracker.wasted.total(),
        "wasted_net_mb": cluster.wasted_network_bytes() / MB,
        "swap_out_mb": cluster.total_swapped_out_bytes() / MB,
        "peak_suspended_mb": cluster.jobtracker.peak_suspended_bytes / MB,
        "preemptions": cluster.scheduler.preemptions,
        "oom_kills": sum(k.oom_kills for k in cluster.kernels.values()),
        "suspend_denials": gate.stats.denied if gate is not None else 0,
        "jobs_failed": sum(1 for job in jobs if job.state.value == "FAILED"),
        "jobs_completed": counter.count,
        "events": cluster.sim.events_fired,
    }
