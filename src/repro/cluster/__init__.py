"""Multi-node power coordination (extension).

The paper's conclusion: "Concurrency throttling, as presented, is a
mechanism for saving energy within a single node of a larger system.  The
interface to control active parallelism and monitoring of energy
consumption made available by the runtime system will be useful to higher
level tools that seek to control energy usage across multi-node systems."

This package is a working sketch of that higher-level tool: a
:class:`~repro.cluster.coordinator.PowerCoordinator` re-divides a global
power budget between simulated nodes every second based on their
measured demand — the "power scheduling" regime of Rountree et al. [25]
— while each node runs the full single-node stack under a local power
clamp (:mod:`repro.throttle.clamp`).  The nodes and their shared engine
are :mod:`repro.sched.cluster`'s; :func:`~repro.cluster.coordinator.run_cluster`
is a :class:`~repro.sched.cluster.ClusterSim` run with one workload per
node, all submitted at t=0.
"""

from repro.cluster.coordinator import ClusterResult, PowerCoordinator, run_cluster

__all__ = ["ClusterResult", "PowerCoordinator", "run_cluster"]
