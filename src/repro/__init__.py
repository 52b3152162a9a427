"""repro — peer-to-peer size estimation in large and dynamic networks.

A production-grade reproduction of Le Merrer, Kermarrec & Massoulié,
*"Peer to peer size estimation in large and dynamic networks: A comparative
study"* (HPDC-15, 2006).

The package provides:

* the three candidate algorithms of the study (Sample&Collide,
  HopsSampling, gossip-based Aggregation) plus the baselines they were
  selected against (inverted birthday paradox, Random Tour, gossipSample);
* the substrate they were evaluated on: dynamic unstructured overlay
  graphs, a message-counting discrete-event simulator, and churn scenarios
  (catastrophic failures, growth, shrinkage);
* an experiment harness regenerating every figure and table of the paper's
  evaluation section (see ``repro.experiments`` and ``benchmarks/``).

Quickstart
----------
>>> from repro import heterogeneous_random, SampleCollideEstimator
>>> g = heterogeneous_random(5_000, rng=7)
>>> est = SampleCollideEstimator(g, l=50, rng=7).estimate()
>>> 0.5 < est.value / g.size < 2.0
True
"""

from . import _lazy

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy.lazy_exports(
    __name__,
    {
        "churn": (
            "ChurnEvent",
            "ChurnScheduler",
            "ChurnTrace",
            "catastrophic_trace",
            "growing_trace",
            "shrinking_trace",
            "steady_churn_trace",
        ),
        "core": (
            "AggregationMonitor",
            "AggregationProtocol",
            "Estimate",
            "EstimatorError",
            "GossipSampleEstimator",
            "HopsSamplingEstimator",
            "InvertedBirthdayEstimator",
            "RandomTourEstimator",
            "SampleCollideEstimator",
            "SizeEstimator",
            "UniformWalkSampler",
        ),
        "core.registry": ("available", "create", "register"),
        "overlay": (
            "MembershipPolicy",
            "OverlayGraph",
            "erdos_renyi",
            "heterogeneous_random",
            "homogeneous_random",
            "ring_lattice",
            "scale_free",
        ),
        "sim": (
            "EstimateSeries",
            "MessageKind",
            "MessageMeter",
            "RngHub",
            "RollingAverage",
            "RoundDriver",
            "SimulationEngine",
            "quality_percent",
        ),
    },
)
__all__ += ["__version__"]
