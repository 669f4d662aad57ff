"""vanetlab: a laboratory for blackhole attacks in vehicular ad-hoc
networks — deterministic traffic simulation, flow statistics, labeled
dataset generation, and six from-scratch detection models."""

__version__ = "0.1.0"
