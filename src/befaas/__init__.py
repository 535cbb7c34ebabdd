"""Application-centric FaaS benchmarking harness.

Deploys an instrumented e-commerce application onto simulated FaaS
platforms, drives it with phased load profiles, and reconstructs
per-request call trees with compute/network/query latency decomposition.
"""

__version__ = "0.1.0"
