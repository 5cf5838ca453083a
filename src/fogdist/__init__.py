"""Context-aware distribution of pipeline modules between a Fog node and a Cloud VM.

The package simulates a three-tier testbed (device, Fog board, Cloud VM),
prices deployments with a piecewise Cloud/Fog cost model, and trains a
replay-based Q-learning agent to pick, per deployment, how many leading
pipeline modules to host on the Fog node.
"""
