"""Desk-scale toolkit for building and verifying bipartite unique-neighbour expanders.

The pieces fit together as a pipeline: certify a biregular graph as bipartite
Ramanujan (`spectral`), bound non-backtracking path counts through it
(`nbwalk`), sample and exhaustively verify a small unique-neighbour gadget
(`gadget`), route the big graph through the gadget (`product`), and compute
the parameter thresholds that make the composition work (`params`).
"""

__version__ = "0.1.0"
