"""Pure-Python core of the reproduction: the paper's algorithms.

Modules: :mod:`motif` (Definition 3.1 + Figure 3 catalog), :mod:`structural`
(phase P1 DFS), :mod:`instances` (phase P2, Algorithm 1 + maximality),
:mod:`dp` (Algorithm 2), :mod:`topk` (§ 5), :mod:`search` (end-to-end),
:mod:`bruteforce` (definition-direct test oracle).
"""
