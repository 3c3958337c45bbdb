"""PageRank: stochastic matrix + power iteration, full and strip-parallel.

The paper's construction: "If page j has n successors (links), then the
ij-th entry is 1/n if page i is one of those n successors of page j, 0
otherwise" — a column-stochastic matrix whose principal eigenvector
(computed by "matrix operations and iterative eigenvector computations")
is the rank vector.  "Parallelism is achieved by distributing the matrix
and performing the computation on local portions in parallel": each task
computes a horizontal strip of ``y = d·M·x + (1−d)/n``.
"""

from __future__ import annotations

import numpy as np

from repro.apps.prefetch.webgraph import WebPageCluster

__all__ = [
    "stochastic_matrix",
    "power_iteration_step",
    "matvec_strip",
    "pagerank_power",
]


def stochastic_matrix(cluster: WebPageCluster) -> np.ndarray:
    """The paper's column-stochastic link matrix (dense, n×n)."""
    n = len(cluster)
    matrix = np.zeros((n, n))
    for page in cluster.pages:
        successors = page.links
        if not successors:
            # Dangling page: distribute uniformly (standard fix).
            matrix[:, page.page_id] = 1.0 / n
        else:
            matrix[successors, page.page_id] = 1.0 / len(successors)
    return matrix


#: The damping factor ``d``: a random surfer follows a link with
#: probability 0.85 and jumps to a uniformly random page otherwise.
DAMPING = 0.85

#: Power-iteration steps before ``pagerank_power`` stops unconverged.
MAX_ITER = 200


def matvec_strip(strip: np.ndarray, x: np.ndarray, damping: float,
                 n: int) -> np.ndarray:
    """One task's work: rows ``strip`` of ``d·M·x + (1−d)/n``."""
    return damping * (strip @ x) + (1.0 - damping) / n


def power_iteration_step(matrix: np.ndarray, x: np.ndarray,
                         damping: float = DAMPING) -> np.ndarray:
    """One full (sequential) power-iteration step — the reference the
    strip-parallel version must match exactly."""
    return matvec_strip(matrix, x, damping, matrix.shape[0])


def pagerank_power(matrix: np.ndarray, tol: float = 1e-10
                   ) -> tuple[np.ndarray, int]:
    """Power iteration from the uniform vector to convergence; returns
    ``(ranks, iterations)``."""
    n = matrix.shape[0]
    x = np.full(n, 1.0 / n)
    for iteration in range(1, MAX_ITER + 1):
        x_next = power_iteration_step(matrix, x)
        if np.abs(x_next - x).sum() < tol:
            return x_next, iteration
        x = x_next
    return x, MAX_ITER
