"""Result container for probability compilation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class CompilationResult:
    """Probability bounds and instrumentation for one compilation run.

    ``bounds[target]`` is the certified interval ``[L, U]`` with
    ``L <= P[target] <= U``; for exact runs ``L == U`` up to floating
    point.  ``estimate`` returns the interval midpoint.

    ``extra`` carries per-run instrumentation as flat metrics
    (``"steals"``, ``"recv_wait_seconds"``, ...).
    """

    bounds: Dict[str, Tuple[float, float]]
    scheme: str
    epsilon: float
    seconds: float = 0.0
    tree_nodes: int = 0
    evals: int = 0
    max_depth: int = 0
    jobs: int = 0
    workers: int = 0
    makespan: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    def probability(self, target: str) -> float:
        """Midpoint estimate for a target (exact value for exact runs)."""
        lower, upper = self.bounds[target]
        return min(1.0, max(0.0, 0.5 * (lower + upper)))

    def lower(self, target: str) -> float:
        return self.bounds[target][0]

    def upper(self, target: str) -> float:
        return self.bounds[target][1]

    def gap(self, target: str) -> float:
        lower, upper = self.bounds[target]
        return upper - lower

    def max_gap(self) -> float:
        return max((self.gap(target) for target in self.bounds), default=0.0)

    def is_exact(self, tolerance: float = 1e-9) -> bool:
        return self.max_gap() <= tolerance

    def summary(self) -> str:
        lines = [
            f"scheme={self.scheme} eps={self.epsilon} "
            f"time={self.seconds:.4f}s tree_nodes={self.tree_nodes} "
            f"evals={self.evals}"
        ]
        for target in sorted(self.bounds):
            lower, upper = self.bounds[target]
            lines.append(f"  {target}: [{lower:.6f}, {upper:.6f}]")
        return "\n".join(lines)
