"""Mining algorithms: k-means, k-medoids, Markov clustering (Section 2.1)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".distance": ("METRICS", "pairwise_distances", "point_distance"),
        ".kmeans": (
            "KMeansSpec",
            "build_kmeans_program",
            "kmeans_assignment_targets",
            "kmeans_deterministic",
            "kmeans_in_world",
        ),
        ".kmedoids": (
            "KMedoidsSpec",
            "build_kmedoids_folded",
            "build_kmedoids_program",
            "kmedoids_deterministic",
            "kmedoids_in_world",
        ),
        ".markov": (
            "MCLSpec",
            "attraction_targets",
            "build_mcl_program",
            "mcl_in_world",
            "stochastic_graph",
        ),
        ".programs": ("KMEANS_SOURCE", "KMEDOIDS_SOURCE", "MCL_SOURCE"),
        ".ties": ("break_ties", "break_ties_1", "break_ties_2", "tie_break_events"),
    },
)
