"""Datasets: synthetic sensor data and probabilistic dataset containers."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".datasets": (
            "ProbabilisticDataset",
            "certain_dataset",
            "from_lineage",
            "sensor_dataset",
        ),
        ".sensors": (
            "DEFAULT_REGIMES",
            "Regime",
            "fraction",
            "generate_sensor_readings",
            "normalise",
        ),
    },
)
