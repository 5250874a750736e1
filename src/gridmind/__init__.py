"""Gridworld path planning: environments, search-trace text, evaluation."""

__version__ = "0.1.0"
