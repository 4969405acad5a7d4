"""Package-specific exception types."""


class CrossCheckError(RuntimeError):
    """Two independent computation routes for the same quantity disagree
    beyond their paired tolerance; indicates an internal defect."""
