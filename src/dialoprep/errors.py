"""Exception types shared across the pipeline. ``cli.main`` reports any
:class:`PipelineError` as one ``error:`` line, so a subclass is kept only if code
catches it by type or reads its fields, or if many raise sites share its message."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all data-pipeline errors."""


class MalformedRecordError(PipelineError):
    """A line in a record file failed to parse or validate."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class EndpointError(PipelineError):
    """An annotation endpoint request failed after all retries."""

    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"endpoint returned status {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class BudgetExhaustedError(PipelineError):
    """The request budget for an annotation run was used up."""
