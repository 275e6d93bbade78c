"""Exception types shared across the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all data-pipeline errors."""


class MalformedRecordError(PipelineError):
    """A line in a record file failed to parse or validate."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class UnmappedFieldError(PipelineError):
    """A source record is missing a field required by the ingest spec."""

    def __init__(self, name: str):
        super().__init__(f"source record has no field {name!r}")
        self.name = name


class PoolTooSmallError(PipelineError):
    """The name pool has fewer entries than a dialogue has roles."""


class AmbiguousMapError(PipelineError):
    """A role map cannot be applied unambiguously."""


class EndpointError(PipelineError):
    """An annotation endpoint request failed after all retries."""

    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"endpoint returned status {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class BudgetExhaustedError(PipelineError):
    """The request budget for an annotation run was used up."""


class EmptySummaryError(PipelineError):
    """A summary tokenizes to zero tokens, so ratio statistics are undefined."""


class EmptyCorpusError(PipelineError):
    """A corpus-level statistic was requested over zero examples."""

