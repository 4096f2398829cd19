"""Exception hierarchy shared by all captionkit modules."""


class CaptionKitError(Exception):
    """Base class for every error raised by this package."""


class FormatError(CaptionKitError):
    """An input file could not be parsed in its declared format."""


class ValidationError(CaptionKitError):
    """Parsed input violates a data-model invariant (duplicate id, empty caption, ...)."""


class ConfigurationError(CaptionKitError, ValueError):
    """A required configuration item or a library argument is missing or unusable."""


class DegenerateInputError(CaptionKitError):
    """An analysis operation received input it cannot compute on (no records, no tokens)."""


class QueryError(CaptionKitError):
    """A keyword query is empty after tokenization."""


class IndexVersionError(CaptionKitError):
    """A persisted index file was written by an incompatible format version."""


class TranslationError(CaptionKitError):
    """A translation request failed, or every caption in a batch failed."""
