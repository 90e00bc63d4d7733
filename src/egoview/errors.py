"""Exception types shared across the toolkit."""


class EgoviewError(Exception):
    """Base class for all toolkit errors."""


class BehindCamera(EgoviewError):
    """Point lies at or behind the camera near plane."""


class NotVisible(EgoviewError):
    """Box lies entirely behind the camera near plane."""


class EmptyInput(EgoviewError):
    """An operation received an empty collection it cannot work with."""


class UnknownObjectId(EgoviewError):
    """Referenced object id does not exist in the scene."""


class UnknownScene(EgoviewError):
    """Referenced scene id is not loaded."""


class NoViews(EgoviewError):
    """A view-selection operation received no candidate views."""


class NoneVisible(EgoviewError):
    """The target object overlaps the image of no candidate view."""


class SchemaError(EgoviewError):
    """A record or file does not match its schema.

    Carries the offending field (or file:line locator) and a reason.
    """

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class RuleError(SchemaError, ValueError):
    """A record breaks a rule declared on one of its fields: a bad constructor argument."""


class DuplicateId(EgoviewError):
    """An identifier that must be unique appears more than once."""


class ServiceUnavailable(EgoviewError):
    """A model service could not be reached or gave no usable reply."""


class InvalidImageReference(EgoviewError):
    """The image reference is unknown to the service."""


class MissingGold(EgoviewError):
    """A prediction references a question id absent from the gold set."""


class DuplicatePrediction(EgoviewError):
    """Two predictions share the same question id."""
