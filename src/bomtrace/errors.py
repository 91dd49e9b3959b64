"""Domain errors with stable codes.

Each failure mode maps to exactly one code, and the HTTP layer answers with
these codes verbatim, so the set below is the closed vocabulary clients can
rely on. The base class's ``INTERNAL`` marks a fault in the program itself.
"""

from __future__ import annotations

from typing import Any


class BomTraceError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "INTERNAL"

    def __init__(self, message: str, detail: dict[str, Any] | None = None):
        super().__init__(message)
        self.message = message
        self.detail = detail or {}

    def to_dict(self) -> dict[str, Any]:
        body: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail:
            body["detail"] = self.detail
        return body


class MalformedBody(BomTraceError):
    code = "MALFORMED_BODY"


class UnknownRoute(BomTraceError):
    code = "UNKNOWN_ROUTE"


class BodyTooLarge(BomTraceError):
    code = "BODY_TOO_LARGE"


class EmptyName(BomTraceError):
    code = "EMPTY_NAME"


class DuplicateMetadataKey(BomTraceError):
    code = "DUPLICATE_METADATA_KEY"


class DanglingRef(BomTraceError):
    code = "DANGLING_REF"


class KindMismatch(BomTraceError):
    code = "KIND_MISMATCH"


class InputOutputOverlap(BomTraceError):
    code = "INPUT_OUTPUT_OVERLAP"


class DuplicateMembership(BomTraceError):
    code = "DUPLICATE_MEMBERSHIP"


class ValidationFailed(BomTraceError):
    code = "VALIDATION_FAILED"


class UnknownId(BomTraceError):
    code = "UNKNOWN_ID"


class UnknownBom(BomTraceError):
    code = "UNKNOWN_BOM"


class UnknownBol(BomTraceError):
    code = "UNKNOWN_BOL"


class NotInScope(BomTraceError):
    code = "NOT_IN_SCOPE"


class ComponentNotInBom(BomTraceError):
    code = "COMPONENT_NOT_IN_BOM"


class BolSealed(BomTraceError):
    code = "BOL_SEALED"


class AlreadySealed(BomTraceError):
    code = "ALREADY_SEALED"


class BolNotSealed(BomTraceError):
    code = "BOL_NOT_SEALED"


class BomFrozen(BomTraceError):
    code = "BOM_FROZEN"


class RevisionConflict(BomTraceError):
    code = "REVISION_CONFLICT"


class MalformedProof(BomTraceError):
    code = "MALFORMED_PROOF"


class StorageFailure(BomTraceError):
    code = "STORAGE_FAILURE"
