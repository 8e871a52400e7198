"""Exception hierarchy for the LDM package.

Every domain error derives from LdmError so callers (CLI, feed handlers)
can map the whole family to a single failure path.
"""


class LdmError(Exception):
    """Base class for all LDM domain errors."""


class InvalidElement(LdmError):
    """A scene element failed validation; carries the violation list."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AttributeOverlap(LdmError):
    """An attribute name is claimed both statically and dynamically."""


class UnknownElement(LdmError):
    """Referenced element id is not present in the store."""


class InvalidConfig(LdmError):
    """A configuration field violates its invariant; names the field."""


class OutOfLocalRange(LdmError):
    """Point too far from the tangent-plane origin for ENU conversion."""


class MalformedDocument(LdmError):
    """Map document is not well-formed XML; carries the error position."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


class UnknownNode(LdmError):
    """Referenced road node id is not present in the road graph."""


class NoMap(LdmError):
    """Operation needs a road graph but none is loaded."""


class NoPose(LdmError):
    """Element has no usable pose at the requested time."""


class Unmatched(LdmError):
    """Position could not be matched to any road segment."""


class SceneSyntaxError(LdmError):
    """Scene JSON is not parseable; carries line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        pos = "" if line is None else f" (line {line}, column {column})"
        super().__init__(f"{message}{pos}")


class SchemaError(LdmError):
    """Scene JSON parsed but violates the document schema; names the path."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{message} at '{path}'" if path else message)


class InvalidMessage(LdmError):
    """A perception message violates a field invariant; names the field."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message)


class SinkError(LdmError):
    """Writing an export/archive document failed; wraps the I/O message."""


class BindError(LdmError):
    """Feed listener could not bind its endpoint."""


class FileError(LdmError):
    """Scenario file could not be read."""
