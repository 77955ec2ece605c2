"""Exception hierarchy for the simulator.

Every domain failure derives from CellSimError so callers (and the CLI)
can distinguish domain errors from programming errors.
"""


class CellSimError(Exception):
    """Base class for all simulator domain errors."""


# --- platform construction ---

class InvariantViolation(CellSimError):
    """A domain-type invariant does not hold (bad alignment, empty set, ...)."""


class OverlapError(CellSimError):
    """Two physical address ranges intersect."""


class EmptyCpuSet(CellSimError):
    """A platform or cell declares no CPUs."""


class DuplicateIrq(CellSimError):
    """The same IRQ line is listed twice."""


# --- cell configuration parsing ---

class ConfigSyntaxError(CellSimError):
    """Lexical or grammatical error in a config file."""

    def __init__(self, line, col, message):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


class ConfigSemanticError(CellSimError):
    """Well-formed config text violating a configuration rule."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# --- binary codec ---

class BadMagic(CellSimError):
    """Byte stream does not start with the expected magic number."""


class UnsupportedVersion(CellSimError):
    """Byte stream carries a format version this build cannot read."""


class TruncatedRecord(CellSimError):
    """Byte stream ends in the middle of a record."""


# --- hypervisor state machine ---

class NotEnabled(CellSimError):
    """Operation requires an enabled hypervisor."""


class AlreadyEnabled(CellSimError):
    """enable() called on an already enabled hypervisor."""


class ConfigMismatch(CellSimError):
    """Root config references resources the platform does not have."""


class ValidationFailed(CellSimError):
    """Cell config failed validation against the platform/ledger."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = list(violations)


class NameCollision(CellSimError):
    """A cell with that name already exists."""


class NoSuchCell(CellSimError):
    """Cell id or name does not refer to an existing cell."""


class NoSuchResource(CellSimError):
    """The platform has no such resource or memory range."""


class BadState(CellSimError):
    """Operation not permitted in the cell's or hypervisor's current state."""


class RootCellImmortal(CellSimError):
    """The root cell cannot be stopped or destroyed."""


class CellsStillExist(CellSimError):
    """disable() requires all non-root cells to be destroyed first."""


class OutOfRegion(CellSimError):
    """Address range leaves the containing memory region."""


# --- interrupts ---

class NoSuchLine(CellSimError):
    """IRQ line does not exist on the platform."""


class UnownedIrq(CellSimError):
    """IRQ line has no running owner cell to deliver to."""


# --- inter-cell communication ---

class SelfChannel(CellSimError):
    """Channel endpoints must be two distinct cells."""


class BadSize(CellSimError):
    """Channel size is zero, unaligned, or cannot be allocated."""


class NotEndpoint(CellSimError):
    """Cell is not an endpoint of the channel."""


class BadVector(CellSimError):
    """Doorbell vector outside the channel's vector range."""


class BadAlignment(CellSimError):
    """Access offset violates the required alignment."""


# --- statistics ---

class EmptySamples(CellSimError):
    """Summary statistics require at least one sample."""
