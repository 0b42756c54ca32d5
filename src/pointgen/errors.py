"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class InputError(ValueError):
    """Input data violates a documented precondition."""


class ParseError(ValueError):
    """A text file could not be parsed; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class ConfigError(ValueError):
    """Bad run configuration (unknown key, bad value, missing requirement)."""


class CheckpointError(ValueError):
    """Checkpoint file is corrupt, truncated or of an unknown version."""


class NonFiniteLossError(ValueError):
    """A training step's loss is NaN or infinite; no state was updated."""
