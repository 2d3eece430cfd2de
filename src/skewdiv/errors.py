"""Exception types shared across the package."""


class SkewdivError(Exception):
    """Base class for all errors raised by skewdiv."""


class ParseError(SkewdivError):
    """Malformed expression source.  The message ends with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")


class UnknownNameError(ParseError):
    """Identifier that resolves to neither a chart variable nor a parameter."""

    def __init__(self, name: str, offset: int, valid: tuple[str, ...]):
        super().__init__(
            f"unknown identifier {name!r}; valid names: {', '.join(valid)}", offset
        )


class MissingParameterError(SkewdivError):
    """A parameter referenced by an expression is absent at evaluation time."""


class EvalDomainError(SkewdivError):
    """Numeric domain violation (log of nonpositive, division by zero, ...).

    ``offset`` locates the offending subexpression when the error originates
    from expression evaluation; it is None for bare jet arithmetic.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class OrderExceededError(SkewdivError):
    """A derivative beyond the truncation order of a jet was requested."""


class NonPositiveDefiniteError(SkewdivError):
    """Metric matrix failed the positive-definiteness check at a point."""


class DegeneratePError(SkewdivError):
    """Adapted frame requested at a point where |P| vanishes."""


class FrameConsistencyError(SkewdivError):
    """Frame-expressed divergence disagrees with the coordinate computation."""


class ScenarioError(SkewdivError):
    """Malformed scenario name, file, or grid specification."""
